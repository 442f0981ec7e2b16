#include "network/network_dbscan.h"

#include <gtest/gtest.h>

#include "network/network_gen.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace tcomp {
namespace {

using testing_util::MakeSnapshot;

TEST(NetworkDbscanTest, ClustersAlongOneRoad) {
  RoadGraph g = RoadGraph::Grid(4, 2, 400.0);
  // Five objects strung 20 m apart along the bottom road.
  Snapshot s = MakeSnapshot({{0, 100.0, 2.0},
                             {1, 120.0, -2.0},
                             {2, 140.0, 1.0},
                             {3, 160.0, 0.0},
                             {4, 180.0, -1.0}});
  Clustering c = NetworkDbscan(s, g, DbscanParams{30.0, 3});
  ASSERT_EQ(c.clusters.size(), 1u);
  EXPECT_EQ(c.clusters[0], (ObjectSet{0, 1, 2, 3, 4}));
}

TEST(NetworkDbscanTest, SeparatesParallelAvenues) {
  // The motivating case: two groups Euclidean-close across parallel
  // roads, network-far (must drive around the block).
  RoadGraph g = RoadGraph::Grid(4, 2, 400.0);  // rows at y=0 and y=400
  std::vector<std::tuple<ObjectId, double, double>> items;
  for (int k = 0; k < 4; ++k) {
    items.push_back({static_cast<ObjectId>(k), 150.0 + 20.0 * k, 0.0});
    items.push_back(
        {static_cast<ObjectId>(10 + k), 150.0 + 20.0 * k, 400.0});
  }
  Snapshot s = MakeSnapshot(items);
  DbscanParams params{90.0, 3};

  // Euclidean DBSCAN at ε=90 would still separate y=0 from y=400 here —
  // use a generous ε to make the contrast explicit.
  DbscanParams wide{450.0, 3};
  Clustering euclid = Dbscan(s, wide);
  EXPECT_EQ(euclid.clusters.size(), 1u) << "Euclidean merges the avenues";

  Clustering network = NetworkDbscan(s, g, wide);
  // Network distance between the avenues is ≥ 400 + detour ≥ 700 — with
  // ε=450... the straight-across pair is 150+400+150? Check: object at
  // x=150,y=0 to x=150,y=400: nearest junctions at x=0/x=400:
  // 150+400+150 = 700 > 450 → separate clusters.
  EXPECT_EQ(network.clusters.size(), 2u)
      << "network keeps the avenues apart";
  EXPECT_EQ(network.clusters[0], (ObjectSet{0, 1, 2, 3}));
  EXPECT_EQ(network.clusters[1], (ObjectSet{10, 11, 12, 13}));
  (void)params;
}

TEST(NetworkDbscanTest, ConnectsAroundCorners) {
  // Objects straddling an intersection: Euclidean diagonal distance is
  // large, but along-road distance through the corner is short.
  RoadGraph g = RoadGraph::Grid(3, 3, 400.0);
  Snapshot s = MakeSnapshot({{0, 380.0, 0.0},    // west of corner (400,0)
                             {1, 400.0, 20.0},   // north of the corner
                             {2, 400.0, 45.0},
                             {3, 360.0, 0.0}});
  Clustering c = NetworkDbscan(s, g, DbscanParams{42.0, 2});
  ASSERT_EQ(c.clusters.size(), 1u);
  EXPECT_EQ(c.clusters[0], (ObjectSet{0, 1, 2, 3}));
}

class NetworkDbscanOracleSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, int>> {
};

TEST_P(NetworkDbscanOracleSweep, MatchesBruteForceAcrossParams) {
  auto [seed, eps, mu] = GetParam();
  RoadGraph g = RoadGraph::Grid(5, 4, 300.0);
  Pcg32 rng(seed);
  std::vector<ObjectPosition> pos;
  for (ObjectId o = 0; o < 35; ++o) {
    double x = rng.NextDouble(0, 1200);
    double y = std::floor(rng.NextDouble(0, 4)) * 300.0 +
               rng.NextDouble(-5, 5);
    pos.push_back(ObjectPosition{o, Point{x, y}});
  }
  Snapshot s(pos, 1.0);
  DbscanParams params{eps, mu};
  Clustering got = NetworkDbscan(s, g, params);

  const size_t n = s.size();
  std::vector<NetworkPosition> np(n);
  for (size_t i = 0; i < n; ++i) np[i] = g.Snap(s.pos(i));
  std::vector<std::vector<uint32_t>> nbrs(n);
  for (uint32_t i = 0; i < n; ++i) {
    nbrs[i].push_back(i);
    for (uint32_t j = 0; j < n; ++j) {
      if (j != i &&
          g.NetworkDistance(np[i], np[j], eps) <= eps) {
        nbrs[i].push_back(j);
      }
    }
    std::sort(nbrs[i].begin(), nbrs[i].end());
  }
  Clustering want = testing_util::RowFinisher(
      s, testing_util::CoreFromRows(nbrs, mu), nbrs);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.clusters, want.clusters);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetworkDbscanOracleSweep,
    ::testing::Values(std::make_tuple(uint64_t{17}, 100.0, 3),
                      std::make_tuple(uint64_t{18}, 60.0, 2),
                      std::make_tuple(uint64_t{19}, 200.0, 4),
                      std::make_tuple(uint64_t{20}, 350.0, 3),
                      std::make_tuple(uint64_t{21}, 40.0, 2)));

TEST(NetworkDbscanTest, MatchesBruteForceNetworkDistances) {
  // Oracle: neighbors via pairwise NetworkDistance, same core/label spec.
  RoadGraph g = RoadGraph::Grid(5, 4, 300.0);
  Pcg32 rng(17);
  std::vector<ObjectPosition> pos;
  for (ObjectId o = 0; o < 40; ++o) {
    // Points near roads (snap resolves them deterministically).
    double x = rng.NextDouble(0, 1200);
    double y = std::floor(rng.NextDouble(0, 4)) * 300.0 +
               rng.NextDouble(-5, 5);
    pos.push_back(ObjectPosition{o, Point{x, y}});
  }
  Snapshot s(pos, 1.0);
  DbscanParams params{100.0, 3};

  Clustering got = NetworkDbscan(s, g, params);

  // Brute force.
  const size_t n = s.size();
  std::vector<NetworkPosition> np(n);
  for (size_t i = 0; i < n; ++i) np[i] = g.Snap(s.pos(i));
  std::vector<std::vector<uint32_t>> nbrs(n);
  for (uint32_t i = 0; i < n; ++i) {
    nbrs[i].push_back(i);
    for (uint32_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (g.NetworkDistance(np[i], np[j], params.epsilon) <=
          params.epsilon) {
        nbrs[i].push_back(j);
      }
    }
    std::sort(nbrs[i].begin(), nbrs[i].end());
  }
  Clustering want = testing_util::RowFinisher(
      s, testing_util::CoreFromRows(nbrs, params.mu), nbrs);

  EXPECT_EQ(got.core, want.core);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.clusters, want.clusters);
}

TEST(NetworkDbscanTest, StatsPopulated) {
  RoadGraph g = RoadGraph::Grid(3, 3, 200.0);
  Snapshot s = MakeSnapshot({{0, 10, 0}, {1, 30, 0}, {2, 50, 0}});
  NetworkDbscanStats stats;
  NetworkDbscan(s, g, DbscanParams{30.0, 2}, &stats);
  EXPECT_EQ(stats.snap_operations, 3);
  EXPECT_EQ(stats.expansions, 3);
  EXPECT_GT(stats.distance_evaluations, 0);
}

TEST(NetworkTrafficTest, GeneratorShapeAndDeterminism) {
  NetworkTrafficOptions options;
  options.num_vehicles = 60;
  options.num_snapshots = 20;
  options.seed = 5;
  NetworkTrafficDataset a = GenerateNetworkTraffic(options);
  NetworkTrafficDataset b = GenerateNetworkTraffic(options);
  ASSERT_EQ(a.stream.size(), 20u);
  EXPECT_EQ(a.stream[0].size(), 60u);
  EXPECT_FALSE(a.ground_truth.empty());
  for (size_t t = 0; t < a.stream.size(); ++t) {
    for (size_t i = 0; i < a.stream[t].size(); ++i) {
      EXPECT_DOUBLE_EQ(a.stream[t].pos(i).x, b.stream[t].pos(i).x);
    }
  }
}

TEST(NetworkTrafficTest, PlatoonsStayOnRoadAndTogether) {
  NetworkTrafficOptions options;
  options.num_vehicles = 80;
  options.num_snapshots = 30;
  options.seed = 8;
  NetworkTrafficDataset data = GenerateNetworkTraffic(options);
  // Every position snaps close to a road.
  const Snapshot& s = data.stream[15];
  for (size_t i = 0; i < s.size(); ++i) {
    double d;
    data.graph.Snap(s.pos(i), &d);
    EXPECT_LT(d, 20.0);
  }
  // Follower 1 of the first platoon trails its leader by ≈ headway.
  const ObjectSet& platoon = data.ground_truth[0];
  ASSERT_GE(platoon.size(), 2u);
  Point lead = s.pos(s.IndexOf(platoon[0]));
  Point follow = s.pos(s.IndexOf(platoon[1]));
  EXPECT_LT(Distance(lead, follow), 4.0 * options.headway);
}

TEST(NetworkDiscovererTest, FindsPlatoonsViaNetworkClustering) {
  NetworkTrafficOptions options;
  options.num_vehicles = 120;
  options.num_snapshots = 40;
  options.platoon_size_min = 5;
  options.platoon_size_max = 9;
  options.seed = 12;
  NetworkTrafficDataset data = GenerateNetworkTraffic(options);

  DiscoveryParams params;
  params.cluster.epsilon = 40.0;  // covers headway chains, not strangers
  params.cluster.mu = 3;
  params.size_threshold = 5;
  params.duration_threshold = 12;

  auto discoverer = MakeNetworkDiscoverer(data.graph, params);
  for (const Snapshot& s : data.stream) {
    discoverer->ProcessSnapshot(s, nullptr);
  }
  // Most platoons of qualifying size must be found.
  int qualifying = 0, found = 0;
  for (const ObjectSet& platoon : data.ground_truth) {
    if (platoon.size() < static_cast<size_t>(params.size_threshold)) {
      continue;
    }
    ++qualifying;
    for (const Companion& c : discoverer->log().companions()) {
      if (std::includes(c.objects.begin(), c.objects.end(),
                        platoon.begin(), platoon.end())) {
        ++found;
        break;
      }
    }
  }
  ASSERT_GT(qualifying, 0);
  EXPECT_GE(found * 10, qualifying * 8);  // ≥80%
}

}  // namespace
}  // namespace tcomp
