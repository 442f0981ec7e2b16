#include "core/dbscan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "tests/test_util.h"
#include "util/random.h"

namespace tcomp {
namespace {

using testing_util::ClusteredSnapshot;
using testing_util::MakeSnapshot;
using testing_util::RandomSnapshot;

TEST(DbscanTest, EmptySnapshot) {
  Clustering c = Dbscan(Snapshot(), DbscanParams{1.0, 3});
  EXPECT_TRUE(c.clusters.empty());
  EXPECT_TRUE(c.labels.empty());
}

TEST(DbscanTest, SingleTightCluster) {
  // Five objects within ε of each other, μ=3: one cluster, all core.
  Snapshot s = MakeSnapshot({{0, 0.0, 0.0},
                             {1, 0.1, 0.0},
                             {2, 0.0, 0.1},
                             {3, 0.1, 0.1},
                             {4, 0.05, 0.05}});
  Clustering c = Dbscan(s, DbscanParams{0.5, 3});
  ASSERT_EQ(c.clusters.size(), 1u);
  EXPECT_EQ(c.clusters[0], (ObjectSet{0, 1, 2, 3, 4}));
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_TRUE(c.core[i]);
    EXPECT_EQ(c.labels[i], 0);
  }
}

TEST(DbscanTest, NoisePointsGetMinusOne) {
  Snapshot s = MakeSnapshot({{0, 0.0, 0.0},
                             {1, 0.1, 0.0},
                             {2, 0.2, 0.0},
                             {3, 100.0, 100.0}});
  Clustering c = Dbscan(s, DbscanParams{0.5, 3});
  ASSERT_EQ(c.clusters.size(), 1u);
  EXPECT_EQ(c.clusters[0], (ObjectSet{0, 1, 2}));
  EXPECT_EQ(c.labels[3], -1);
  EXPECT_FALSE(c.core[3]);
}

TEST(DbscanTest, TwoSeparateClusters) {
  Snapshot s = MakeSnapshot({{0, 0.0, 0.0},
                             {1, 0.2, 0.0},
                             {2, 0.4, 0.0},
                             {3, 10.0, 0.0},
                             {4, 10.2, 0.0},
                             {5, 10.4, 0.0}});
  Clustering c = Dbscan(s, DbscanParams{0.5, 3});
  ASSERT_EQ(c.clusters.size(), 2u);
  EXPECT_EQ(c.clusters[0], (ObjectSet{0, 1, 2}));
  EXPECT_EQ(c.clusters[1], (ObjectSet{3, 4, 5}));
}

TEST(DbscanTest, ChainedDensityConnection) {
  // A chain where consecutive points are within ε: all core (μ=2 with
  // self counts 3 along the chain interior), one cluster.
  Snapshot s = MakeSnapshot({{0, 0.0, 0.0},
                             {1, 0.4, 0.0},
                             {2, 0.8, 0.0},
                             {3, 1.2, 0.0},
                             {4, 1.6, 0.0}});
  Clustering c = Dbscan(s, DbscanParams{0.5, 2});
  ASSERT_EQ(c.clusters.size(), 1u);
  EXPECT_EQ(c.clusters[0], (ObjectSet{0, 1, 2, 3, 4}));
}

TEST(DbscanTest, BorderPointAttachesToLowestIndexCore) {
  // Object 4 is a border point within ε of cores from cluster {0,1,2}.
  // With μ=4, object 4 (3 neighbors incl. self) is not core.
  Snapshot s = MakeSnapshot({{0, 0.0, 0.0},
                             {1, 0.1, 0.0},
                             {2, 0.2, 0.0},
                             {3, 0.3, 0.0},
                             {4, 0.75, 0.0}});
  Clustering c = Dbscan(s, DbscanParams{0.5, 4});
  ASSERT_EQ(c.clusters.size(), 1u);
  EXPECT_FALSE(c.core[4]);
  EXPECT_EQ(c.labels[4], 0);
}

TEST(DbscanTest, IndividualSensitivityExample4) {
  // Paper Example 4: a small movement of one object merges two clusters.
  // μ=3. Two clusters of 3, bridge object 6 between them but too far in
  // snapshot 1; in snapshot 2 it moves south and links them.
  auto base = [](double bridge_y) {
    return MakeSnapshot({{0, 0.0, 0.0},
                         {1, 0.4, 0.0},
                         {2, 0.2, 0.3},
                         {3, 2.0, 0.0},
                         {4, 2.4, 0.0},
                         {5, 2.2, 0.3},
                         {6, 1.2, bridge_y}});
  };
  Clustering before = Dbscan(base(5.0), DbscanParams{0.9, 3});
  EXPECT_EQ(before.clusters.size(), 2u);
  Clustering after = Dbscan(base(0.0), DbscanParams{0.9, 3});
  ASSERT_EQ(after.clusters.size(), 1u);
  EXPECT_EQ(after.clusters[0], (ObjectSet{0, 1, 2, 3, 4, 5, 6}));
}

TEST(DbscanTest, CountsDistanceOps) {
  Pcg32 rng(5);
  Snapshot s = RandomSnapshot(20, 10.0, rng);
  int64_t ops = 0;
  Dbscan(s, DbscanParams{1.0, 3}, &ops);
  EXPECT_EQ(ops, 20 * 19 / 2);
}

/// Brute-force reference implementation: core = |N_ε| ≥ μ (with self);
/// clusters = connected components of cores over ≤ε links; borders attach
/// to lowest-index core neighbor.
Clustering ReferenceDbscan(const Snapshot& s, const DbscanParams& p) {
  const size_t n = s.size();
  std::vector<std::vector<uint32_t>> nbrs(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      if (Distance(s.pos(i), s.pos(j)) <= p.epsilon) nbrs[i].push_back(j);
    }
  }
  return testing_util::RowFinisher(s, testing_util::CoreFromRows(nbrs, p.mu),
                                   nbrs);
}

class DbscanEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(DbscanEquivalenceTest, GridMatchesReferenceOnRandomData) {
  auto [n, eps, mu] = GetParam();
  for (uint64_t seed = 100; seed < 106; ++seed) {
    Pcg32 rng(seed);
    Snapshot s = RandomSnapshot(n, 10.0, rng);
    DbscanParams params{eps, mu};
    Clustering ref = ReferenceDbscan(s, params);
    Clustering plain = Dbscan(s, params);
    Clustering grid = DbscanGrid(s, params);
    EXPECT_EQ(plain.labels, ref.labels) << "seed " << seed;
    EXPECT_EQ(plain.clusters, ref.clusters) << "seed " << seed;
    EXPECT_EQ(grid.labels, ref.labels) << "seed " << seed;
    EXPECT_EQ(grid.clusters, ref.clusters) << "seed " << seed;
    EXPECT_EQ(grid.core, ref.core) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DbscanEquivalenceTest,
    ::testing::Values(std::make_tuple(30, 1.0, 3),
                      std::make_tuple(60, 0.8, 2),
                      std::make_tuple(120, 1.5, 4),
                      std::make_tuple(200, 0.5, 5),
                      std::make_tuple(80, 2.5, 3)));

TEST(DbscanTest, GridMatchesPlainOnClusteredData) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Pcg32 rng(seed);
    Snapshot s = ClusteredSnapshot(6, 15, 20, 100.0, 1.0, rng);
    DbscanParams params{2.0, 4};
    Clustering plain = Dbscan(s, params);
    Clustering grid = DbscanGrid(s, params);
    EXPECT_EQ(plain.labels, grid.labels);
    EXPECT_EQ(plain.clusters, grid.clusters);
  }
}

TEST(DbscanTest, ClustersArePartition) {
  Pcg32 rng(77);
  Snapshot s = ClusteredSnapshot(4, 20, 10, 50.0, 1.0, rng);
  Clustering c = Dbscan(s, DbscanParams{2.0, 3});
  std::map<ObjectId, int> seen;
  for (const ObjectSet& cluster : c.clusters) {
    for (ObjectId o : cluster) ++seen[o];
  }
  for (const auto& [oid, count] : seen) {
    EXPECT_EQ(count, 1) << "object " << oid << " in multiple clusters";
  }
  // Labels agree with cluster membership.
  for (size_t i = 0; i < s.size(); ++i) {
    if (c.labels[i] >= 0) {
      const ObjectSet& cluster =
          c.clusters[static_cast<size_t>(c.labels[i])];
      EXPECT_TRUE(std::binary_search(cluster.begin(), cluster.end(),
                                     s.id(i)));
    } else {
      EXPECT_EQ(seen.count(s.id(i)), 0u);
    }
  }
}

/// The table finisher against the row-based one it replaced, on random
/// neighbor graphs: symmetric rows (every ε-backend) and directed ones
/// (network distance), with isolated points and μ ∈ {1, 2, 3, 5}. The
/// table gets each row shuffled — it must not depend on row order — and
/// the oracle gets it sorted, as it requires.
TEST(FinisherOracleTest, TableMatchesRowFinisherOnRandomGraphs) {
  Pcg32 rng(4242);
  for (int trial = 0; trial < 120; ++trial) {
    const uint32_t n = 1 + rng.NextBounded(300);
    const bool symmetric = trial % 2 == 0;
    // Mean degree from ~0.5 to ~8, so sparse trials leave many points
    // isolated and dense ones merge most of the graph.
    const double p = rng.NextDouble(0.5, 8.0) / n;
    std::vector<bool> isolated(n);
    for (uint32_t i = 0; i < n; ++i) isolated[i] = rng.NextBounded(10) == 0;
    std::vector<std::vector<uint32_t>> rows(n);
    for (uint32_t i = 0; i < n; ++i) rows[i].push_back(i);
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = symmetric ? i + 1 : 0; j < n; ++j) {
        if (j == i || isolated[i] || isolated[j] || rng.NextDouble() >= p) {
          continue;
        }
        rows[i].push_back(j);
        if (symmetric) rows[j].push_back(i);
      }
    }
    std::vector<ObjectPosition> pos;
    for (uint32_t i = 0; i < n; ++i) {
      pos.push_back(ObjectPosition{3 * i + 7, Point{0.0, 0.0}});
    }
    const Snapshot s(pos, 1.0);
    std::vector<std::vector<uint32_t>> shuffled = rows;
    for (std::vector<uint32_t>& row : shuffled) {
      for (size_t k = row.size(); k > 1; --k) {
        std::swap(row[k - 1], row[rng.NextBounded(static_cast<uint32_t>(k))]);
      }
    }
    for (std::vector<uint32_t>& row : rows) std::sort(row.begin(), row.end());
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> entries;
    const NeighborTable table =
        testing_util::TableFromRows(shuffled, &offsets, &entries);
    for (int mu : {1, 2, 3, 5}) {
      const Clustering want = testing_util::RowFinisher(
          s, testing_util::CoreFromRows(rows, mu), rows);
      const Clustering got = internal::BuildClusteringFromCores(s, table, mu);
      EXPECT_EQ(got.labels, want.labels) << "trial " << trial << " mu " << mu;
      EXPECT_EQ(got.core, want.core) << "trial " << trial << " mu " << mu;
      EXPECT_EQ(got.clusters, want.clusters)
          << "trial " << trial << " mu " << mu;
    }
  }
}

}  // namespace
}  // namespace tcomp
