#include "core/buddy_clustering.h"

#include <gtest/gtest.h>

#include "core/dbscan.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace tcomp {
namespace {

using testing_util::ClusteredSnapshot;
using testing_util::MakeSnapshot;
using testing_util::RandomSnapshot;

/// The central correctness property of Algorithm 4: buddy-based clustering
/// produces exactly the reference DBSCAN clustering — Lemmas 2–4 are
/// pruning rules, not approximations.
void ExpectMatchesDbscan(const Snapshot& s, const DbscanParams& params,
                         double buddy_radius) {
  BuddySet buddies(buddy_radius);
  buddies.Initialize(s);
  BuddyClusteringStats stats;
  Clustering got = BuddyBasedClustering(s, buddies, params, &stats);
  Clustering want = Dbscan(s, params);
  EXPECT_EQ(got.core, want.core);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.clusters, want.clusters);
}

TEST(BuddyClusteringTest, MatchesDbscanOnTinyExample) {
  Snapshot s = MakeSnapshot({{0, 0.0, 0.0},
                             {1, 0.4, 0.0},
                             {2, 0.8, 0.0},
                             {3, 5.0, 5.0},
                             {4, 5.4, 5.0},
                             {5, 5.8, 5.0},
                             {6, 20.0, 20.0}});
  ExpectMatchesDbscan(s, DbscanParams{0.5, 3}, 0.25);
}

TEST(BuddyClusteringTest, MatchesDbscanAfterMaintenance) {
  // Run maintenance over a drifting population, then compare clusterings
  // (the buddy set is in its realistic mid-stream state, with conservative
  // radii from merges).
  Pcg32 rng(5);
  const int n = 60;
  std::vector<Point> pos(n);
  for (int i = 0; i < n; ++i) {
    pos[i] = Point{rng.NextDouble(0, 30), rng.NextDouble(0, 30)};
  }
  auto snap = [&]() {
    std::vector<ObjectPosition> p;
    for (int i = 0; i < n; ++i) {
      p.push_back(ObjectPosition{static_cast<ObjectId>(i), pos[i]});
    }
    return Snapshot(std::move(p), 1.0);
  };
  BuddySet buddies(1.0);
  Snapshot s = snap();
  buddies.Initialize(s);
  DbscanParams params{2.0, 3};
  for (int t = 0; t < 15; ++t) {
    for (int i = 0; i < n; ++i) {
      pos[i].x += rng.NextDouble(-0.8, 0.8);
      pos[i].y += rng.NextDouble(-0.8, 0.8);
    }
    s = snap();
    buddies.Update(s, nullptr);
    Clustering got = BuddyBasedClustering(s, buddies, params);
    Clustering want = Dbscan(s, params);
    EXPECT_EQ(got.labels, want.labels) << "snapshot " << t;
    EXPECT_EQ(got.clusters, want.clusters) << "snapshot " << t;
  }
}

class BuddyClusteringSweep
    : public ::testing::TestWithParam<
          std::tuple<int, double, int, double>> {};

TEST_P(BuddyClusteringSweep, EqualsDbscanOnRandomSnapshots) {
  auto [n, eps, mu, gamma_frac] = GetParam();
  for (uint64_t seed = 50; seed < 56; ++seed) {
    Pcg32 rng(seed);
    Snapshot s = RandomSnapshot(n, 12.0, rng);
    DbscanParams params{eps, mu};
    ExpectMatchesDbscan(s, params, eps * gamma_frac);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BuddyClusteringSweep,
    ::testing::Values(std::make_tuple(40, 1.0, 3, 0.5),
                      std::make_tuple(80, 0.8, 2, 0.5),
                      std::make_tuple(120, 1.2, 4, 0.25),
                      std::make_tuple(150, 0.6, 5, 0.1),
                      std::make_tuple(60, 2.0, 3, 0.5)));

TEST(BuddyClusteringTest, EqualsDbscanOnClusteredData) {
  for (uint64_t seed = 61; seed < 66; ++seed) {
    Pcg32 rng(seed);
    Snapshot s = ClusteredSnapshot(5, 18, 15, 80.0, 1.2, rng);
    ExpectMatchesDbscan(s, DbscanParams{2.5, 4}, 1.25);
  }
}

TEST(BuddyClusteringTest, Lemma3PrunesFarPairs) {
  // Two dense blobs far apart: most cross-buddy pairs must be pruned
  // without object-level distance work.
  Pcg32 rng(8);
  Snapshot s = ClusteredSnapshot(8, 12, 0, 400.0, 1.0, rng);
  BuddySet buddies(1.0);
  buddies.Initialize(s);
  BuddyClusteringStats stats;
  BuddyBasedClustering(s, buddies, DbscanParams{2.0, 3}, &stats);
  ASSERT_GT(stats.pairs_checked, 0);
  double prune_rate = static_cast<double>(stats.pairs_pruned) /
                      static_cast<double>(stats.pairs_checked);
  // The paper reports >80% pruning; well-separated blobs prune nearly all.
  EXPECT_GT(prune_rate, 0.8);
}

TEST(BuddyClusteringTest, Lemma2MarksTightBuddiesCore) {
  // One tight buddy of 6 objects (radius << ε/2), μ=4: Lemma 2 applies and
  // no object-level core counting is needed for them.
  Snapshot s = MakeSnapshot({{0, 0.00, 0.0},
                             {1, 0.05, 0.0},
                             {2, 0.10, 0.0},
                             {3, 0.00, 0.05},
                             {4, 0.05, 0.05},
                             {5, 0.10, 0.05}});
  BuddySet buddies(0.5);
  buddies.Initialize(s);
  ASSERT_EQ(buddies.buddies().size(), 1u);
  BuddyClusteringStats stats;
  Clustering c = BuddyBasedClustering(s, buddies, DbscanParams{1.0, 4},
                                      &stats);
  EXPECT_EQ(stats.lemma2_buddies, 1);
  ASSERT_EQ(c.clusters.size(), 1u);
  for (size_t i = 0; i < s.size(); ++i) EXPECT_TRUE(c.core[i]);
}

TEST(BuddyClusteringTest, DistanceOpsBelowQuadratic) {
  // The headline efficiency claim: buddy clustering does far fewer
  // object-level distance computations than the O(n²) baseline on
  // clustered data.
  Pcg32 rng(9);
  Snapshot s = ClusteredSnapshot(10, 20, 20, 500.0, 1.0, rng);
  BuddySet buddies(1.25);
  buddies.Initialize(s);
  BuddyClusteringStats stats;
  BuddyBasedClustering(s, buddies, DbscanParams{2.5, 4}, &stats);
  int64_t quadratic =
      static_cast<int64_t>(s.size()) * (static_cast<int64_t>(s.size()) - 1) /
      2;
  EXPECT_LT(stats.distance_ops, quadratic / 4);
}

/// Lemma 3 by brute force over every pair of buddies with a member in
/// the snapshot: the sweep must hand the test every pair it would keep,
/// so the pruned count is exactly the all-pairs count.
void ExpectLemma3Counts(const Snapshot& s, const BuddySet& buddies,
                        const DbscanParams& params) {
  std::vector<const Buddy*> present;
  for (const Buddy& b : buddies.buddies()) {
    for (ObjectId o : b.members) {
      if (s.IndexOf(o) != Snapshot::kNpos) {
        present.push_back(&b);
        break;
      }
    }
  }
  int64_t checked = 0;
  int64_t pruned = 0;
  for (size_t a = 0; a < present.size(); ++a) {
    for (size_t b = a + 1; b < present.size(); ++b) {
      ++checked;
      const double d = Distance(present[a]->center(), present[b]->center());
      if (d - present[a]->radius - present[b]->radius > params.epsilon) {
        ++pruned;
      }
    }
  }
  BuddyClusteringStats stats;
  BuddyBasedClustering(s, buddies, params, &stats);
  EXPECT_EQ(stats.pairs_checked, checked);
  EXPECT_EQ(stats.pairs_pruned, pruned);
}

TEST(BuddyClusteringTest, PairsPrunedMatchesBruteForceLemma3) {
  for (uint64_t seed = 71; seed < 75; ++seed) {
    Pcg32 rng(seed);
    Snapshot s = ClusteredSnapshot(6, 15, 40, 60.0, 1.5, rng);
    const DbscanParams params{2.5, 4};
    BuddySet buddies(1.25);
    buddies.Initialize(s);
    ExpectLemma3Counts(s, buddies, params);
    // Mid-stream buddies carry merge-bound radii and absent members.
    std::vector<ObjectPosition> moved;
    for (size_t i = 0; i + 5 < s.size(); ++i) {
      moved.push_back(ObjectPosition{
          s.id(i), Point{s.pos(i).x + rng.NextDouble(-1.0, 1.0),
                         s.pos(i).y + rng.NextDouble(-1.0, 1.0)}});
    }
    Snapshot next(std::move(moved), 1.0);
    buddies.Update(next, nullptr);
    ExpectLemma3Counts(next, buddies, params);
  }
}

TEST(BuddyClusteringTest, EqualsDbscanAtLargeOffsets) {
  for (uint64_t seed = 81; seed < 84; ++seed) {
    for (double offset : {1e12, -1e12}) {
      Pcg32 rng(seed);
      Snapshot base = ClusteredSnapshot(5, 18, 15, 80.0, 1.2, rng);
      std::vector<ObjectPosition> shifted;
      for (size_t i = 0; i < base.size(); ++i) {
        shifted.push_back(ObjectPosition{
            base.id(i),
            Point{base.pos(i).x + offset, base.pos(i).y + offset}});
      }
      Snapshot s(std::move(shifted), 1.0);
      ExpectMatchesDbscan(s, DbscanParams{2.5, 4}, 1.25);
      BuddySet buddies(1.25);
      buddies.Initialize(s);
      ExpectLemma3Counts(s, buddies, DbscanParams{2.5, 4});
    }
  }
}

TEST(BuddyClusteringTest, EqualsDbscanAtExactLemma3Boundary) {
  // ε = 2, δγ = 0.5. Buddies {0,1} and {2,3} (γ = 0.5) have centers
  // exactly ε + γi + γj = 3 apart, as do the singleton {4} (γ = 0) and
  // {5,6} (γ = 0.5) at 2.5: the facing members sit exactly ε apart and
  // join one cluster, so a sweep that dropped the boundary pair would
  // split it.
  Snapshot s = MakeSnapshot({{0, 0.0, 0.0},
                             {1, 1.0, 0.0},
                             {2, 3.0, 0.0},
                             {3, 4.0, 0.0},
                             {4, 10.0, 0.0},
                             {5, 12.0, 0.0},
                             {6, 13.0, 0.0}});
  const DbscanParams params{2.0, 2};
  BuddySet buddies(0.5);
  buddies.Initialize(s);
  ASSERT_EQ(buddies.buddies().size(), 4u);
  ExpectMatchesDbscan(s, params, 0.5);
  ExpectLemma3Counts(s, buddies, params);
  Clustering c = BuddyBasedClustering(s, buddies, params);
  EXPECT_EQ(c.clusters,
            (std::vector<ObjectSet>{{0, 1, 2, 3}, {4, 5, 6}}));
}

TEST(BuddyClusteringTest, EmptySnapshot) {
  BuddySet buddies(1.0);
  Snapshot s;
  buddies.Initialize(s);
  Clustering c = BuddyBasedClustering(s, buddies, DbscanParams{1.0, 3});
  EXPECT_TRUE(c.clusters.empty());
}

}  // namespace
}  // namespace tcomp
