#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/buddy_discovery.h"
#include "core/discoverer.h"
#include "core/smart_closed.h"
#include "data/group_model.h"
#include "data/military_gen.h"
#include "tests/test_util.h"

namespace tcomp {
namespace {

std::set<ObjectSet> ReportedSets(const CompanionDiscoverer& d) {
  std::set<ObjectSet> out;
  for (const Companion& c : d.log().companions()) {
    out.insert(c.objects);
  }
  return out;
}

/// The paper's Section V-D claim, as an executable property: BU and SC
/// output identical companions (clusterings are identical and the atom
/// algebra exactly encodes the object-set algebra).
void ExpectBuEqualsSc(const SnapshotStream& stream,
                      const DiscoveryParams& params) {
  SmartClosedDiscoverer sc(params);
  BuddyDiscoverer bu(params);
  for (const Snapshot& s : stream) {
    sc.ProcessSnapshot(s, nullptr);
    bu.ProcessSnapshot(s, nullptr);
  }
  EXPECT_EQ(ReportedSets(sc), ReportedSets(bu));
}

TEST(BuEquivalenceTest, GroupModelSmall) {
  GroupModelOptions options;
  options.num_objects = 120;
  options.num_snapshots = 40;
  options.area_size = 2000.0;
  options.min_group_size = 8;
  options.max_group_size = 15;
  options.seed = 5;
  GroupDataset data = GenerateGroupStream(options);

  DiscoveryParams params;
  params.cluster.epsilon = 12.0;
  params.cluster.mu = 4;
  params.size_threshold = 6;
  params.duration_threshold = 8;
  ExpectBuEqualsSc(data.stream, params);
}

class BuEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, int>> {};

TEST_P(BuEquivalenceSweep, GroupModelWithChurn) {
  auto [seed, leave_prob, size_threshold] = GetParam();
  GroupModelOptions options;
  options.num_objects = 100;
  options.num_snapshots = 30;
  options.area_size = 1500.0;
  options.min_group_size = 6;
  options.max_group_size = 12;
  options.leave_probability = leave_prob;
  options.split_probability = 0.02;  // aggressive churn
  options.seed = seed;
  GroupDataset data = GenerateGroupStream(options);

  DiscoveryParams params;
  params.cluster.epsilon = 12.0;
  params.cluster.mu = 3;
  params.size_threshold = size_threshold;
  params.duration_threshold = 6;
  ExpectBuEqualsSc(data.stream, params);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BuEquivalenceSweep,
    ::testing::Values(std::make_tuple(uint64_t{101}, 0.001, 5),
                      std::make_tuple(uint64_t{102}, 0.01, 4),
                      std::make_tuple(uint64_t{103}, 0.02, 6),
                      std::make_tuple(uint64_t{104}, 0.005, 3),
                      std::make_tuple(uint64_t{105}, 0.03, 5)));

TEST(BuEquivalenceTest, MilitaryScenario) {
  MilitaryOptions options;
  options.num_units = 120;
  options.num_teams = 5;
  options.num_snapshots = 40;
  MilitaryDataset data = GenerateMilitary(options);

  DiscoveryParams params;
  params.cluster.epsilon = 16.0;
  params.cluster.mu = 5;
  params.size_threshold = 10;
  params.duration_threshold = 10;
  ExpectBuEqualsSc(data.stream, params);
}

TEST(BuEquivalenceTest, BuCheaperOnStructuredData) {
  // This test asserts the paper's Lemma 2–4 cost relation against SC's
  // *full* per-snapshot re-clustering: Σ Dbscan distance ops over the
  // same snapshots, the paper's cost model.
  GroupModelOptions options;
  options.num_objects = 300;
  options.num_snapshots = 30;
  options.area_size = 5000.0;
  options.seed = 77;
  GroupDataset data = GenerateGroupStream(options);

  // ε is several× the in-group nearest-neighbor spacing, as in the
  // paper's setups — that is what gives buddies multiple members and the
  // lemmas leverage.
  DiscoveryParams params;
  params.cluster.epsilon = 20.0;
  params.cluster.mu = 4;
  params.size_threshold = 10;
  params.duration_threshold = 10;

  SmartClosedDiscoverer sc(params);
  BuddyDiscoverer bu(params);
  int64_t full_reclustering_ops = 0;
  for (const Snapshot& s : data.stream) {
    sc.ProcessSnapshot(s, nullptr);
    bu.ProcessSnapshot(s, nullptr);
    Dbscan(s, params.cluster, &full_reclustering_ops);
  }
  EXPECT_EQ(ReportedSets(sc), ReportedSets(bu));
  // BU does far less distance work (Lemmas 2–4). Space is comparable to
  // SC at this scale (the paper's large space wins are vs CI and SW).
  EXPECT_LT(bu.stats().distance_ops, full_reclustering_ops / 2);
  EXPECT_LT(bu.stats().candidate_objects_peak,
            sc.stats().candidate_objects_peak * 12 / 10);
}

TEST(BuddyDiscovererTest, ResetRestoresFreshState) {
  GroupModelOptions options;
  options.num_objects = 60;
  options.num_snapshots = 15;
  options.area_size = 1000.0;
  options.seed = 3;
  GroupDataset data = GenerateGroupStream(options);

  DiscoveryParams params;
  params.cluster.epsilon = 12.0;
  params.cluster.mu = 3;
  params.size_threshold = 5;
  params.duration_threshold = 5;

  BuddyDiscoverer bu(params);
  for (const Snapshot& s : data.stream) bu.ProcessSnapshot(s, nullptr);
  auto first = ReportedSets(bu);
  int64_t first_intersections = bu.stats().intersections;
  bu.Reset();
  EXPECT_EQ(bu.log().size(), 0u);
  for (const Snapshot& s : data.stream) bu.ProcessSnapshot(s, nullptr);
  EXPECT_EQ(ReportedSets(bu), first);
  EXPECT_EQ(bu.stats().intersections, first_intersections);
}

TEST(BuddyDiscovererTest, DefaultsBuddyRadiusToHalfEpsilon) {
  DiscoveryParams params;
  params.cluster.epsilon = 10.0;
  BuddyDiscoverer bu(params);
  EXPECT_DOUBLE_EQ(bu.buddy_radius(), 5.0);
  params.buddy_radius = 2.0;
  BuddyDiscoverer bu2(params);
  EXPECT_DOUBLE_EQ(bu2.buddy_radius(), 2.0);
}

TEST(DiscovererFactoryTest, MakesAllThree) {
  DiscoveryParams params;
  params.cluster.epsilon = 1.0;
  params.cluster.mu = 3;
  for (Algorithm a : {Algorithm::kClusteringIntersection,
                      Algorithm::kSmartClosed, Algorithm::kBuddy}) {
    auto d = MakeDiscoverer(a, params);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->algorithm(), a);
  }
  EXPECT_EQ(std::string(AlgorithmName(Algorithm::kBuddy)), "BU");
  EXPECT_EQ(std::string(AlgorithmName(Algorithm::kSmartClosed)), "SC");
  EXPECT_EQ(
      std::string(AlgorithmName(Algorithm::kClusteringIntersection)),
      "CI");
}

}  // namespace
}  // namespace tcomp
