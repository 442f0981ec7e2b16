/// Differential proof that the word-parallel bitset kernels are a pure
/// optimization. BitsetProfitable picks the bitset path from each
/// snapshot's id density, so a dense-id stream and the same stream with
/// its ids spread far apart (SparsifyIds) run the bitset path and the
/// sorted-merge path over identical geometry. CI, SC, BU, and the convoy
/// baseline must produce the same companions (ids mapped back), the same
/// candidate-set sizes, and the same intersection and distance counters
/// in both kernel modes. The sparse streams are also checked against the
/// reference Dbscan provider, and checkpoints must resume identically in
/// either mode and across a mid-stream mode change.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "baselines/convoy.h"
#include "core/discoverer.h"
#include "data/group_model.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "tests/test_util.h"

namespace tcomp {
namespace {

using testing_util::NormalizedState;
using testing_util::ReferenceDbscanProvider;
using testing_util::SparsifyIds;

/// Pushes the id universe to ~10^7 for 90 objects — far below the
/// 1-member-per-word density bound, so every snapshot takes the merge
/// path.
constexpr ObjectId kStride = 120'001;

GroupDataset ChurnyStream(uint64_t seed) {
  GroupModelOptions options;
  options.num_objects = 90;
  options.num_snapshots = 32;
  options.area_size = 1600.0;
  options.min_group_size = 6;
  options.max_group_size = 12;
  options.split_probability = 0.015;
  options.leave_probability = 0.008;
  options.seed = seed;
  return GenerateGroupStream(options);
}

DiscoveryParams BaseParams() {
  DiscoveryParams params;
  params.cluster.epsilon = 18.0;
  params.cluster.mu = 3;
  params.size_threshold = 5;
  params.duration_threshold = 7;
  return params;
}

/// The id-free parts of a run: the companion log with every id divided by
/// `stride`, the product counters (what the paper's algorithms decide),
/// and the cost counters (what the clustering spent deciding it).
struct RunResult {
  std::vector<Companion> companions;
  std::string products;
  std::string costs;
};

RunResult RunDiscoverer(Algorithm algorithm, const SnapshotStream& stream,
                        const DiscoveryParams& params, ObjectId stride,
                        bool oracle_clustering, bool instrumented) {
  std::unique_ptr<CompanionDiscoverer> d = MakeDiscoverer(algorithm, params);
  if (oracle_clustering) {
    EXPECT_TRUE(d->SetClusterProvider(ReferenceDbscanProvider(params.cluster)));
  }
  // Stage timing rides along on one side only: the comparison then also
  // proves the observability sink never perturbs results.
  MetricsRegistry registry;
  MetricsStageSink sink(&registry);
  if (instrumented) d->set_stage_sink(&sink);
  for (const Snapshot& s : stream) d->ProcessSnapshot(s, nullptr);

  RunResult r;
  r.companions = d->log().companions();
  for (Companion& c : r.companions) {
    for (ObjectId& id : c.objects) {
      EXPECT_EQ(id % stride, 0u);
      id /= stride;
    }
  }
  const DiscoveryStats& st = d->stats();
  std::ostringstream products;
  products << st.snapshots << ' ' << st.intersections << ' '
           << st.candidate_objects_peak << ' ' << st.candidate_objects_last
           << ' ' << st.companions_reported << ' ' << st.buddy_pairs_checked
           << ' ' << st.buddy_pairs_pruned << ' ' << st.buddies_total << ' '
           << st.buddies_unchanged << ' ' << st.buddy_member_sum;
  r.products = products.str();
  std::ostringstream costs;
  costs << st.distance_ops << ' ' << st.cluster_reuse << ' '
        << st.cluster_dirty << ' ' << st.cluster_full_rebuilds;
  r.costs = costs.str();
  return r;
}

void ExpectSameCompanions(const std::vector<Companion>& want,
                          const std::vector<Companion>& got,
                          const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].objects, got[i].objects) << what << " companion " << i;
    EXPECT_EQ(want[i].duration, got[i].duration) << what << " companion " << i;
    EXPECT_EQ(want[i].snapshot_index, got[i].snapshot_index)
        << what << " companion " << i;
  }
}

class KernelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelDifferentialTest, DiscoverersByteIdenticalAcrossKernelModes) {
  GroupDataset data = ChurnyStream(GetParam());
  SnapshotStream sparse = SparsifyIds(data.stream, kStride);
  DiscoveryParams params = BaseParams();

  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed,
        Algorithm::kBuddy}) {
    const std::string name = AlgorithmName(algorithm);
    RunResult bitset =
        RunDiscoverer(algorithm, data.stream, params, 1, false, true);
    RunResult merge = RunDiscoverer(algorithm, sparse, params, kStride, false,
                                    false);
    EXPECT_GT(bitset.companions.size(), 0u) << "test wants companions";
    ExpectSameCompanions(bitset.companions, merge.companions, name);
    EXPECT_EQ(bitset.products, merge.products) << name;
    EXPECT_EQ(bitset.costs, merge.costs) << name;
  }
}

TEST_P(KernelDifferentialTest, SparseIdStreamsByteIdentical) {
  // Merge path plus the incremental clusterer's binary-search id lookup
  // (its dense id table is skipped at this density), against the
  // reference Dbscan provider.
  SnapshotStream sparse = SparsifyIds(ChurnyStream(GetParam()).stream,
                                      kStride);
  DiscoveryParams params = BaseParams();

  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed}) {
    const std::string name = AlgorithmName(algorithm);
    RunResult built_in =
        RunDiscoverer(algorithm, sparse, params, kStride, false, false);
    RunResult oracle =
        RunDiscoverer(algorithm, sparse, params, kStride, true, false);
    EXPECT_GT(oracle.companions.size(), 0u) << "test wants companions";
    ExpectSameCompanions(oracle.companions, built_in.companions, name);
    EXPECT_EQ(oracle.products, built_in.products) << name;
  }
}

TEST_P(KernelDifferentialTest, ConvoyBaselineIdenticalAcrossKernelModes) {
  GroupDataset data = ChurnyStream(GetParam());
  ConvoyParams params;
  params.cluster.epsilon = 18.0;
  params.cluster.mu = 3;
  params.min_objects = 5;
  params.min_lifetime = 7;

  // Instrumented on one side only — see RunDiscoverer.
  MetricsRegistry registry;
  MetricsStageSink sink(&registry);
  ConvoyStats stats_bitset;
  std::vector<Convoy> bitset =
      DiscoverConvoys(data.stream, params, &stats_bitset, &sink);
  ConvoyStats stats_merge;
  std::vector<Convoy> merge = DiscoverConvoys(
      SparsifyIds(data.stream, kStride), params, &stats_merge);

  EXPECT_FALSE(bitset.empty()) << "test wants convoys";
  ASSERT_EQ(bitset.size(), merge.size());
  for (size_t i = 0; i < bitset.size(); ++i) {
    ObjectSet mapped = merge[i].objects;
    for (ObjectId& id : mapped) id /= kStride;
    EXPECT_EQ(bitset[i].objects, mapped) << "convoy " << i;
    EXPECT_EQ(bitset[i].begin, merge[i].begin) << "convoy " << i;
    EXPECT_EQ(bitset[i].end, merge[i].end) << "convoy " << i;
  }
  EXPECT_EQ(stats_bitset.intersections, stats_merge.intersections);
  EXPECT_EQ(stats_bitset.peak_candidates, stats_merge.peak_candidates);
  EXPECT_EQ(stats_bitset.distance_ops, stats_merge.distance_ops);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         ::testing::Values(401, 402, 403, 404, 405));

/// Runs `stream` straight through, and again killed after `cut` snapshots
/// and resumed from the checkpoint in a fresh discoverer: both must end in
/// the same state.
void ExpectResumeReplays(Algorithm algorithm, const SnapshotStream& stream,
                         const DiscoveryParams& params, size_t cut) {
  std::unique_ptr<CompanionDiscoverer> first =
      MakeDiscoverer(algorithm, params);
  for (size_t t = 0; t < cut; ++t) {
    first->ProcessSnapshot(stream[t], nullptr);
  }
  std::stringstream checkpoint;
  ASSERT_TRUE(first->SaveState(checkpoint).ok());
  for (size_t t = cut; t < stream.size(); ++t) {
    first->ProcessSnapshot(stream[t], nullptr);
  }

  std::unique_ptr<CompanionDiscoverer> resumed =
      MakeDiscoverer(algorithm, params);
  ASSERT_TRUE(resumed->LoadState(checkpoint).ok());
  for (size_t t = cut; t < stream.size(); ++t) {
    resumed->ProcessSnapshot(stream[t], nullptr);
  }
  EXPECT_EQ(NormalizedState(*first), NormalizedState(*resumed))
      << AlgorithmName(algorithm);
}

/// Checkpoints must resume identically in both kernel modes: the bitsets
/// and signatures are derived state, never serialized, and are rebuilt
/// on load.
TEST(KernelCheckpointTest, StateRoundTripsAcrossKernelModes) {
  GroupDataset data = ChurnyStream(406);
  DiscoveryParams params = BaseParams();
  const SnapshotStream streams[] = {data.stream,
                                    SparsifyIds(data.stream, kStride)};
  for (const SnapshotStream& stream : streams) {
    for (Algorithm algorithm :
         {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed,
          Algorithm::kBuddy}) {
      ExpectResumeReplays(algorithm, stream, params, stream.size() / 2);
    }
  }
}

/// Regression for the BuddyIndex signature cache at checkpoint load: the
/// signatures rebuilt on load must serve whichever kernel mode the
/// snapshots after the resume select. A far-away object with a huge id
/// makes the universe sparse for a window around the checkpoint, so the
/// run switches bitset → merge before the save and merge → bitset after
/// the resume.
TEST(KernelCheckpointTest, ResumedSignaturesHonorCurrentKernelMode) {
  GroupDataset data = ChurnyStream(407);
  DiscoveryParams params = BaseParams();
  const size_t half = data.stream.size() / 2;
  const size_t three_quarters = data.stream.size() * 3 / 4;

  SnapshotStream stream;
  for (size_t t = 0; t < data.stream.size(); ++t) {
    const Snapshot& s = data.stream[t];
    std::vector<ObjectPosition> pos;
    for (size_t i = 0; i < s.size(); ++i) {
      pos.push_back(ObjectPosition{s.id(i), s.pos(i)});
    }
    if (t + 2 >= half && t < three_quarters) {
      pos.push_back(ObjectPosition{1'000'000, Point{-1e5, -1e5}});
    }
    stream.push_back(Snapshot(std::move(pos), s.duration()));
  }
  ExpectResumeReplays(Algorithm::kBuddy, stream, params, half);
}

}  // namespace
}  // namespace tcomp
