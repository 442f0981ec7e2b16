/// Differential proof that the dense-id I-step kernels — the label rows
/// of CI, SC and convoy, BU's label-table lookups — are a pure
/// optimization.
/// BitsetProfitable picks the dense path from each snapshot's id
/// density, so a dense-id stream and the same stream with its ids spread
/// far apart (SparsifyIds) run the dense path and the sorted-merge path
/// over identical geometry. CI, SC, BU, and the convoy baseline must
/// produce the same companions (ids mapped back), the same candidate-set
/// sizes, and the same intersection and distance counters in both kernel
/// modes, on random streams and on a hand-built one aimed at the edge
/// cases. The label-row kernel is checked against a scalar count. The
/// sparse streams are also checked against the reference Dbscan
/// provider, and checkpoints must resume identically in either mode and
/// across a mid-stream mode change.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/convoy.h"
#include "core/discoverer.h"
#include "data/group_model.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "tests/test_util.h"
#include "util/label_rows.h"
#include "util/random.h"

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

/// The dense stream (label rows and tables) against the same stream with
/// sparsified ids (sorted merges): same companions, products and costs.
void ExpectDiscoverersAgreeAcrossKernelModes(const SnapshotStream& stream) {
  SnapshotStream sparse = SparsifyIds(stream, kStride);
  DiscoveryParams params = BaseParams();

  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed,
        Algorithm::kBuddy}) {
    const std::string name = AlgorithmName(algorithm);
    RunResult dense = RunDiscoverer(algorithm, stream, params, 1, false, true);
    RunResult merge = RunDiscoverer(algorithm, sparse, params, kStride, false,
                                    false);
    EXPECT_GT(dense.companions.size(), 0u) << "test wants companions";
    ExpectSameCompanions(dense.companions, merge.companions, name);
    EXPECT_EQ(dense.products, merge.products) << name;
    EXPECT_EQ(dense.costs, merge.costs) << name;
  }
}

/// The convoy baseline over the same pair of streams.
void ExpectConvoysAgreeAcrossKernelModes(const SnapshotStream& stream) {
  ConvoyParams params;
  params.cluster.epsilon = 18.0;
  params.cluster.mu = 3;
  params.min_objects = 5;
  params.min_lifetime = 7;

  // Instrumented on one side only — see RunDiscoverer.
  MetricsRegistry registry;
  MetricsStageSink sink(&registry);
  ConvoyStats stats_dense;
  std::vector<Convoy> dense =
      DiscoverConvoys(stream, params, &stats_dense, &sink);
  ConvoyStats stats_merge;
  std::vector<Convoy> merge =
      DiscoverConvoys(SparsifyIds(stream, kStride), params, &stats_merge);

  EXPECT_FALSE(dense.empty()) << "test wants convoys";
  ASSERT_EQ(dense.size(), merge.size());
  for (size_t i = 0; i < dense.size(); ++i) {
    ObjectSet mapped = merge[i].objects;
    for (ObjectId& id : mapped) id /= kStride;
    EXPECT_EQ(dense[i].objects, mapped) << "convoy " << i;
    EXPECT_EQ(dense[i].begin, merge[i].begin) << "convoy " << i;
    EXPECT_EQ(dense[i].end, merge[i].end) << "convoy " << i;
  }
  EXPECT_EQ(stats_dense.intersections, stats_merge.intersections);
  EXPECT_EQ(stats_dense.peak_candidates, stats_merge.peak_candidates);
  EXPECT_EQ(stats_dense.distance_ops, stats_merge.distance_ops);
}

class KernelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelDifferentialTest, DiscoverersByteIdenticalAcrossKernelModes) {
  ExpectDiscoverersAgreeAcrossKernelModes(ChurnyStream(GetParam()).stream);
}

TEST_P(KernelDifferentialTest, SparseIdStreamsByteIdentical) {
  // Merge path with the built-in C-step, against the reference Dbscan
  // provider.
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
  ExpectConvoysAgreeAcrossKernelModes(ChurnyStream(GetParam()).stream);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         ::testing::Values(401, 402, 403, 404, 405));

/// A hand-built stream aimed at the label-row edge cases. Candidates
/// formed early meet snapshots in which some of their members
///  * have left, with ids both below and above the snapshot's largest id
///    (the label table's universe edge),
///  * are noise, or
///  * sit in a cluster smaller than δs,
/// while the rest stay together long enough to qualify.
SnapshotStream EdgeCaseStream() {
  constexpr int kSnapshots = 14;
  SnapshotStream stream;
  for (int t = 0; t < kSnapshots; ++t) {
    std::vector<ObjectPosition> pos;
    auto grid = [&](ObjectId id, int slot, double x0, double y0) {
      pos.push_back(ObjectPosition{
          id, Point{x0 + 4.0 * t + 3.0 * (slot % 4), y0 + 3.0 * (slot / 4)}});
    };
    // Group A, ids 0..15. Ids 0 and 1 leave at t = 6 (below the largest
    // id) and return at t = 11; at t >= 8 ids 2 and 3 are noise and ids
    // 4..7 form a cluster of 4 < δs far from the rest.
    for (ObjectId id = 0; id < 16; ++id) {
      const int slot = static_cast<int>(id);
      if (id <= 1 && t >= 6 && t < 11) continue;
      if (t >= 8 && (id == 2 || id == 3)) {
        pos.push_back(ObjectPosition{
            id, Point{1000.0 * (id - 1), 3000.0 - 1000.0 * (id - 1)}});
      } else if (t >= 8 && id >= 4 && id <= 7) {
        pos.push_back(ObjectPosition{
            id, Point{1500.0 + 2.0 * (id - 4) + t, 1500.0}});
      } else {
        grid(id, slot, 100.0, 100.0);
      }
    }
    // Group B, ids 20..29. Ids 28 and 29 leave at t = 6 and id 50 (a lone
    // noise object) stops reporting at the same time, so candidates then
    // hold ids above the snapshot's largest id, 27.
    for (ObjectId id = 20; id < 30; ++id) {
      if (id >= 28 && t >= 6) continue;
      grid(id, static_cast<int>(id - 20), 600.0, 600.0);
    }
    if (t < 6) pos.push_back(ObjectPosition{50, Point{2500.0, 2500.0}});
    stream.push_back(Snapshot(std::move(pos), 1.0));
  }
  return stream;
}

TEST(KernelEdgeCaseTest, HandBuiltStreamMatchesMergePath) {
  const SnapshotStream stream = EdgeCaseStream();
  // Every snapshot of the dense stream takes the label rows.
  for (const Snapshot& s : stream) {
    ASSERT_TRUE(BitsetProfitable(uint64_t{s.ids().back()} + 1, s.size()));
  }
  ExpectDiscoverersAgreeAcrossKernelModes(stream);
  ExpectConvoysAgreeAcrossKernelModes(stream);
}

/// The one density gate of every label-row path (util/label_rows.h).
TEST(DenseBitsetTest, ProfitabilityHeuristic) {
  EXPECT_FALSE(BitsetProfitable(0, 0));            // empty universe
  EXPECT_TRUE(BitsetProfitable(1000, 500));        // dense ids
  EXPECT_TRUE(BitsetProfitable(64, 1));            // 64 slots per member
  EXPECT_FALSE(BitsetProfitable(65, 1));           // too sparse
  EXPECT_FALSE(BitsetProfitable(kMaxBitsetUniverse + 1,
                                kMaxBitsetUniverse));  // capped
}

/// The label-row kernel against a scalar count. Row lengths 0–70 cover
/// every length modulo the vector width, also from an unaligned start;
/// L = 17 leaves a partial block of labels. Entries are -1 (no cluster)
/// and 0..L-1, half of them drawn from the first two labels so that
/// counts above one occur.
TEST(LabelRowKernelTest, CountLabelsMatchesScalarAcrossTails) {
  Pcg32 rng(408);
  for (int32_t num_labels : {0, 1, 17, 320}) {
    for (size_t n = 0; n <= 70; ++n) {
      std::vector<int32_t> row(n + 1);
      for (int32_t& label : row) {
        const uint32_t range =
            rng.NextBernoulli(0.5)
                ? static_cast<uint32_t>(std::min(num_labels, 2))
                : static_cast<uint32_t>(num_labels);
        label = static_cast<int32_t>(rng.NextBounded(range + 1)) - 1;
      }
      for (size_t offset : {size_t{0}, size_t{1}}) {
        const int32_t* begin = row.data() + offset;
        // One slot past the labels must stay untouched.
        std::vector<uint32_t> counts(static_cast<size_t>(num_labels) + 1,
                                     12345u);
        CountLabels(begin, n, static_cast<size_t>(num_labels),
                    counts.data());
        for (int32_t label = 0; label < num_labels; ++label) {
          uint32_t want = 0;
          for (size_t i = 0; i < n; ++i) want += begin[i] == label ? 1 : 0;
          ASSERT_EQ(counts[static_cast<size_t>(label)], want)
              << "n=" << n << " offset=" << offset << " label=" << label
              << " L=" << num_labels;
        }
        EXPECT_EQ(counts.back(), 12345u) << "wrote past num_labels";
      }
    }
  }
}

/// Table, gather, select and split on a small universe: ids at and
/// beyond the universe gather -1, selection keeps order, and a split
/// leaves ids and row in step.
TEST(LabelRowKernelTest, TableGatherSelectAndSplit) {
  LabelTable table;
  // A universe of 10 ids; a sparse one is refused.
  EXPECT_FALSE(table.Assign({0, 1000}, {{0, 1000}}));
  ASSERT_TRUE(table.Assign({0, 1, 2, 3, 4, 5, 9}, {{1, 4, 5}, {2, 9}}));
  const std::vector<uint32_t> ids = {0, 1, 2, 4, 5, 9, 10, 400};
  std::vector<int32_t> row;
  table.Gather(ids, &row);
  EXPECT_EQ(row, (std::vector<int32_t>{-1, 0, 1, 0, 0, 1, -1, -1}));

  std::vector<uint32_t> out;
  SelectLabel(ids, row, 0, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 4, 5}));
  SelectLabel(ids, row, 7, &out);
  EXPECT_TRUE(out.empty());

  std::vector<uint32_t> rest = ids;
  SplitLabel(&rest, &row, 1, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{2, 9}));
  EXPECT_EQ(rest, (std::vector<uint32_t>{0, 1, 4, 5, 10, 400}));
  EXPECT_EQ(row, (std::vector<int32_t>{-1, 0, 0, 0, -1, -1}));
  SplitLabel(&rest, &row, 5, &out);  // no match: nothing moves
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rest.size(), 6u);
  EXPECT_EQ(row.size(), 6u);
}

/// BU's one-id lookup agrees with Gather, -1 at and beyond the universe
/// included (the largest uint32 id too).
TEST(LabelRowKernelTest, SingleIdLookupMatchesGather) {
  LabelTable table;
  ASSERT_TRUE(table.Assign({0, 1, 2, 3, 4, 5, 9}, {{1, 4, 5}, {2, 9}}));
  const std::vector<uint32_t> ids = {0, 1, 2, 3, 8, 9, 10, 400, UINT32_MAX};
  std::vector<int32_t> row;
  table.Gather(ids, &row);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(table.Label(ids[i]), row[i]) << ids[i];
  }
  EXPECT_EQ(table.Label(9), 1);
  EXPECT_EQ(table.Label(10), -1);
  EXPECT_EQ(table.Label(UINT32_MAX), -1);
}

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

/// Checkpoints must resume identically in both kernel modes: the label
/// tables and signatures are derived state, never serialized, and are rebuilt
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
/// run switches table → merge before the save and merge → table after
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
