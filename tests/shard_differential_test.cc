// Serve-vs-batch differentials for the one parallel knob: --shards, the
// stripe count of every ε sweep (DbscanParams::threads). A pipeline
// serving with --shards ∈ {1, 2, 8} must emit companions byte-identical
// to the serial batch discover path, with the same counters, for every
// algorithm, and across a mid-stream kill + resume at a *different*
// count. Plus the convoy baseline at 1 ≡ 4 stripes, and a TSan hammer
// reading Stats()/MetricsText() while an 8-stripe pipeline ingests (this
// binary carries the tsan label).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/convoy.h"
#include "core/dbscan.h"
#include "core/discoverer.h"
#include "data/group_model.h"
#include "data/trajectory_io.h"
#include "eval/export.h"
#include "service/pipeline.h"
#include "stream/sliding_window.h"

namespace tcomp {
namespace {

constexpr double kSecondsPerSnapshot = 60.0;

/// 320 objects, so a snapshot runs the full 8 stripes of
/// kMinPointsPerStripe points.
GroupDataset ChurnyStream(uint64_t seed) {
  GroupModelOptions options;
  options.num_objects = 320;
  options.num_snapshots = 24;
  options.area_size = 3000.0;
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
  params.duration_threshold = 6;
  return params;
}

std::string CompanionsCsv(const std::vector<Companion>& companions) {
  std::ostringstream out;
  WriteCompanionsCsv(companions, out);
  return out.str();
}

/// The reference: the serial batch discover path. Its counters go to
/// `stats_out`, if given.
std::string BatchCsv(Algorithm algorithm,
                     const std::vector<TrajectoryRecord>& records,
                     DiscoveryStats* stats_out = nullptr) {
  auto discoverer = MakeDiscoverer(algorithm, BaseParams());
  SlidingWindowOptions wopts;
  wopts.window_length = kSecondsPerSnapshot;
  SlidingWindowSnapshotter window(wopts);
  std::vector<Snapshot> ready;
  for (const TrajectoryRecord& r : records) {
    EXPECT_TRUE(window.Push(r, &ready).ok());
    for (const Snapshot& s : ready) discoverer->ProcessSnapshot(s, nullptr);
    ready.clear();
  }
  window.Flush(&ready);
  for (const Snapshot& s : ready) discoverer->ProcessSnapshot(s, nullptr);
  if (stats_out != nullptr) *stats_out = discoverer->stats();
  return CompanionsCsv(discoverer->log().companions());
}

/// Every DiscoveryStats counter; the *_seconds fields are wall time and
/// are left out. The soa_* counters are not in the checkpoint and restart
/// from zero on resume, so `with_soa` is false where one run resumed.
void ExpectSameCounters(const DiscoveryStats& want, const DiscoveryStats& got,
                        const std::string& what, bool with_soa = true) {
  EXPECT_EQ(want.snapshots, got.snapshots) << what;
  EXPECT_EQ(want.intersections, got.intersections) << what;
  EXPECT_EQ(want.distance_ops, got.distance_ops) << what;
  EXPECT_EQ(want.candidate_objects_peak, got.candidate_objects_peak) << what;
  EXPECT_EQ(want.candidate_objects_last, got.candidate_objects_last) << what;
  EXPECT_EQ(want.companions_reported, got.companions_reported) << what;
  EXPECT_EQ(want.buddy_pairs_checked, got.buddy_pairs_checked) << what;
  EXPECT_EQ(want.buddy_pairs_pruned, got.buddy_pairs_pruned) << what;
  EXPECT_EQ(want.buddies_total, got.buddies_total) << what;
  EXPECT_EQ(want.buddies_unchanged, got.buddies_unchanged) << what;
  EXPECT_EQ(want.buddy_member_sum, got.buddy_member_sum) << what;
  EXPECT_EQ(want.cluster_reuse, got.cluster_reuse) << what;
  EXPECT_EQ(want.cluster_dirty, got.cluster_dirty) << what;
  EXPECT_EQ(want.cluster_full_rebuilds, got.cluster_full_rebuilds) << what;
  if (with_soa) {
    EXPECT_EQ(want.soa_lanes, got.soa_lanes) << what;
    EXPECT_EQ(want.soa_batches, got.soa_batches) << what;
  }
}

ServicePipelineOptions PipelineOptions(Algorithm algorithm, int shards) {
  ServicePipelineOptions opts;
  opts.algorithm = algorithm;
  opts.params = BaseParams();
  opts.window.window_length = kSecondsPerSnapshot;
  opts.queue_capacity = 64;
  opts.params.cluster.threads = shards;
  return opts;
}

std::string ServeCsv(Algorithm algorithm, int shards,
                     const std::vector<TrajectoryRecord>& records,
                     ServiceStats* stats_out = nullptr) {
  ServicePipeline pipeline(PipelineOptions(algorithm, shards));
  EXPECT_TRUE(pipeline.Start().ok());
  for (const TrajectoryRecord& r : records) {
    EXPECT_TRUE(pipeline.Ingest(r).ok());
  }
  EXPECT_TRUE(pipeline.Stop().ok());
  if (stats_out != nullptr) *stats_out = pipeline.Stats();
  return CompanionsCsv(pipeline.Companions());
}

class ShardDifferentialTest : public ::testing::TestWithParam<Algorithm> {};

/// serve --shards {1, 2, 8} == serial batch discover, byte for byte and
/// counter for counter, for every algorithm.
TEST_P(ShardDifferentialTest, ServeShardedMatchesBatch) {
  GroupDataset data = ChurnyStream(1201);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  DiscoveryStats want;
  std::string expected = BatchCsv(GetParam(), records, &want);
  for (int shards : {1, 2, 8}) {
    ServiceStats stats;
    EXPECT_EQ(ServeCsv(GetParam(), shards, records, &stats), expected)
        << "shards " << shards;
    ExpectSameCounters(want, stats.discovery,
                       "shards " + std::to_string(shards));
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ShardDifferentialTest,
                         ::testing::Values(
                             Algorithm::kClusteringIntersection,
                             Algorithm::kSmartClosed, Algorithm::kBuddy),
                         [](const auto& info) {
                           return AlgorithmName(info.param);
                         });

/// Serves records before `split_time` at `first_shards`, stops (writing
/// the checkpoint), and serves the rest from the checkpoint at
/// `second_shards`. Returns the resumed run's companions and counters.
std::string ResumedCsv(Algorithm algorithm,
                       const std::vector<TrajectoryRecord>& records,
                       int first_shards, int second_shards,
                       DiscoveryStats* stats_out) {
  const double split_time = 12 * kSecondsPerSnapshot;
  // One file per test and configuration: ctest runs the resume tests as
  // concurrent processes.
  const std::string ckpt =
      ::testing::TempDir() + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      AlgorithmName(algorithm) + "_" +
                           std::to_string(first_shards) + "_" +
                           std::to_string(second_shards) + ".ckpt";
  std::remove(ckpt.c_str());
  {
    ServicePipelineOptions opts = PipelineOptions(algorithm, first_shards);
    opts.checkpoint_path = ckpt;
    ServicePipeline first(opts);
    EXPECT_TRUE(first.Start().ok());
    for (const TrajectoryRecord& r : records) {
      if (r.timestamp < split_time) {
        EXPECT_TRUE(first.Ingest(r).ok());
      }
    }
    EXPECT_TRUE(first.Stop().ok());
    EXPECT_GE(first.Stats().checkpoints_written, 1);
  }
  ServicePipelineOptions opts = PipelineOptions(algorithm, second_shards);
  opts.checkpoint_path = ckpt;
  ServicePipeline second(opts);
  EXPECT_TRUE(second.Start().ok());
  EXPECT_TRUE(second.Stats().resumed);
  for (const TrajectoryRecord& r : records) {
    if (r.timestamp >= split_time) {
      EXPECT_TRUE(second.Ingest(r).ok());
    }
  }
  EXPECT_TRUE(second.Stop().ok());
  EXPECT_NE(second.MetricsText().find(
                "\ntcomp_shards " + std::to_string(second_shards) + "\n"),
            std::string::npos);
  std::remove(ckpt.c_str());
  *stats_out = second.Stats().discovery;
  return CompanionsCsv(second.Companions());
}

/// Kill mid-stream under one shard count, resume under another: no
/// stripe state survives a snapshot close, so the checkpoint does not
/// depend on the count. The resumed run must equal one uninterrupted
/// batch run in products and in every counter the checkpoint carries,
/// and the same kill + resume at one stripe in the soa_* counters too.
/// (The process-level SIGTERM variant lives in cli_smoke.sh; this is the
/// library-level equivalent — Stop() is exactly what the SIGTERM handler
/// runs.)
void ExpectResumeMatchesBatch(Algorithm algorithm, uint64_t seed,
                              int first_shards, int second_shards) {
  GroupDataset data = ChurnyStream(seed);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  DiscoveryStats want;
  const std::string expected = BatchCsv(algorithm, records, &want);
  const std::string what = std::string(AlgorithmName(algorithm)) + " " +
                           std::to_string(first_shards) + " -> " +
                           std::to_string(second_shards);
  DiscoveryStats serial_resumed;
  EXPECT_EQ(ResumedCsv(algorithm, records, 1, 1, &serial_resumed), expected)
      << what;
  DiscoveryStats got;
  EXPECT_EQ(ResumedCsv(algorithm, records, first_shards, second_shards, &got),
            expected)
      << what;
  ExpectSameCounters(want, got, what, /*with_soa=*/false);
  ExpectSameCounters(serial_resumed, got, what);
}

TEST(ShardResumeTest, ResumeAtDifferentShardCountMatchesBatch) {
  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed,
        Algorithm::kBuddy}) {
    ExpectResumeMatchesBatch(algorithm, 1203, 2, 8);
  }
}

/// And the reverse direction: a striped run resumed by a --shards 1
/// incarnation.
TEST(ShardResumeTest, ShardedCheckpointResumesUnsharded) {
  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed,
        Algorithm::kBuddy}) {
    ExpectResumeMatchesBatch(algorithm, 1204, 8, 1);
  }
}

/// Convoy baseline at 1 ≡ 4 stripes: through its built-in clusterer, and
/// through the ClusterProvider seam with a provider that runs the striped
/// DbscanGrid.
TEST(ShardConvoyTest, ConvoysIdenticalWithShardedProvider) {
  GroupDataset data = ChurnyStream(1205);
  ConvoyParams params;
  params.cluster.epsilon = 18.0;
  params.cluster.mu = 3;
  params.min_objects = 5;
  params.min_lifetime = 6;
  std::vector<Convoy> want = DiscoverConvoys(data.stream, params);
  ASSERT_FALSE(want.empty());

  ConvoyParams built_in = params;
  built_in.cluster.threads = 4;
  ConvoyParams provider = params;
  DbscanParams striped = params.cluster;
  striped.threads = 4;
  provider.cluster_provider = [striped](const Snapshot& snapshot,
                                        int64_t* distance_ops) {
    return DbscanGrid(snapshot, striped, distance_ops);
  };
  for (const ConvoyParams* run : {&built_in, &provider}) {
    std::vector<Convoy> got = DiscoverConvoys(data.stream, *run);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].objects, want[i].objects);
      EXPECT_EQ(got[i].begin, want[i].begin);
      EXPECT_EQ(got[i].end, want[i].end);
    }
  }
}

/// TSan hammer: one producer ingests a stream into an 8-stripe SC
/// pipeline, so every snapshot close fans its sweep out over the pool,
/// while observer threads read Stats() and MetricsText() — the
/// monitoring reads the live service performs. Counters stay monotone
/// and the products equal the serial batch run's.
TEST(ShardHammerTest, ConcurrentMetricsReadsDuringClustering) {
  GroupDataset data = ChurnyStream(1206);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  const std::string expected = BatchCsv(Algorithm::kSmartClosed, records);

  ServicePipeline pipeline(PipelineOptions(Algorithm::kSmartClosed, 8));
  ASSERT_TRUE(pipeline.Start().ok());
  std::atomic<bool> stop{false};
  std::thread metrics_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = pipeline.MetricsText();
      EXPECT_NE(text.find("\ntcomp_shards 8\n"), std::string::npos);
      std::this_thread::yield();
    }
  });
  std::thread stats_reader([&] {
    int64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const ServiceStats stats = pipeline.Stats();
      EXPECT_GE(stats.discovery.snapshots, last);  // monotone, one writer
      last = stats.discovery.snapshots;
      std::this_thread::yield();
    }
  });
  for (const TrajectoryRecord& r : records) {
    EXPECT_TRUE(pipeline.Ingest(r).ok());
  }
  EXPECT_TRUE(pipeline.Stop().ok());
  stop.store(true, std::memory_order_relaxed);
  metrics_reader.join();
  stats_reader.join();
  EXPECT_EQ(CompanionsCsv(pipeline.Companions()), expected);
}

}  // namespace
}  // namespace tcomp
