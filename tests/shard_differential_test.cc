// Serve-vs-batch differentials for the sharded C-step (ISSUE 7): a
// pipeline serving with --shards ∈ {1, 2, 8} must emit companions
// byte-identical to the batch discover path — for every algorithm, with
// the word-parallel kernels on or off, and across a mid-stream kill +
// resume at a *different* shard count. Plus the convoy-baseline differential through the same
// ClusterProvider seam, and a TSan hammer on the partitioner/merge
// queues (this binary carries the tsan label).
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
#include "shard/sharded_engine.h"
#include "stream/sliding_window.h"

namespace tcomp {
namespace {

constexpr double kSecondsPerSnapshot = 60.0;

GroupDataset ChurnyStream(uint64_t seed) {
  GroupModelOptions options;
  options.num_objects = 80;
  options.num_snapshots = 24;
  options.area_size = 1500.0;
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

/// The reference: the batch discover path, no sharding anywhere.
std::string BatchCsv(Algorithm algorithm,
                     const std::vector<TrajectoryRecord>& records) {
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
  return CompanionsCsv(discoverer->log().companions());
}

ServicePipelineOptions PipelineOptions(Algorithm algorithm, int shards) {
  ServicePipelineOptions opts;
  opts.algorithm = algorithm;
  opts.params = BaseParams();
  opts.window.window_length = kSecondsPerSnapshot;
  opts.queue_capacity = 64;
  opts.shards = shards;
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

/// serve --shards {1, 2, 8} == batch discover, byte for byte, for every
/// algorithm. BU cannot shard; the fallback must still match batch.
TEST_P(ShardDifferentialTest, ServeShardedMatchesBatch) {
  GroupDataset data = ChurnyStream(1201);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  std::string expected = BatchCsv(GetParam(), records);
  for (int shards : {1, 2, 8}) {
    ServiceStats stats;
    EXPECT_EQ(ServeCsv(GetParam(), shards, records, &stats), expected)
        << "shards " << shards;
    if (shards == 1) {
      EXPECT_EQ(stats.shards, 1);
      EXPECT_FALSE(stats.shard_fallback);
      EXPECT_EQ(stats.shard_snapshots, 0);
    } else if (GetParam() == Algorithm::kBuddy) {
      EXPECT_TRUE(stats.shard_fallback);
      EXPECT_EQ(stats.shard_snapshots, 0);
    } else {
      EXPECT_EQ(stats.shards, shards);
      EXPECT_FALSE(stats.shard_fallback);
      EXPECT_EQ(stats.shard_snapshots, stats.discovery.snapshots);
      EXPECT_GT(stats.shard_halo_objects, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ShardDifferentialTest,
                         ::testing::Values(
                             Algorithm::kClusteringIntersection,
                             Algorithm::kSmartClosed, Algorithm::kBuddy),
                         [](const auto& info) {
                           return AlgorithmName(info.param);
                         });

/// Kill mid-stream under one shard count, resume under another: no shard
/// state survives a snapshot close, so the checkpoint is shard-agnostic
/// by construction and the resumed run must equal one uninterrupted batch
/// run. (The process-level SIGTERM variant lives in cli_smoke.sh; this is
/// the library-level equivalent — Stop() is exactly what the SIGTERM
/// handler runs.)
TEST(ShardResumeTest, ResumeAtDifferentShardCountMatchesBatch) {
  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed}) {
    GroupDataset data = ChurnyStream(1203);
    std::vector<TrajectoryRecord> records =
        StreamToRecords(data.stream, kSecondsPerSnapshot);
    std::string expected = BatchCsv(algorithm, records);

    double split_time = 12 * kSecondsPerSnapshot;
    std::string ckpt = ::testing::TempDir() + "/shard_resume.ckpt";
    std::remove(ckpt.c_str());

    {
      ServicePipelineOptions opts = PipelineOptions(algorithm, 2);
      opts.checkpoint_path = ckpt;
      ServicePipeline first(opts);
      ASSERT_TRUE(first.Start().ok());
      for (const TrajectoryRecord& r : records) {
        if (r.timestamp < split_time) {
          ASSERT_TRUE(first.Ingest(r).ok());
        }
      }
      ASSERT_TRUE(first.Stop().ok());
      EXPECT_GE(first.Stats().checkpoints_written, 1);
    }
    {
      ServicePipelineOptions opts = PipelineOptions(algorithm, 8);
      opts.checkpoint_path = ckpt;
      ServicePipeline second(opts);
      ASSERT_TRUE(second.Start().ok());
      EXPECT_TRUE(second.Stats().resumed);
      for (const TrajectoryRecord& r : records) {
        if (r.timestamp >= split_time) {
          ASSERT_TRUE(second.Ingest(r).ok());
        }
      }
      ASSERT_TRUE(second.Stop().ok());
      EXPECT_EQ(CompanionsCsv(second.Companions()), expected)
          << AlgorithmName(algorithm);
      EXPECT_EQ(second.Stats().shards, 8);
    }
    std::remove(ckpt.c_str());
  }
}

/// And the reverse direction: sharded run resumed by a --shards 1
/// incarnation (the operational kill switch — turn sharding off without
/// losing the stream).
TEST(ShardResumeTest, ShardedCheckpointResumesUnsharded) {
  GroupDataset data = ChurnyStream(1204);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  std::string expected = BatchCsv(Algorithm::kSmartClosed, records);

  double split_time = 12 * kSecondsPerSnapshot;
  std::string ckpt = ::testing::TempDir() + "/shard_killswitch.ckpt";
  std::remove(ckpt.c_str());
  {
    ServicePipelineOptions opts =
        PipelineOptions(Algorithm::kSmartClosed, 8);
    opts.checkpoint_path = ckpt;
    ServicePipeline first(opts);
    ASSERT_TRUE(first.Start().ok());
    for (const TrajectoryRecord& r : records) {
      if (r.timestamp < split_time) {
        ASSERT_TRUE(first.Ingest(r).ok());
      }
    }
    ASSERT_TRUE(first.Stop().ok());
  }
  {
    ServicePipelineOptions opts =
        PipelineOptions(Algorithm::kSmartClosed, 1);
    opts.checkpoint_path = ckpt;
    ServicePipeline second(opts);
    ASSERT_TRUE(second.Start().ok());
    EXPECT_TRUE(second.Stats().resumed);
    for (const TrajectoryRecord& r : records) {
      if (r.timestamp >= split_time) {
        ASSERT_TRUE(second.Ingest(r).ok());
      }
    }
    ASSERT_TRUE(second.Stop().ok());
    EXPECT_EQ(CompanionsCsv(second.Companions()), expected);
  }
  std::remove(ckpt.c_str());
}

/// Convoy baseline through the same provider seam: identical convoys
/// with and without the sharded engine.
TEST(ShardConvoyTest, ConvoysIdenticalWithShardedProvider) {
  GroupDataset data = ChurnyStream(1205);
  ConvoyParams params;
  params.cluster.epsilon = 18.0;
  params.cluster.mu = 3;
  params.min_objects = 5;
  params.min_lifetime = 6;
  std::vector<Convoy> want = DiscoverConvoys(data.stream, params);

  for (int shards : {2, 8}) {
    ShardedClusterEngine engine(params.cluster, shards);
    ConvoyParams sharded = params;
    sharded.cluster_provider = [&engine](const Snapshot& snapshot,
                                         int64_t* distance_ops) {
      return engine.Cluster(snapshot, distance_ops);
    };
    std::vector<Convoy> got = DiscoverConvoys(data.stream, sharded);
    ASSERT_EQ(got.size(), want.size()) << "shards " << shards;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].objects, want[i].objects);
      EXPECT_EQ(got[i].begin, want[i].begin);
      EXPECT_EQ(got[i].end, want[i].end);
    }
    EXPECT_GT(engine.stats().snapshots, 0);
  }
}

/// TSan hammer on the shard worker queues: one thread drives snapshot
/// after snapshot through an 8-shard engine (Submit/Wait on every queue)
/// while observer threads pound the depth/peak atomics and the metrics
/// export — the monitoring reads the live service performs. Products must
/// stay correct throughout.
TEST(ShardHammerTest, ConcurrentMetricsReadsDuringClustering) {
  DbscanParams params;
  params.epsilon = 18.0;
  params.mu = 3;
  ShardedClusterEngine engine(params, 8);
  GroupDataset data = ChurnyStream(1206);

  std::atomic<bool> stop{false};
  std::thread gauge_reader([&] {
    MetricsRegistry registry;
    while (!stop.load(std::memory_order_relaxed)) {
      engine.ExportMetrics(&registry);
      (void)registry.ExpositionText();
      std::this_thread::yield();
    }
  });
  std::thread stats_reader([&] {
    int64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ShardEngineStats stats = engine.stats();
      EXPECT_GE(stats.snapshots, last);  // monotone under one writer
      last = stats.snapshots;
      std::this_thread::yield();
    }
  });

  for (int round = 0; round < 4; ++round) {
    for (const Snapshot& snapshot : data.stream) {
      Clustering want = Dbscan(snapshot, params);
      Clustering got = engine.Cluster(snapshot, nullptr);
      ASSERT_EQ(got.labels, want.labels);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  gauge_reader.join();
  stats_reader.join();
  EXPECT_EQ(engine.stats().snapshots,
            4 * static_cast<int64_t>(data.stream.size()));
}

}  // namespace
}  // namespace tcomp
