#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/discoverer.h"
#include "data/group_model.h"
#include "data/trajectory_io.h"
#include "eval/export.h"
#include "service/ingest_queue.h"
#include "service/pipeline.h"
#include "stream/inactive_period.h"
#include "stream/sliding_window.h"
#include "util/random.h"

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

/// The reference: the batch discover path (records → window → discoverer
/// on the caller's thread), exactly as tools/tcomp_cli.cc discover runs.
std::string BatchCsv(Algorithm algorithm,
                     const std::vector<TrajectoryRecord>& records,
                     int inactive = 0) {
  auto discoverer = MakeDiscoverer(algorithm, BaseParams());
  SlidingWindowOptions wopts;
  wopts.window_length = kSecondsPerSnapshot;
  SlidingWindowSnapshotter window(wopts);
  InactivePeriodFiller filler(inactive);
  std::vector<Snapshot> ready;
  for (const TrajectoryRecord& r : records) {
    EXPECT_TRUE(window.Push(r, &ready).ok());
    for (const Snapshot& s : ready) {
      discoverer->ProcessSnapshot(filler.Fill(s), nullptr);
    }
    ready.clear();
  }
  window.Flush(&ready);
  for (const Snapshot& s : ready) {
    discoverer->ProcessSnapshot(filler.Fill(s), nullptr);
  }
  return CompanionsCsv(discoverer->log().companions());
}

ServicePipelineOptions PipelineOptions(Algorithm algorithm) {
  ServicePipelineOptions opts;
  opts.algorithm = algorithm;
  opts.params = BaseParams();
  opts.window.window_length = kSecondsPerSnapshot;
  // Small on purpose: the feed outruns the discoverer, so kBlock
  // backpressure really engages during the differential runs.
  opts.queue_capacity = 64;
  return opts;
}

class ServiceDifferentialTest : public ::testing::TestWithParam<Algorithm> {
};

/// The daemon path (queue → window → discoverer on the worker) must emit
/// byte-identical companions to the batch path for every algorithm.
TEST_P(ServiceDifferentialTest, MatchesBatchPath) {
  GroupDataset data = ChurnyStream(901);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  std::string expected = BatchCsv(GetParam(), records);

  ServicePipeline pipeline(PipelineOptions(GetParam()));
  ASSERT_TRUE(pipeline.Start().ok());
  for (const TrajectoryRecord& r : records) {
    ASSERT_TRUE(pipeline.Ingest(r).ok());
  }
  ASSERT_TRUE(pipeline.Stop().ok());

  EXPECT_EQ(CompanionsCsv(pipeline.Companions()), expected);
  ServiceStats stats = pipeline.Stats();
  EXPECT_EQ(stats.records_ingested,
            static_cast<int64_t>(records.size()));
  EXPECT_EQ(stats.queue.pushed, stats.queue.popped);
  EXPECT_EQ(stats.queue.shed, 0);
  EXPECT_EQ(stats.queue.rejected, 0);
  EXPECT_LE(stats.queue.depth_peak, 64);
  EXPECT_GT(stats.discovery.snapshots, 0);
  EXPECT_FALSE(stats.resumed);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ServiceDifferentialTest,
                         ::testing::Values(
                             Algorithm::kClusteringIntersection,
                             Algorithm::kSmartClosed, Algorithm::kBuddy),
                         [](const auto& info) {
                           return AlgorithmName(info.param);
                         });

/// Flush is a barrier: afterwards every prior ingest is reflected in
/// queries, including the in-progress window.
TEST(ServicePipelineTest, FlushMakesAllIngestsVisible) {
  GroupDataset data = ChurnyStream(902);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  std::string expected = BatchCsv(Algorithm::kBuddy, records);

  ServicePipeline pipeline(PipelineOptions(Algorithm::kBuddy));
  ASSERT_TRUE(pipeline.Start().ok());
  for (const TrajectoryRecord& r : records) {
    ASSERT_TRUE(pipeline.Ingest(r).ok());
  }
  ASSERT_TRUE(pipeline.Flush().ok());
  // No Stop() yet — Flush alone must surface the final window.
  EXPECT_EQ(CompanionsCsv(pipeline.Companions()), expected);
  EXPECT_TRUE(pipeline.Stop().ok());
}

/// Stop → restart with the same checkpoint file resumes the stream with
/// no duplicated or lost companions: feeding the two halves through two
/// pipeline incarnations equals one uninterrupted run. The split falls on
/// a window boundary, which is what the graceful-shutdown window flush
/// guarantees for the live service.
TEST(ServicePipelineTest, CheckpointResumeMatchesUninterrupted) {
  GroupDataset data = ChurnyStream(903);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  std::string expected = BatchCsv(Algorithm::kBuddy, records);

  double split_time = 12 * kSecondsPerSnapshot;
  std::string ckpt = ::testing::TempDir() + "/service_resume.ckpt";
  std::remove(ckpt.c_str());

  ServicePipelineOptions opts = PipelineOptions(Algorithm::kBuddy);
  opts.checkpoint_path = ckpt;
  {
    ServicePipeline first(opts);
    ASSERT_TRUE(first.Start().ok());
    EXPECT_FALSE(first.Stats().resumed);
    for (const TrajectoryRecord& r : records) {
      if (r.timestamp < split_time) {
        ASSERT_TRUE(first.Ingest(r).ok());
      }
    }
    ASSERT_TRUE(first.Stop().ok());
    EXPECT_GE(first.Stats().checkpoints_written, 1);
  }
  {
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

/// The same stop/restart with inactive-period filling on a stream whose
/// objects drop out: the filler's last sightings are in the checkpoint,
/// so the resumed daemon still fills the objects absent across the split.
TEST(ServicePipelineTest, InactiveFillSurvivesCheckpointResume) {
  GroupDataset data = ChurnyStream(906);
  std::vector<TrajectoryRecord> records;
  Pcg32 rng(7);
  for (const TrajectoryRecord& r :
       StreamToRecords(data.stream, kSecondsPerSnapshot)) {
    if (rng.NextDouble() >= 0.15) records.push_back(r);
  }
  constexpr int kInactive = 3;
  const std::string expected =
      BatchCsv(Algorithm::kSmartClosed, records, kInactive);
  ASSERT_NE(expected, BatchCsv(Algorithm::kSmartClosed, records))
      << "the stream must exercise the filler";

  const double split_time = 12 * kSecondsPerSnapshot;
  std::string ckpt = ::testing::TempDir() + "/service_inactive.ckpt";
  std::remove(ckpt.c_str());
  ServicePipelineOptions opts = PipelineOptions(Algorithm::kSmartClosed);
  opts.inactive_fill = kInactive;
  opts.checkpoint_path = ckpt;
  {
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

/// Auto-checkpointing writes every N snapshots without disturbing the
/// stream results.
TEST(ServicePipelineTest, AutoCheckpointEveryN) {
  GroupDataset data = ChurnyStream(904);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  std::string expected = BatchCsv(Algorithm::kSmartClosed, records);

  std::string ckpt = ::testing::TempDir() + "/service_auto.ckpt";
  std::remove(ckpt.c_str());
  ServicePipelineOptions opts = PipelineOptions(Algorithm::kSmartClosed);
  opts.checkpoint_path = ckpt;
  opts.checkpoint_every = 5;
  ServicePipeline pipeline(opts);
  ASSERT_TRUE(pipeline.Start().ok());
  for (const TrajectoryRecord& r : records) {
    ASSERT_TRUE(pipeline.Ingest(r).ok());
  }
  ASSERT_TRUE(pipeline.Stop().ok());
  EXPECT_EQ(CompanionsCsv(pipeline.Companions()), expected);
  // 24 snapshots / every 5 → at least 4 periodic saves + the final one.
  EXPECT_GE(pipeline.Stats().checkpoints_written, 5);
  std::remove(ckpt.c_str());
}

/// Bounded out-of-order arrival: interleave adjacent snapshots' records
/// (each even/odd snapshot pair arrives newest-first). With a watermark
/// lateness covering the jitter, the reorder buffer must reconstruct the
/// timestamp order and reproduce the in-order results exactly.
TEST(ServicePipelineTest, WatermarkAbsorbsOutOfOrderArrival) {
  GroupDataset data = ChurnyStream(905);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  std::string expected = BatchCsv(Algorithm::kBuddy, records);

  // Partition by snapshot, then emit each adjacent pair swapped.
  std::vector<std::vector<TrajectoryRecord>> by_snapshot;
  for (const TrajectoryRecord& r : records) {
    size_t index = static_cast<size_t>(r.timestamp / kSecondsPerSnapshot);
    if (index >= by_snapshot.size()) by_snapshot.resize(index + 1);
    by_snapshot[index].push_back(r);
  }
  std::vector<TrajectoryRecord> shuffled;
  for (size_t i = 0; i + 1 < by_snapshot.size(); i += 2) {
    shuffled.insert(shuffled.end(), by_snapshot[i + 1].begin(),
                    by_snapshot[i + 1].end());
    shuffled.insert(shuffled.end(), by_snapshot[i].begin(),
                    by_snapshot[i].end());
  }
  if (by_snapshot.size() % 2 == 1) {
    shuffled.insert(shuffled.end(), by_snapshot.back().begin(),
                    by_snapshot.back().end());
  }
  ASSERT_EQ(shuffled.size(), records.size());

  ServicePipelineOptions opts = PipelineOptions(Algorithm::kBuddy);
  opts.allowed_lateness = kSecondsPerSnapshot;
  ServicePipeline pipeline(opts);
  ASSERT_TRUE(pipeline.Start().ok());
  for (const TrajectoryRecord& r : shuffled) {
    ASSERT_TRUE(pipeline.Ingest(r).ok());
  }
  ASSERT_TRUE(pipeline.Stop().ok());
  EXPECT_EQ(CompanionsCsv(pipeline.Companions()), expected);
  EXPECT_GT(pipeline.Stats().reorder_held_peak, 0);
}

TEST(ServicePipelineTest, RejectsNonFiniteRecords) {
  ServicePipeline pipeline(PipelineOptions(Algorithm::kBuddy));
  ASSERT_TRUE(pipeline.Start().ok());
  TrajectoryRecord bad;
  bad.object = 1;
  bad.timestamp = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(pipeline.Ingest(bad).ok());
  bad.timestamp = 0.0;
  bad.pos.x = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(pipeline.Ingest(bad).ok());
  EXPECT_TRUE(pipeline.Stop().ok());
  EXPECT_EQ(pipeline.Stats().records_invalid, 2);
  EXPECT_EQ(pipeline.Stats().records_ingested, 0);
}

/// Records outside the window's range (ValidateRecord) are refused in
/// the ack and counted as invalid. Before, a finite timestamp of 1e300
/// passed admission and then spun the worker's window loop forever with
/// state_mu_ held, stalling every FLUSH and QUERY; two x = 1.5e308 reports
/// overflowed the window sum and aborted the sweep.
TEST(ServicePipelineTest, OutOfRangeRecordsAreRefusedAtAdmission) {
  const auto start = std::chrono::steady_clock::now();
  ServicePipeline pipeline(PipelineOptions(Algorithm::kSmartClosed));
  ASSERT_TRUE(pipeline.Start().ok());
  TrajectoryRecord r;
  for (ObjectId id = 0; id < 4; ++id) {
    r.object = id;
    r.timestamp = 0.0;
    r.pos = Point{static_cast<double>(id), 0.0};
    ASSERT_TRUE(pipeline.Ingest(r).ok());
  }
  r.object = 0;
  r.timestamp = 1e300;
  EXPECT_EQ(pipeline.Ingest(r).code(), StatusCode::kInvalidArgument);
  r.timestamp = 1.0;
  r.pos = Point{1.5e308, 0.0};
  for (int k = 0; k < 2; ++k) {
    bool admitted = true;
    EXPECT_EQ(pipeline.TryIngest(r, &admitted).code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(admitted);
  }
  ASSERT_TRUE(pipeline.Flush().ok());
  ServiceStats stats = pipeline.Stats();
  EXPECT_EQ(stats.records_invalid, 3);
  EXPECT_EQ(stats.records_ingested, 4);
  EXPECT_EQ(stats.snapshots_emitted, 1);
  ASSERT_TRUE(pipeline.Stop().ok());
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            1.0);
}

// ---------------------------------------------------------------------
// Backpressure: a producer that outruns a throttled consumer must see
// each policy's contract hold with the queue depth never above capacity.

TrajectoryRecord NumberedRecord(int i) {
  TrajectoryRecord r;
  r.object = static_cast<ObjectId>(i);
  r.timestamp = static_cast<double>(i);
  return r;
}

TEST(IngestQueueTest, BlockModeIsLosslessUnderOverload) {
  IngestQueue queue(4, BackpressureMode::kBlock);
  constexpr int kRecords = 200;
  std::vector<double> consumed;
  std::thread consumer([&] {
    TrajectoryRecord r;
    while (queue.Pop(&r)) {
      consumed.push_back(r.timestamp);
      // Throttle: the producer fills the queue and must block.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(queue.Push(NumberedRecord(i)).ok());
  }
  queue.Close();
  consumer.join();

  ASSERT_EQ(consumed.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(consumed[i], static_cast<double>(i));  // FIFO, no loss
  }
  IngestQueueCounters counters = queue.Counters();
  EXPECT_EQ(counters.pushed, kRecords);
  EXPECT_EQ(counters.popped, kRecords);
  EXPECT_EQ(counters.shed, 0);
  EXPECT_EQ(counters.rejected, 0);
  EXPECT_LE(counters.depth_peak, 4);
}

TEST(IngestQueueTest, ShedOldestKeepsNewestUnderOverload) {
  IngestQueue queue(4, BackpressureMode::kShedOldest);
  // No consumer at all: the stalled-pipeline worst case.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.Push(NumberedRecord(i)).ok());
  }
  EXPECT_EQ(queue.depth(), 4u);
  queue.Close();
  std::vector<double> drained;
  TrajectoryRecord r;
  while (queue.Pop(&r)) drained.push_back(r.timestamp);
  // The *newest* four survive; everything older was shed in order.
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained, (std::vector<double>{96, 97, 98, 99}));
  IngestQueueCounters counters = queue.Counters();
  EXPECT_EQ(counters.pushed, 100);
  EXPECT_EQ(counters.shed, 96);
  EXPECT_EQ(counters.rejected, 0);
  EXPECT_LE(counters.depth_peak, 4);
}

TEST(IngestQueueTest, RejectModeRefusesWhenFullAndRecovers) {
  IngestQueue queue(4, BackpressureMode::kReject);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 100; ++i) {
    Status s = queue.Push(NumberedRecord(i));
    if (s.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rejected, 96);
  // Draining makes room again: rejection is transient, not sticky.
  TrajectoryRecord r;
  ASSERT_TRUE(queue.Pop(&r));
  EXPECT_TRUE(queue.Push(NumberedRecord(100)).ok());
  IngestQueueCounters counters = queue.Counters();
  EXPECT_EQ(counters.pushed, 5);
  EXPECT_EQ(counters.rejected, 96);
  queue.Close();
}

TEST(IngestQueueTest, PushAfterCloseFailsAndPopDrains) {
  IngestQueue queue(8, BackpressureMode::kBlock);
  ASSERT_TRUE(queue.Push(NumberedRecord(0)).ok());
  ASSERT_TRUE(queue.Push(NumberedRecord(1)).ok());
  queue.Close();
  EXPECT_FALSE(queue.Push(NumberedRecord(2)).ok());
  TrajectoryRecord r;
  EXPECT_TRUE(queue.Pop(&r));
  EXPECT_TRUE(queue.Pop(&r));
  EXPECT_FALSE(queue.Pop(&r));  // closed and drained
}

/// Flush must terminate under kShedOldest even though shed records are
/// never processed: the barrier counts a record as settled when it leaves
/// the queue, whether the worker popped it or the policy dropped it.
/// (Regression: waiting on processed-count alone deadlocked forever after
/// the first shed, wedging protocol FLUSH and SIGTERM shutdown.)
TEST(ServicePipelineTest, FlushCompletesUnderShedOverload) {
  GroupDataset data = ChurnyStream(907);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  ServicePipelineOptions opts = PipelineOptions(Algorithm::kBuddy);
  // Capacity 1 with a full-speed feed: every snapshot the worker clusters
  // (80 objects, 24 closures) the producer floods the queue and sheds.
  opts.queue_capacity = 1;
  opts.backpressure = BackpressureMode::kShedOldest;
  ServicePipeline pipeline(opts);
  ASSERT_TRUE(pipeline.Start().ok());
  for (const TrajectoryRecord& r : records) {
    ASSERT_TRUE(pipeline.Ingest(r).ok());  // shed mode always admits
  }
  ASSERT_TRUE(pipeline.Flush().ok());
  ServiceStats stats = pipeline.Stats();
  EXPECT_GT(stats.queue.shed, 0);
  // The barrier implies the queue fully drained: everything pushed was
  // either popped or shed.
  EXPECT_EQ(stats.queue.pushed, stats.queue.popped + stats.queue.shed);
  EXPECT_EQ(stats.records_ingested, static_cast<int64_t>(records.size()));
  ASSERT_TRUE(pipeline.Stop().ok());
}

/// After Stop(), Flush reports not-running instead of re-draining the
/// tail that Stop already flushed and checkpointed.
TEST(ServicePipelineTest, FlushAfterStopIsRejected) {
  ServicePipeline pipeline(PipelineOptions(Algorithm::kBuddy));
  ASSERT_TRUE(pipeline.Start().ok());
  ASSERT_TRUE(pipeline.Ingest(NumberedRecord(0)).ok());
  ASSERT_TRUE(pipeline.Stop().ok());
  Status s = pipeline.Flush();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

/// A Flush racing a concurrent Stop must always return — ok if it beat
/// the stop, not-running if the stop won — never hang the caller (a
/// wedged session thread would in turn wedge server Wait() at shutdown).
TEST(ServicePipelineTest, FlushRacingStopTerminates) {
  GroupDataset data = ChurnyStream(908);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  ServicePipeline pipeline(PipelineOptions(Algorithm::kBuddy));
  ASSERT_TRUE(pipeline.Start().ok());
  for (const TrajectoryRecord& r : records) {
    ASSERT_TRUE(pipeline.Ingest(r).ok());
  }
  std::atomic<bool> flusher_exited{false};
  std::thread flusher([&] {
    while (pipeline.Flush().ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    flusher_exited.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(pipeline.Stop().ok());
  flusher.join();
  EXPECT_TRUE(flusher_exited.load());
}

/// The pipeline surfaces kReject backpressure to the caller as
/// OutOfRange — the protocol layer turns that into an ERR the client can
/// react to — while never letting the queue depth exceed capacity.
TEST(ServicePipelineTest, RejectBackpressureReachesProducers) {
  GroupDataset data = ChurnyStream(906);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(data.stream, kSecondsPerSnapshot);
  ServicePipelineOptions opts = PipelineOptions(Algorithm::kBuddy);
  opts.queue_capacity = 2;
  opts.backpressure = BackpressureMode::kReject;
  ServicePipeline pipeline(opts);
  ASSERT_TRUE(pipeline.Start().ok());
  int64_t rejections = 0;
  for (const TrajectoryRecord& r : records) {
    Status s = pipeline.Ingest(r);
    if (!s.ok()) {
      ASSERT_EQ(s.code(), StatusCode::kOutOfRange);
      ++rejections;
    }
  }
  ASSERT_TRUE(pipeline.Stop().ok());
  ServiceStats stats = pipeline.Stats();
  EXPECT_EQ(stats.queue.rejected, rejections);
  EXPECT_LE(stats.queue.depth_peak, 2);
  EXPECT_EQ(stats.records_ingested + rejections,
            static_cast<int64_t>(records.size()));
}

// ---------------------------------------------------------------------
// Stats() consistency: every snapshot a reader takes mid-run must be a
// consistent cut, never a torn mix of pre- and post-increment counters.
// The invariants below are exactly the contract documented on
// ServiceStats; TSan additionally checks the locking (tsan label).

TrajectoryRecord TimedRecord(ObjectId id, double t) {
  TrajectoryRecord r;
  r.object = id;
  r.timestamp = t;
  r.pos.x = static_cast<double>(id % 100);
  r.pos.y = t;
  return r;
}

void HammerStatsWhileIngesting(BackpressureMode mode) {
  ServicePipelineOptions opts = PipelineOptions(Algorithm::kBuddy);
  opts.queue_capacity = 8;  // small: the worker lags, depth is often > 0
  opts.backpressure = mode;
  ServicePipeline pipeline(opts);
  ASSERT_TRUE(pipeline.Start().ok());

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 2000;
  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      ServiceStats s = pipeline.Stats();
      // Exact: depth is sampled in the same critical section as the
      // queue counters, so the flow equation balances at every read.
      EXPECT_EQ(s.queue.pushed, s.queue.popped + s.queue.shed +
                                    s.queue.depth);
      // The single worker has at most one record popped but not yet
      // counted as processed.
      EXPECT_GE(s.queue.popped, s.records_processed);
      EXPECT_LE(s.queue.popped, s.records_processed + 1);
      // A record is counted ingested only after its push succeeded.
      EXPECT_GE(s.queue.pushed, s.records_ingested);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // A concurrent Flush barrier stresses the same locks from a third
  // angle (it nests state_mu_ → queue-mu exactly like Stats does).
  std::thread flusher([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(pipeline.Flush().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        TrajectoryRecord r =
            TimedRecord(static_cast<ObjectId>(p * kPerProducer + i),
                        static_cast<double>(i));
        EXPECT_TRUE(pipeline.Ingest(r).ok());
      }
    });
  }
  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  flusher.join();
  EXPECT_GT(reads.load(), 0);
  ASSERT_TRUE(pipeline.Stop().ok());

  ServiceStats fin = pipeline.Stats();
  EXPECT_EQ(fin.records_ingested, kProducers * kPerProducer);
  EXPECT_EQ(fin.queue.depth, 0);  // Stop drains the queue
  EXPECT_EQ(fin.queue.pushed, fin.queue.popped + fin.queue.shed);
  EXPECT_EQ(fin.records_processed, fin.queue.popped);
  if (mode == BackpressureMode::kBlock) {
    EXPECT_EQ(fin.queue.shed, 0);  // lossless by contract
  }
}

TEST(ServicePipelineTest, StatsCutIsConsistentUnderBlockBackpressure) {
  HammerStatsWhileIngesting(BackpressureMode::kBlock);
}

TEST(ServicePipelineTest, StatsCutIsConsistentUnderShedBackpressure) {
  HammerStatsWhileIngesting(BackpressureMode::kShedOldest);
}

// ---------------------------------------------------------------------
// Watermark edge accounting: the release rule (DrainReorderBuffer) and
// the late-record rule (WorkerLoop) must agree on the boundary. A record
// with timestamp exactly at the watermark is releasable, hence late.

TEST(ServicePipelineTest, RecordExactlyAtWatermarkCountsLate) {
  ServicePipelineOptions opts = PipelineOptions(Algorithm::kBuddy);
  opts.allowed_lateness = 10.0;
  ServicePipeline pipeline(opts);
  ASSERT_TRUE(pipeline.Start().ok());
  ASSERT_TRUE(pipeline.Ingest(TimedRecord(1, 0.0)).ok());    // first: never late
  ASSERT_TRUE(pipeline.Ingest(TimedRecord(2, 100.0)).ok());  // watermark → 90
  ASSERT_TRUE(pipeline.Ingest(TimedRecord(3, 90.0)).ok());   // == watermark
  ASSERT_TRUE(pipeline.Ingest(TimedRecord(4, 90.5)).ok());   // inside bound
  ASSERT_TRUE(pipeline.Flush().ok());
  EXPECT_EQ(pipeline.Stats().records_late, 1);
  ASSERT_TRUE(pipeline.Stop().ok());
  // Every record was still processed (late ≠ dropped: bounded staleness).
  EXPECT_EQ(pipeline.Stats().records_processed, 4);
}

TEST(ServicePipelineTest, ZeroLatenessNeverCountsLate) {
  ServicePipelineOptions opts = PipelineOptions(Algorithm::kBuddy);
  opts.allowed_lateness = 0.0;  // reorder buffer disabled
  ServicePipeline pipeline(opts);
  ASSERT_TRUE(pipeline.Start().ok());
  ASSERT_TRUE(pipeline.Ingest(TimedRecord(1, 10.0)).ok());
  ASSERT_TRUE(pipeline.Ingest(TimedRecord(2, 0.0)).ok());  // out of order
  ASSERT_TRUE(pipeline.Ingest(TimedRecord(3, 5.0)).ok());
  ASSERT_TRUE(pipeline.Flush().ok());
  ServiceStats stats = pipeline.Stats();
  EXPECT_EQ(stats.records_late, 0);
  EXPECT_EQ(stats.reorder_held_peak, 0);
  EXPECT_EQ(stats.records_processed, 3);
  ASSERT_TRUE(pipeline.Stop().ok());
}

TEST(ServicePipelineTest, NegativeFirstTimestampIsNotSpuriouslyLate) {
  ServicePipelineOptions opts = PipelineOptions(Algorithm::kBuddy);
  opts.allowed_lateness = 5.0;
  ServicePipeline pipeline(opts);
  ASSERT_TRUE(pipeline.Start().ok());
  // Guarding on "any timestamp seen" matters: with max_timestamp_seen_
  // defaulting to 0, a negative-epoch stream would otherwise count its
  // entire prefix as late.
  ASSERT_TRUE(pipeline.Ingest(TimedRecord(1, -100.0)).ok());
  ASSERT_TRUE(pipeline.Ingest(TimedRecord(2, -98.0)).ok());
  ASSERT_TRUE(pipeline.Ingest(TimedRecord(3, -99.0)).ok());  // within bound
  ASSERT_TRUE(pipeline.Flush().ok());
  EXPECT_EQ(pipeline.Stats().records_late, 0);
  // Now cross the boundary: max is -98, watermark is -103.
  ASSERT_TRUE(pipeline.Ingest(TimedRecord(4, -103.0)).ok());
  ASSERT_TRUE(pipeline.Flush().ok());
  EXPECT_EQ(pipeline.Stats().records_late, 1);
  ASSERT_TRUE(pipeline.Stop().ok());
}

/// Serve and batch must agree on snapshots_emitted even when the stream
/// ends in a long gap: empty trailing windows exist in neither path (the
/// empty-window contract documented on SlidingWindowSnapshotter).
TEST(ServicePipelineTest, TrailingGapEmitsSameSnapshotCountAsBatch) {
  std::vector<TrajectoryRecord> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back(TimedRecord(static_cast<ObjectId>(i),
                                  static_cast<double>(i * 10)));
  }
  // One straggler far past the end: the gap spans many whole windows.
  records.push_back(TimedRecord(99, 600.0));

  SlidingWindowOptions wopts;
  wopts.window_length = kSecondsPerSnapshot;
  SlidingWindowSnapshotter window(wopts);
  std::vector<Snapshot> ready;
  for (const TrajectoryRecord& r : records) {
    ASSERT_TRUE(window.Push(r, &ready).ok());
  }
  window.Flush(&ready);
  EXPECT_EQ(window.emitted(), 2);  // [0,60) and the straggler's window

  ServicePipeline pipeline(PipelineOptions(Algorithm::kBuddy));
  ASSERT_TRUE(pipeline.Start().ok());
  for (const TrajectoryRecord& r : records) {
    ASSERT_TRUE(pipeline.Ingest(r).ok());
  }
  ASSERT_TRUE(pipeline.Stop().ok());
  EXPECT_EQ(pipeline.Stats().snapshots_emitted, window.emitted());
}

}  // namespace
}  // namespace tcomp
