#include <gtest/gtest.h>

#include <algorithm>
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
    IngestBatchResult result = pipeline.TryIngestBatch(&r, 1);
    EXPECT_EQ(result.last_refusal.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.accepted, 0u);
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
    std::vector<TrajectoryRecord> batch;
    while (queue.WaitForRecords()) {
      queue.PopBatch(3, &batch);
      for (const TrajectoryRecord& r : batch) consumed.push_back(r.timestamp);
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
  std::vector<TrajectoryRecord> batch;
  while (queue.WaitForRecords()) {
    queue.PopBatch(3, &batch);
    for (const TrajectoryRecord& r : batch) drained.push_back(r.timestamp);
  }
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
  std::vector<TrajectoryRecord> batch;
  ASSERT_TRUE(queue.WaitForRecords());
  ASSERT_EQ(queue.PopBatch(1, &batch), 1u);
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
  TrajectoryRecord more = NumberedRecord(3);
  size_t admitted = 1;
  EXPECT_EQ(queue.TryPushBatch(&more, 1, &admitted).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(admitted, 0u);
  std::vector<TrajectoryRecord> batch;
  EXPECT_TRUE(queue.WaitForRecords());
  EXPECT_EQ(queue.PopBatch(1, &batch), 1u);
  EXPECT_TRUE(queue.WaitForRecords());
  EXPECT_EQ(queue.PopBatch(8, &batch), 1u);
  EXPECT_FALSE(queue.WaitForRecords());  // closed and drained
}

/// TryPushBatch must leave exactly what one Push() per record would —
/// contents, counters and status — with the queue already partly full
/// and a span larger than the free space. Nothing consumes, so the
/// outcome is fully determined. kBlock has no blocking Push() to compare
/// with; its model stops at the first record that does not fit.
TEST(IngestQueueTest, BatchPushMatchesPerRecordPushes) {
  constexpr size_t kCapacity = 4;
  for (BackpressureMode mode :
       {BackpressureMode::kBlock, BackpressureMode::kShedOldest,
        BackpressureMode::kReject}) {
    for (int prefill : {0, 1, 3}) {
      for (int span : {0, 2, 10}) {
        SCOPED_TRACE(std::string(BackpressureModeName(mode)) + " prefill " +
                     std::to_string(prefill) + " span " +
                     std::to_string(span));
        std::vector<TrajectoryRecord> records;
        for (int i = 0; i < prefill + span; ++i) {
          records.push_back(NumberedRecord(i));
        }
        // The sequential per-record model.
        std::vector<double> want;
        IngestQueueCounters model;
        size_t want_admitted = 0;
        for (int i = 0; i < prefill + span; ++i) {
          const bool full = want.size() == kCapacity;
          if (full && mode == BackpressureMode::kBlock) break;
          if (full && mode == BackpressureMode::kReject) {
            ++model.rejected;
            continue;
          }
          if (full) {
            want.erase(want.begin());
            ++model.shed;
          }
          want.push_back(records[i].timestamp);
          ++model.pushed;
          model.depth_peak = std::max<int64_t>(
              model.depth_peak, static_cast<int64_t>(want.size()));
          if (i >= prefill) ++want_admitted;
        }

        IngestQueue queue(kCapacity, mode);
        size_t admitted = 0;
        ASSERT_TRUE(queue.TryPushBatch(records.data(), prefill, &admitted)
                        .ok());
        ASSERT_EQ(admitted, static_cast<size_t>(prefill));
        Status s = queue.TryPushBatch(records.data() + prefill, span,
                                      &admitted);
        EXPECT_EQ(admitted, want_admitted);
        const bool refused_some =
            mode == BackpressureMode::kReject && model.rejected > 0;
        EXPECT_EQ(s.code(),
                  refused_some ? StatusCode::kOutOfRange : StatusCode::kOk);
        IngestQueueCounters counters = queue.Counters();
        EXPECT_EQ(counters.pushed, model.pushed);
        EXPECT_EQ(counters.shed, model.shed);
        EXPECT_EQ(counters.rejected, model.rejected);
        EXPECT_EQ(counters.depth_peak, model.depth_peak);
        EXPECT_EQ(counters.depth, static_cast<int64_t>(want.size()));
        queue.Close();
        std::vector<double> got;
        std::vector<TrajectoryRecord> batch;
        while (queue.WaitForRecords()) {
          queue.PopBatch(kCapacity, &batch);
          for (const TrajectoryRecord& r : batch) got.push_back(r.timestamp);
        }
        EXPECT_EQ(got, want);
      }
    }
  }
  // The worked case: ten records into an empty shed-oldest queue of four
  // keep the newest four and shed six, earlier records of the span too.
  IngestQueue queue(kCapacity, BackpressureMode::kShedOldest);
  std::vector<TrajectoryRecord> ten;
  for (int i = 0; i < 10; ++i) ten.push_back(NumberedRecord(i));
  size_t admitted = 0;
  ASSERT_TRUE(queue.TryPushBatch(ten.data(), ten.size(), &admitted).ok());
  EXPECT_EQ(admitted, 10u);
  EXPECT_EQ(queue.Counters().shed, 6);
  std::vector<TrajectoryRecord> batch;
  ASSERT_EQ(queue.PopBatch(16, &batch), 4u);
  EXPECT_EQ(batch.front().timestamp, 6.0);
  EXPECT_EQ(batch.back().timestamp, 9.0);
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

/// `batch_span` 0 ingests one record per Ingest() call; > 0 offers spans
/// of that many records to TryIngestBatch() and re-offers each span's
/// unconsumed tail, as the event loop does with parked records.
void HammerStatsWhileIngesting(BackpressureMode mode, int batch_span = 0) {
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
      // Start only once the reader has a cut, so reads overlap ingest
      // however fast the worker drains.
      while (reads.load(std::memory_order_relaxed) == 0) {
        std::this_thread::yield();
      }
      std::vector<TrajectoryRecord> span;
      for (int i = 0; i < kPerProducer; ++i) {
        TrajectoryRecord r =
            TimedRecord(static_cast<ObjectId>(p * kPerProducer + i),
                        static_cast<double>(i));
        if (batch_span == 0) {
          EXPECT_TRUE(pipeline.Ingest(r).ok());
          continue;
        }
        span.push_back(r);
        if (static_cast<int>(span.size()) < batch_span &&
            i + 1 < kPerProducer) {
          continue;
        }
        for (size_t offset = 0; offset < span.size();) {
          IngestBatchResult result =
              pipeline.TryIngestBatch(span.data() + offset,
                                      span.size() - offset);
          EXPECT_EQ(result.refused(), 0u);
          offset += result.consumed;
          if (result.consumed == 0) std::this_thread::yield();
        }
        span.clear();
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

TEST(ServicePipelineTest, StatsCutIsConsistentUnderBatchAdmission) {
  HammerStatsWhileIngesting(BackpressureMode::kBlock, /*batch_span=*/32);
}

/// One TryIngestBatch() call over a frame with out-of-range records
/// interleaved, at a queue capacity smaller than the frame, disposes of
/// records exactly as one admission per record would: invalid records are
/// refused and counted wherever they sit, and each policy meets every
/// valid record. The queue is empty when the call starts and the first
/// run of valid records (6) is pushed in one queue hold, so capacity (4)
/// decides that run; later runs may race the worker's pops, so the
/// assertions there are what holds whatever the worker does.
TEST(ServicePipelineTest, BatchAdmissionMatchesPerRecordAdmission) {
  // v = valid, x = outside the ValidateRecord range.
  const std::string layout = "xvvvvvvxvvvxvx";
  std::vector<TrajectoryRecord> frame;
  size_t valid = 0;
  for (size_t i = 0; i < layout.size(); ++i) {
    TrajectoryRecord r = TimedRecord(static_cast<ObjectId>(i), 1.0);
    if (layout[i] == 'x') {
      r.pos.x = 1e16;
    } else {
      ++valid;
    }
    frame.push_back(r);
  }
  const size_t invalid = frame.size() - valid;

  for (BackpressureMode mode :
       {BackpressureMode::kBlock, BackpressureMode::kShedOldest,
        BackpressureMode::kReject}) {
    SCOPED_TRACE(BackpressureModeName(mode));
    ServicePipelineOptions opts = PipelineOptions(Algorithm::kSmartClosed);
    opts.queue_capacity = 4;
    opts.backpressure = mode;
    ServicePipeline pipeline(opts);
    ASSERT_TRUE(pipeline.Start().ok());

    IngestBatchResult first = pipeline.TryIngestBatch(frame.data(),
                                                      frame.size());
    int64_t calls = 1;
    ServiceStats stats = pipeline.Stats();
    EXPECT_EQ(stats.records_ingested, static_cast<int64_t>(first.accepted));
    switch (mode) {
      case BackpressureMode::kBlock: {
        // Stops at the fifth valid record: one invalid refused, four in.
        EXPECT_EQ(first.consumed, 5u);
        EXPECT_EQ(first.accepted, 4u);
        EXPECT_EQ(first.refused(), 1u);
        EXPECT_EQ(stats.records_invalid, 1);
        // Re-offering the tail, as the event loop does, finishes it.
        size_t offset = first.consumed;
        size_t accepted = first.accepted;
        size_t refused = first.refused();
        while (offset < frame.size()) {
          IngestBatchResult more = pipeline.TryIngestBatch(
              frame.data() + offset, frame.size() - offset);
          ++calls;
          if (more.consumed < frame.size() - offset) {
            // A kBlock stop lands on a valid record, never an invalid one.
            EXPECT_EQ(layout[offset + more.consumed], 'v');
          }
          offset += more.consumed;
          accepted += more.accepted;
          refused += more.refused();
          if (more.consumed == 0) std::this_thread::yield();
        }
        EXPECT_EQ(accepted, valid);
        EXPECT_EQ(refused, invalid);
        break;
      }
      case BackpressureMode::kShedOldest:
        EXPECT_EQ(first.consumed, frame.size());
        EXPECT_EQ(first.accepted, valid);
        EXPECT_EQ(first.refused(), invalid);
        EXPECT_GE(stats.queue.shed, 2);  // the first run overflows by two
        break;
      case BackpressureMode::kReject:
        EXPECT_EQ(first.consumed, frame.size());
        EXPECT_EQ(first.accepted + static_cast<size_t>(stats.queue.rejected),
                  valid);
        EXPECT_EQ(first.refused(),
                  invalid + static_cast<size_t>(stats.queue.rejected));
        EXPECT_GE(stats.queue.rejected, 2);
        break;
    }
    ASSERT_TRUE(pipeline.Flush().ok());
    stats = pipeline.Stats();
    EXPECT_EQ(stats.records_invalid, static_cast<int64_t>(invalid));
    EXPECT_EQ(stats.records_ingested + stats.queue.rejected,
              static_cast<int64_t>(valid));
    EXPECT_EQ(stats.queue.pushed, stats.records_ingested);
    // One admission sample per call, not per record.
    EXPECT_EQ(pipeline.stage_sink()
                  ->histogram(Stage::kIngestAdmission)
                  ->Snap()
                  .count,
              static_cast<uint64_t>(calls));

    // A stopped pipeline refuses the whole span; invalid records are
    // still counted as invalid, as per-record admission counts them.
    ASSERT_TRUE(pipeline.Stop().ok());
    IngestBatchResult late = pipeline.TryIngestBatch(frame.data(),
                                                     frame.size());
    EXPECT_EQ(late.consumed, frame.size());
    EXPECT_EQ(late.accepted, 0u);
    EXPECT_EQ(late.last_refusal.code(), StatusCode::kInvalidArgument);
    ServiceStats after = pipeline.Stats();
    EXPECT_EQ(after.records_invalid, static_cast<int64_t>(2 * invalid));
    EXPECT_EQ(after.records_ingested, stats.records_ingested);
    EXPECT_EQ(after.queue.pushed, stats.queue.pushed);
  }
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
