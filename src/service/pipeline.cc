#include "service/pipeline.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "core/checkpoint.h"
#include "obs/discovery_metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace tcomp {
namespace {

// Records the worker pops per state_mu_ hold: one lock hold and one
// progress wake-up per batch instead of per record, while a query or
// Flush() waits behind at most this many records.
constexpr size_t kWorkerBatchRecords = 256;

}  // namespace

ServicePipeline::ServicePipeline(const ServicePipelineOptions& options)
    : options_(options),
      queue_(options.queue_capacity, options.backpressure),
      window_(options.window),
      filler_(options.inactive_fill),
      stage_sink_(&metrics_) {}

ServicePipeline::~ServicePipeline() {
  Status s = Stop();
  if (!s.ok()) {
    TCOMP_LOG_WARNING << "pipeline shutdown: " << s.ToString();
  }
}

Status ServicePipeline::Start() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (started_) return Status::InvalidArgument("pipeline already started");
  discoverer_ = MakeDiscoverer(options_.algorithm, options_.params);
  if (!options_.checkpoint_path.empty()) {
    std::ifstream probe(options_.checkpoint_path);
    if (probe.good()) {
      TCOMP_RETURN_IF_ERROR(LoadDiscovererFromFile(
          discoverer_.get(), options_.checkpoint_path, &filler_));
      last_checkpoint_snapshot_ = discoverer_->stats().snapshots;
      resumed_ = true;
    }
  }
  // Stage reporting is timing-only: the serve-vs-batch differential runs
  // with the sink attached and stays byte-identical to the batch path.
  discoverer_->set_stage_sink(&stage_sink_);
  started_ = true;
  worker_ = std::thread(&ServicePipeline::WorkerLoop, this);
  return Status::OK();
}

Status ServicePipeline::Ingest(const TrajectoryRecord& record) {
  if (Status valid = ValidateRecord(record, options_.window); !valid.ok()) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++records_invalid_;
    return valid;
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!started_ || stopped_) {
      return Status::InvalidArgument("pipeline is not running");
    }
  }
  // The queue has its own lock; a kBlock stall here must not hold
  // state_mu_, or the worker could never drain and we would deadlock.
  // Admission latency includes any such stall — that is the signal: under
  // kBlock it is the backpressure the producer actually experienced.
  Timer admission_timer;
  admission_timer.Start();
  Status s = queue_.Push(record);
  admission_timer.Stop();
  stage_sink_.RecordStage(Stage::kIngestAdmission, admission_timer.Seconds());
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++records_ingested_;
  }
  return s;
}

IngestBatchResult ServicePipeline::TryIngestBatch(
    const TrajectoryRecord* records, size_t n) {
  // Timed whole, so the stage's _sum stays the total admission time. A
  // kBlock-full queue never stalls here: the event loop parks the
  // unconsumed tail and re-offers it, so one slow consumer cannot freeze
  // every connection.
  Timer admission_timer;
  admission_timer.Start();
  bool running = false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    running = started_ && !stopped_;
  }
  IngestBatchResult result;
  int64_t invalid = 0;
  size_t i = 0;
  while (i < n) {
    Status valid = ValidateRecord(records[i], options_.window);
    if (!valid.ok()) {
      ++invalid;
      result.last_refusal = std::move(valid);
      ++i;
      continue;
    }
    size_t end = i + 1;
    while (end < n && ValidateRecord(records[end], options_.window).ok()) {
      ++end;
    }
    if (!running) {
      result.last_refusal = Status::InvalidArgument("pipeline is not running");
      i = end;
      continue;
    }
    size_t admitted = 0;
    Status pushed = queue_.TryPushBatch(&records[i], end - i, &admitted);
    result.accepted += admitted;
    if (pushed.ok() && admitted < end - i) {
      i += admitted;  // kBlock at capacity: records[i, n) stay unconsumed
      break;
    }
    if (!pushed.ok()) result.last_refusal = std::move(pushed);
    i = end;
  }
  result.consumed = i;
  if (result.accepted > 0 || invalid > 0) {
    std::lock_guard<std::mutex> lock(state_mu_);
    records_ingested_ += static_cast<int64_t>(result.accepted);
    records_invalid_ += invalid;
  }
  admission_timer.Stop();
  stage_sink_.RecordStage(Stage::kIngestAdmission, admission_timer.Seconds());
  return result;
}

void ServicePipeline::PushToWindow(const TrajectoryRecord& record) {
  // Records passed the window's own admission predicate (ValidateRecord)
  // at Ingest(); a Push failure here would mean state corruption, so
  // surface it loudly.
  Status s = window_.Push(record, &ready_);
  if (!s.ok()) {
    TCOMP_LOG_ERROR << "sliding window rejected queued record: "
                    << s.ToString();
    return;
  }
  ProcessReady();
}

void ServicePipeline::ProcessReady() {
  for (const Snapshot& snap : ready_) {
    Timer close_timer;
    close_timer.Start();
    discoverer_->ProcessSnapshot(filler_.Fill(snap), nullptr);
    close_timer.Stop();
    stage_sink_.RecordStage(Stage::kSnapshotClose, close_timer.Seconds());
    double wall_ms = close_timer.Seconds() * 1e3;
    if (options_.slow_snapshot_ms > 0.0 &&
        wall_ms > options_.slow_snapshot_ms) {
      // One structured line per slow snapshot: the whole-close wall time
      // plus the per-stage breakdown the discoverer just reported. The
      // stages are nested inside the close, so they need not sum to it
      // (fill, window bookkeeping, and report handling make the rest).
      char line[256];
      std::snprintf(
          line, sizeof(line),
          "slow snapshot: index=%lld wall_ms=%.3f maintain_ms=%.3f "
          "cluster_ms=%.3f intersect_ms=%.3f closure_ms=%.3f objects=%zu",
          static_cast<long long>(discoverer_->stats().snapshots),
          wall_ms, stage_sink_.last_seconds(Stage::kMaintain) * 1e3,
          stage_sink_.last_seconds(Stage::kCluster) * 1e3,
          stage_sink_.last_seconds(Stage::kIntersect) * 1e3,
          stage_sink_.last_seconds(Stage::kClosure) * 1e3, snap.size());
      TCOMP_LOG_WARNING << line;
    }
    if (options_.checkpoint_every > 0 &&
        discoverer_->stats().snapshots - last_checkpoint_snapshot_ >=
            options_.checkpoint_every) {
      Status s = CheckpointLocked();
      if (!s.ok()) {
        TCOMP_LOG_WARNING << "auto-checkpoint failed: " << s.ToString();
      }
    }
  }
  ready_.clear();
}

void ServicePipeline::DrainReorderBuffer(bool everything) {
  double watermark = max_timestamp_seen_ - options_.allowed_lateness;
  while (!reorder_.empty() &&
         (everything || reorder_.top().record.timestamp <= watermark)) {
    stage_sink_.RecordStage(
        Stage::kReorderHold,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      reorder_.top().arrival)
            .count());
    PushToWindow(reorder_.top().record);
    reorder_.pop();
  }
}

void ServicePipeline::ProcessRecord(const TrajectoryRecord& record) {
  if (options_.allowed_lateness <= 0.0) {
    // Lateness disabled: arrival order is stream order by contract, so
    // nothing is ever "late" and records_late_ stays 0.
    PushToWindow(record);
    return;
  }
  if (any_timestamp_seen_ &&
      record.timestamp <= max_timestamp_seen_ - options_.allowed_lateness) {
    // At or behind the watermark: its snapshot may already be closed.
    // `<=` matches DrainReorderBuffer's release rule — a record with
    // timestamp exactly at the watermark is immediately releasable,
    // i.e. the lateness bound no longer protects it, so it counts as
    // late. (It is still processed: the window folds it into the
    // current snapshot — bounded staleness, same as the batch path.)
    ++records_late_;
  }
  if (!any_timestamp_seen_ || record.timestamp > max_timestamp_seen_) {
    max_timestamp_seen_ = record.timestamp;
    any_timestamp_seen_ = true;
  }
  reorder_.push(HeldRecord{record, std::chrono::steady_clock::now()});
  if (static_cast<int64_t>(reorder_.size()) > reorder_held_peak_) {
    reorder_held_peak_ = static_cast<int64_t>(reorder_.size());
  }
  DrainReorderBuffer(/*everything=*/false);
}

void ServicePipeline::WorkerLoop() {
  std::vector<TrajectoryRecord> batch;
  batch.reserve(kWorkerBatchRecords);
  // Wait without state_mu_, so queries and Flush() run while the queue is
  // empty; pop under it, so no Stats() cut sees a popped record that is
  // not yet counted as processed.
  while (queue_.WaitForRecords()) {
    std::lock_guard<std::mutex> lock(state_mu_);
    queue_.PopBatch(kWorkerBatchRecords, &batch);
    for (const TrajectoryRecord& record : batch) ProcessRecord(record);
    records_processed_ += static_cast<int64_t>(batch.size());
    progress_cv_.notify_all();
  }
}

Status ServicePipeline::Flush() {
  std::unique_lock<std::mutex> lock(state_mu_);
  if (!started_ || stopped_) {
    return Status::InvalidArgument("pipeline is not running");
  }
  int64_t target = records_ingested_;
  // Records shed under kShedOldest leave the queue without ever reaching
  // the worker, so they count toward the barrier; waiting on processed
  // alone would never terminate once anything was shed. The queue is
  // FIFO for both pops and sheds, so processed + shed >= target means
  // every record admitted before this call has left the queue one way or
  // the other. (Queue-empty always satisfies the condition, and the
  // worker signals after every batch it pops, so the wait cannot miss its
  // wakeup.)
  progress_cv_.wait(lock, [&] {
    return stopped_ ||
           records_processed_ + queue_.Counters().shed >= target;
  });
  if (stopped_) {
    // A concurrent Stop() already drained the tail and wrote the final
    // checkpoint; re-running the drain here would process it twice.
    return Status::InvalidArgument("pipeline is not running");
  }
  DrainReorderBuffer(/*everything=*/true);
  window_.Flush(&ready_);
  ProcessReady();
  return Status::OK();
}

Status ServicePipeline::CheckpointLocked() {
  if (options_.checkpoint_path.empty()) return Status::OK();
  Timer write_timer;
  write_timer.Start();
  Status s =
      SaveDiscovererToFile(*discoverer_, options_.checkpoint_path, &filler_);
  write_timer.Stop();
  stage_sink_.RecordStage(Stage::kCheckpointWrite, write_timer.Seconds());
  TCOMP_RETURN_IF_ERROR(s);
  ++checkpoints_written_;
  last_checkpoint_snapshot_ = discoverer_->stats().snapshots;
  return Status::OK();
}

Status ServicePipeline::Checkpoint() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!started_) return Status::InvalidArgument("pipeline is not running");
  return CheckpointLocked();
}

Status ServicePipeline::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!started_ || stopped_) return Status::OK();
  }
  // Close the queue: producers start failing, the worker drains what is
  // left and exits. Join *without* state_mu_ (the worker takes it).
  queue_.Close();
  worker_.join();
  std::lock_guard<std::mutex> lock(state_mu_);
  stopped_ = true;
  progress_cv_.notify_all();
  // Everything admitted is now processed; emit the tail.
  DrainReorderBuffer(/*everything=*/true);
  window_.Flush(&ready_);
  ProcessReady();
  return CheckpointLocked();
}

bool ServicePipeline::started() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return started_;
}

std::vector<Companion> ServicePipeline::Companions() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (discoverer_ == nullptr) return {};
  return discoverer_->log().companions();
}

ServiceStats ServicePipeline::Stats() const {
  // Consistent cut, by fixed lock order: state_mu_ first, then the
  // queue's internal mutex inside Counters() — the same nesting Flush()
  // and the worker's PopBatch() use, so the order can never invert and
  // deadlock. Holding state_mu_ freezes every pipeline counter (the worker
  // bumps them only under state_mu_) while Counters() samples
  // pushed/popped/shed/depth in one critical section of the queue mutex.
  // Queue counters can still advance relative to the frozen pipeline
  // counters, but only in the direction that preserves the ServiceStats
  // invariants: a concurrent push grows pushed before records_ingested_
  // is bumped (pushed >= ingested). popped cannot move at all: the worker
  // pops only under state_mu_ and counts the batch as processed before it
  // releases it, so the cut sees popped == processed. The depth sampled
  // inside Counters() makes pushed == popped + shed + depth exact, not
  // torn.
  std::lock_guard<std::mutex> lock(state_mu_);
  ServiceStats stats;
  if (discoverer_ != nullptr) {
    stats.discovery = discoverer_->stats();
    stats.companions_distinct =
        static_cast<int64_t>(discoverer_->log().size());
  }
  stats.queue = queue_.Counters();
  stats.records_ingested = records_ingested_;
  stats.records_processed = records_processed_;
  stats.records_invalid = records_invalid_;
  stats.records_late = records_late_;
  stats.reorder_held_peak = reorder_held_peak_;
  stats.snapshots_emitted = window_.emitted();
  stats.checkpoints_written = checkpoints_written_;
  stats.resumed = resumed_;
  return stats;
}

std::string ServicePipeline::MetricsText() const {
  // Counter series are synced from the authoritative Stats() snapshot at
  // exposition time (their sources are monotonic, so Set() keeps counter
  // semantics); stage histograms record live and are read as-is. Every
  // series is (re-)registered on each call, so a single call exposes the
  // complete, deterministic name set — even before any data has flowed.
  ServiceStats stats = Stats();
  ExportDiscoveryMetrics(stats.discovery, stats.companions_distinct,
                         &metrics_);
  auto counter = [&](const char* name, const char* help, int64_t value) {
    metrics_.GetCounter(name, "", help)
        ->Set(static_cast<uint64_t>(value < 0 ? 0 : value));
  };
  auto gauge = [&](const char* name, const char* help, int64_t value) {
    metrics_.GetGauge(name, "", help)->Set(value);
  };
  counter("tcomp_records_ingested_total", "Records accepted by Ingest()",
          stats.records_ingested);
  counter("tcomp_records_processed_total",
          "Records consumed by the pipeline worker", stats.records_processed);
  counter("tcomp_records_invalid_total",
          "Records rejected before admission (outside the record range)",
          stats.records_invalid);
  counter("tcomp_records_late_total",
          "Records at or behind the watermark on arrival",
          stats.records_late);
  counter("tcomp_queue_pushed_total", "Records admitted to the ingest queue",
          stats.queue.pushed);
  counter("tcomp_queue_popped_total",
          "Records handed from the queue to the worker", stats.queue.popped);
  counter("tcomp_queue_shed_total",
          "Records dropped by shed-oldest backpressure", stats.queue.shed);
  counter("tcomp_queue_rejected_total",
          "Pushes refused by reject backpressure", stats.queue.rejected);
  counter("tcomp_snapshots_emitted_total",
          "Snapshots closed by the sliding window", stats.snapshots_emitted);
  counter("tcomp_checkpoints_written_total", "Checkpoint files written",
          stats.checkpoints_written);
  gauge("tcomp_queue_depth", "Ingest queue depth at sampling time",
        stats.queue.depth);
  gauge("tcomp_queue_depth_peak", "High-watermark ingest queue depth",
        stats.queue.depth_peak);
  gauge("tcomp_reorder_held_peak",
        "High-watermark reorder-buffer size (records held)",
        stats.reorder_held_peak);
  gauge("tcomp_resumed", "1 if state was restored from a checkpoint",
        stats.resumed ? 1 : 0);
  gauge("tcomp_shards", "Configured shard count (--shards)",
        options_.params.cluster.threads);
  return metrics_.ExpositionText();
}

}  // namespace tcomp
