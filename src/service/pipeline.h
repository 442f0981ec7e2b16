#ifndef TCOMP_SERVICE_PIPELINE_H_
#define TCOMP_SERVICE_PIPELINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "core/candidate.h"
#include "core/discoverer.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "service/ingest_queue.h"
#include "shard/sharded_engine.h"
#include "stream/inactive_period.h"
#include "stream/record.h"
#include "stream/sliding_window.h"
#include "util/status.h"

namespace tcomp {

struct ServicePipelineOptions {
  Algorithm algorithm = Algorithm::kBuddy;
  DiscoveryParams params;
  SlidingWindowOptions window;
  /// Carry-forward threshold for objects missing from a snapshot
  /// (stream/inactive_period.h); 0 disables filling.
  int inactive_fill = 0;

  /// Admission queue between protocol sessions and the worker.
  size_t queue_capacity = 4096;
  BackpressureMode backpressure = BackpressureMode::kBlock;

  /// Watermark lateness bound, in stream seconds. 0 keeps arrival order:
  /// records go straight into the sliding window exactly as the batch
  /// path feeds them (the differential tests rely on this). > 0 holds
  /// records in a reorder buffer and releases them in timestamp order
  /// once the watermark — max timestamp seen minus this bound — passes
  /// them, so bounded out-of-order arrival cannot close a snapshot early.
  double allowed_lateness = 0.0;

  /// Checkpoint file. Empty disables checkpointing entirely. If the file
  /// exists at Start(), the discoverer and inactive-period filler state
  /// are restored from it (resume-on-restart).
  std::string checkpoint_path;
  /// Auto-checkpoint period in snapshots (0 = only on Stop()).
  int64_t checkpoint_every = 0;

  /// Slow-snapshot log threshold in wall milliseconds: a snapshot whose
  /// close (window → discoverer) exceeds it emits one structured WARNING
  /// line with the per-stage breakdown. 0 disables the log. Logging only —
  /// never affects processing or results.
  double slow_snapshot_ms = 0.0;

  /// Shard count for the C-step (--shards). 1 (the default) reproduces
  /// the single-worker path exactly; > 1 routes each snapshot's
  /// clustering through the sharded engine (src/shard/) — partition →
  /// per-shard ε-neighborhoods → deterministic merge — with products
  /// byte-identical to the batch path at every shard count
  /// (shard_differential_test pins this). Algorithms without an object
  /// clustering stage (BU) fall back to the built-in path with one
  /// WARNING; no shard state survives a snapshot close, so checkpoints
  /// taken at one shard count resume at any other.
  int shards = 1;
};

/// Pipeline-level counters; discovery and queue counters ride along so one
/// Stats() call captures a consistent picture of every stage.
///
/// Consistency contract (see Stats() for the locking that provides it):
///   queue.pushed == queue.popped + queue.shed + queue.depth
///   queue.popped >= records_processed            (≤ 1 record in flight)
///   queue.pushed >= records_ingested             (bump follows the push)
struct ServiceStats {
  DiscoveryStats discovery;
  IngestQueueCounters queue;
  int64_t records_ingested = 0;   // accepted by Ingest()
  int64_t records_processed = 0;  // consumed by the worker
  int64_t records_invalid = 0;    // rejected before admission (outside
                                  // the ValidateRecord range)
  int64_t records_late = 0;       // arrived behind the watermark
  int64_t reorder_held_peak = 0;  // high-watermark reorder-buffer size
  int64_t snapshots_emitted = 0;  // windows closed by the worker
  int64_t checkpoints_written = 0;
  int64_t companions_distinct = 0;  // deduplicated log size
  bool resumed = false;           // state restored from a checkpoint

  // Sharded C-step (zeros / defaults when options.shards == 1):
  int shards = 1;                  // shard count actually serving
  bool shard_fallback = false;     // --shards > 1 but the algorithm has
                                   // no object clustering to shard (BU)
  int64_t shard_snapshots = 0;     // snapshots clustered by the engine
  int64_t shard_halo_objects = 0;  // Σ halo replicas across snapshots
};

/// The long-running companion-discovery daemon core: a bounded ingest
/// queue feeding the SlidingWindow → CompanionDiscoverer chain on one
/// dedicated worker thread. Producers call Ingest() from any thread;
/// queries are served from a consistent view at any time. As on the batch
/// path, options.params.cluster.threads > 1 fans BU's split, retired-token
/// expansion, core-flag and intersection loops out over the process-wide
/// ThreadPool; CI and SC ignore it (their parallel C-step is --shards).
///
/// Lifecycle: Start() → {Ingest() | Flush() | queries}* → Stop().
/// Stop() drains the queue, flushes the reorder buffer and the open
/// window, writes a final checkpoint, and joins the worker; it is
/// idempotent and also runs from the destructor as a backstop.
class ServicePipeline {
 public:
  explicit ServicePipeline(const ServicePipelineOptions& options);
  ~ServicePipeline();

  ServicePipeline(const ServicePipeline&) = delete;
  ServicePipeline& operator=(const ServicePipeline&) = delete;

  /// Creates the discoverer (restoring checkpoint state if present) and
  /// starts the worker. Must be called exactly once, before anything else.
  Status Start();

  /// Validates (ValidateRecord against options.window) and admits one
  /// record (thread-safe). Backpressure policy
  /// decides what happens at capacity — kBlock stalls the caller, kReject
  /// returns OutOfRange, kShedOldest always succeeds.
  Status Ingest(const TrajectoryRecord& record);

  /// Nonblocking variant for the event-loop front-end, which must never
  /// sleep inside an admission call. Semantics match Ingest() except
  /// under kBlock at capacity, where it returns OK with *admitted=false
  /// and the caller retries once the worker drains. *admitted is false on
  /// every non-OK status too.
  Status TryIngest(const TrajectoryRecord& record, bool* admitted);

  /// Barrier: waits until every record admitted before the call has been
  /// processed, then pushes the reorder buffer and the in-progress window
  /// through the discoverer. Queries after Flush() see all prior ingests.
  Status Flush();

  /// Writes a checkpoint of the discoverer state now (thread-safe).
  /// NotFound-free no-op returning OK when checkpointing is disabled.
  Status Checkpoint();

  /// Graceful shutdown: close queue, drain, flush, final checkpoint.
  Status Stop();

  bool started() const;

  /// Snapshot of the deduplicated companion log (thread-safe copy).
  std::vector<Companion> Companions() const;
  /// Consistent counter snapshot across every stage (thread-safe).
  ServiceStats Stats() const;

  /// Deterministic, name-sorted Prometheus-style exposition of every
  /// pipeline metric: stage latency histograms, queue/record counters,
  /// and the discovery counters. Names and labels are byte-identical
  /// across runs; only timing-valued series differ. Thread-safe.
  std::string MetricsText() const;
  /// The registry behind MetricsText(); stage histograms and counters can
  /// be inspected directly (tests, embedding applications).
  const MetricsRegistry& metrics() const { return metrics_; }
  /// Mutable access for co-located components (the event-loop server)
  /// that publish their own series into the same exposition. The registry
  /// is internally synchronized.
  MetricsRegistry* mutable_metrics() { return &metrics_; }
  /// The pipeline's stage sink; the server records its connection-layer
  /// stages (frame decode, connection flush) through it so every stage
  /// lands in one histogram family.
  MetricsStageSink* stage_sink() { return &stage_sink_; }

  const ServicePipelineOptions& options() const { return options_; }

 private:
  void WorkerLoop();
  /// Releases ripe reorder-buffer records into the window. Caller holds
  /// state_mu_. `everything` forces a full drain (flush/stop).
  void DrainReorderBuffer(bool everything);
  void PushToWindow(const TrajectoryRecord& record);
  void ProcessReady();  // feeds ready_ snapshots to the discoverer
  Status CheckpointLocked();

  const ServicePipelineOptions options_;
  IngestQueue queue_;

  // state_mu_ guards everything below: the window/discoverer chain, the
  // reorder buffer, and the pipeline counters. The worker holds it while
  // processing one record; queries take it for the copy-out.
  mutable std::mutex state_mu_;
  std::condition_variable progress_cv_;  // signaled per processed record
  // Declared before discoverer_ so the engine outlives the discoverer
  // holding its provider closure. Created in Start() iff options_.shards
  // > 1 and the algorithm accepts an external C-step; never reset after.
  std::unique_ptr<ShardedClusterEngine> shard_engine_;
  bool shard_fallback_ = false;  // set in Start(); immutable after
  std::unique_ptr<CompanionDiscoverer> discoverer_;
  SlidingWindowSnapshotter window_;
  InactivePeriodFiller filler_;
  std::vector<Snapshot> ready_;
  // Reorder-buffer entry: the record plus its arrival instant, so the
  // release path can report how long the watermark held it back. The
  // arrival time never participates in ordering — products are identical
  // with or without it.
  struct HeldRecord {
    TrajectoryRecord record;
    std::chrono::steady_clock::time_point arrival;
  };
  // Min-heap on timestamp (greater-than comparator) for watermarking.
  struct LaterTimestamp {
    bool operator()(const HeldRecord& a, const HeldRecord& b) const {
      return a.record.timestamp > b.record.timestamp;
    }
  };
  std::priority_queue<HeldRecord, std::vector<HeldRecord>, LaterTimestamp>
      reorder_;
  double max_timestamp_seen_ = 0.0;
  bool any_timestamp_seen_ = false;
  int64_t records_ingested_ = 0;  // admitted to the queue
  int64_t records_processed_ = 0;  // consumed by the worker
  int64_t records_invalid_ = 0;
  int64_t records_late_ = 0;
  int64_t reorder_held_peak_ = 0;
  int64_t checkpoints_written_ = 0;
  int64_t last_checkpoint_snapshot_ = 0;
  bool resumed_ = false;

  // Observability. The registry's instruments are internally atomic:
  // recording does not take state_mu_, and exposition (MetricsText) takes
  // state_mu_ only to sync the authoritative pipeline counters in. The
  // stage sink is wired into the discoverer at Start() and shared with
  // the pipeline's own stages (admission, reorder hold, snapshot close,
  // checkpoint write). Mutable: publishing counters is observation, not
  // state mutation.
  mutable MetricsRegistry metrics_;
  MetricsStageSink stage_sink_;

  std::thread worker_;
  // Serializes Stop() end to end (a protocol SHUTDOWN and the signal path
  // can race); state_mu_ cannot be held across the worker join.
  //
  // Canonical acquisition order: stop_mu_ BEFORE state_mu_, never the
  // reverse. Stop() holds stop_mu_ across its state_mu_ critical
  // sections; any path that held state_mu_ while taking stop_mu_ would
  // deadlock against it (the PR 5 Stats() inversion). Enforced by the
  // lock-order pass in tools/analyze.
  std::mutex stop_mu_;
  bool started_ = false;   // guarded by state_mu_
  bool stopped_ = false;   // guarded by state_mu_
};

}  // namespace tcomp

#endif  // TCOMP_SERVICE_PIPELINE_H_
