#ifndef TCOMP_CORE_DISCOVERER_H_
#define TCOMP_CORE_DISCOVERER_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/candidate.h"
#include "core/dbscan.h"
#include "core/snapshot.h"
#include "core/stage.h"
#include "util/status.h"

namespace tcomp {

/// Parameters shared by every companion-discovery algorithm.
struct DiscoveryParams {
  /// Density clustering thresholds ε and μ (Definitions 1–2).
  DbscanParams cluster;
  /// Companion size threshold δs (Definition 3).
  int size_threshold = 10;
  /// Companion duration threshold δt, in the stream's time unit. With
  /// unit-duration snapshots this is "number of snapshots".
  double duration_threshold = 10.0;
  /// Buddy radius threshold δγ (Definition 6); only the buddy-based
  /// algorithm reads it. If ≤ 0 it defaults to ε/2, the paper's
  /// recommended setting (Lemma 2 requires δγ ≤ ε/2).
  double buddy_radius = 0.0;
};

/// Cost counters every discoverer maintains; these are exactly the
/// quantities the paper's figures plot.
struct DiscoveryStats {
  int64_t snapshots = 0;
  /// Candidate×cluster intersection operations (Figs. 4/6/13 trace this).
  int64_t intersections = 0;
  /// Pairwise distance evaluations in the clustering stage.
  int64_t distance_ops = 0;
  /// Peak over snapshots of the stored candidate-set size in objects —
  /// the paper's space-cost metric (Figs. 15b, 16b, 17b, 23b).
  int64_t candidate_objects_peak = 0;
  /// Candidate-set size after the most recent snapshot.
  int64_t candidate_objects_last = 0;
  /// Companion reports before deduplication.
  int64_t companions_reported = 0;

  // Buddy-based discovery only (zero elsewhere):
  int64_t buddy_pairs_checked = 0;   // pairs examined by Lemma 3
  int64_t buddy_pairs_pruned = 0;    // pairs pruned by Lemma 3
  int64_t buddies_total = 0;         // Σ per-snapshot buddy count
  int64_t buddies_unchanged = 0;     // Σ per-snapshot unchanged buddies
  int64_t buddy_member_sum = 0;      // Σ per-snapshot Σ|b| (avg size calc)

  // Incremental clustering layer (core/incremental_cluster.h); zero for
  // algorithms that re-cluster from scratch (BU) and when a cluster
  // provider replaces the built-in clusterer. `cluster_reuse / (cluster_reuse + cluster_dirty)` is the
  // fraction of object-snapshots whose neighborhood state was carried
  // over — the coherence the layer exploits.
  int64_t cluster_reuse = 0;          // Σ per-snapshot stable objects
  int64_t cluster_dirty = 0;          // Σ per-snapshot reprobed objects
  int64_t cluster_full_rebuilds = 0;  // snapshots that fell back to full

  // SoA ε-filter kernels (util/eps_filter.h): batches dispatched and
  // candidate lanes streamed through them. Zero when the algorithm's
  // clustering path has no batched filter or a cluster provider replaces
  // it. Monitoring-grade only: NOT serialized by SaveCommon (the values
  // differ between built-in and provider runs of identical products, so
  // they must stay out of the checkpoint byte stream) — they restart
  // from zero after a resume, like process counters do.
  int64_t soa_batches = 0;
  int64_t soa_lanes = 0;

  /// Per-stage wall time in seconds: M-step (buddy maintenance), C-step
  /// (clustering), I-step (candidate intersection). Fig. 19.
  double maintain_seconds = 0.0;
  double cluster_seconds = 0.0;
  double intersect_seconds = 0.0;
  /// Wall time inside the C-step's ε-neighborhood filtering portion
  /// (whichever kernel served it). A subset of cluster_seconds; not
  /// serialized, same rationale as the soa_* counters.
  double eps_filter_seconds = 0.0;

  double total_seconds() const {
    return maintain_seconds + cluster_seconds + intersect_seconds;
  }
  double average_buddy_size() const {
    return buddies_total == 0
               ? 0.0
               : static_cast<double>(buddy_member_sum) /
                     static_cast<double>(buddies_total);
  }
};

/// Upper bound on any element count read from a checkpoint stream
/// (companion-log entries, members per companion, candidates, buddies,
/// ...). Counts beyond it cannot come from a real run — LoadState returns
/// Status::Corruption instead of attempting a multi-GB `resize` from a
/// corrupt or hostile file.
inline constexpr uint64_t kMaxCheckpointCount = 1ull << 24;  // 16.7M

/// The companion-discovery algorithms of the paper.
enum class Algorithm {
  kClusteringIntersection,  // CI — Algorithm 1 (convoy-style baseline)
  kSmartClosed,             // SC — Algorithm 2
  kBuddy,                   // BU — Algorithm 5
};

const char* AlgorithmName(Algorithm algorithm);

/// Incremental traveling-companion discoverer: feed snapshots in stream
/// order; qualified companions are reported as soon as their duration
/// crosses δt (paper problem definition, Section II).
///
/// Thread-compatibility: instances are stateful and not thread-safe; use
/// one instance per stream.
class CompanionDiscoverer {
 public:
  /// Observer invoked on *every* qualification event (before the log's
  /// deduplication/closedness filtering): a persisting companion fires
  /// once per snapshot it stays qualified. Used by CompanionTimeline to
  /// reconstruct companion lifetimes.
  using ReportSink =
      std::function<void(const ObjectSet& objects, double duration,
                         int64_t snapshot_index)>;

  virtual ~CompanionDiscoverer() = default;

  /// Processes the next snapshot. If `newly_qualified` is non-null, the
  /// companions whose object set qualified for the first time during this
  /// snapshot are appended to it.
  virtual void ProcessSnapshot(const Snapshot& snapshot,
                               std::vector<Companion>* newly_qualified) = 0;

  /// Every distinct companion reported so far.
  const CompanionLog& log() const { return log_; }

  const DiscoveryStats& stats() const { return stats_; }

  void set_report_sink(ReportSink sink) { report_sink_ = std::move(sink); }

  /// Observability hook: per-snapshot stage durations (maintain, cluster,
  /// intersect, closure) are reported here in addition to the cumulative
  /// DiscoveryStats seconds. Null (the default) disables reporting. The
  /// sink must outlive the discoverer and only ever receives timing
  /// values — it cannot influence products (the differential suites pin
  /// byte-identical output with and without a sink attached).
  void set_stage_sink(StageTimerSink* sink) { stage_sink_ = sink; }

  /// Replaces the algorithm's per-snapshot object clustering with an
  /// external backend (the sharded C-step engine, a spatial index, ...).
  /// The provider must obey the Clustering determinism spec of
  /// core/dbscan.h, in which case products are unchanged by construction
  /// — only where the distance evaluations happen moves. Returns false
  /// when the algorithm has no object-clustering stage to replace (BU
  /// clusters buddies, not raw objects); callers must then fall back to
  /// the built-in path (see ServicePipeline's --shards fallback story).
  /// Pass an empty provider to restore the built-in clustering.
  virtual bool SetClusterProvider(ClusterProvider provider) {
    (void)provider;
    return false;
  }

  virtual Algorithm algorithm() const = 0;
  std::string name() const { return AlgorithmName(algorithm()); }

  /// Drops all stream state (candidates, buddies, log, stats). The
  /// report sink is kept.
  virtual void Reset() = 0;

  /// Checkpointing: writes/restores the complete stream state (candidate
  /// sets, buddy structures, companion log, counters) as a versioned text
  /// record, so a monitoring process can resume a stream after a restart.
  /// See core/checkpoint.h for the file-level convenience wrappers.
  /// LoadState() replaces the current state; the parameters the
  /// discoverer was constructed with must match the saved run's.
  virtual Status SaveState(std::ostream& out) const = 0;
  virtual Status LoadState(std::istream& in) = 0;

 protected:
  /// Serialization helpers for the state every algorithm shares
  /// (defined in discoverer.cc).
  void SaveCommon(std::ostream& out) const;
  Status LoadCommon(std::istream& in);
  /// Reads one counted object set, "n id_1 ... id_n", from a checkpoint
  /// stream. Returns Status::Corruption naming `what` when the count is
  /// unreadable or above kMaxCheckpointCount, a member is unreadable, or
  /// the members are not strictly ascending — the ObjectSet invariant
  /// every set operation relies on, which a corrupt file must not break
  /// silently.
  static Status ReadObjectSet(std::istream& in, const char* what,
                              ObjectSet* out);
  /// The "candidates" section of CI and SC, whose candidates are plain
  /// object sets with a duration.
  static void SaveCandidates(std::ostream& out,
                             const std::vector<Candidate>& candidates);
  static Status LoadCandidates(std::istream& in,
                               std::vector<Candidate>* candidates);
  /// Shared reporting path: feeds the sink, the deduplicating log, and
  /// the caller's newly-qualified list. Implementations call this for
  /// every qualifying candidate.
  void ReportCompanion(const ObjectSet& objects, double duration,
                       std::vector<Companion>* newly_qualified) {
    ++stats_.companions_reported;
    if (report_sink_) report_sink_(objects, duration, snapshot_index_);
    if (log_.Report(objects, duration, snapshot_index_) &&
        newly_qualified != nullptr) {
      newly_qualified->push_back(
          Companion{objects, duration, snapshot_index_});
    }
  }

  /// Forwards one stage duration to the sink, if any. Timing only — never
  /// read back, never branching on the value.
  void RecordStage(Stage stage, double seconds) {
    if (stage_sink_ != nullptr) stage_sink_->RecordStage(stage, seconds);
  }

  CompanionLog log_;
  DiscoveryStats stats_;
  ReportSink report_sink_;
  StageTimerSink* stage_sink_ = nullptr;
  int64_t snapshot_index_ = 0;
};

/// Factory for the three incremental algorithms.
std::unique_ptr<CompanionDiscoverer> MakeDiscoverer(
    Algorithm algorithm, const DiscoveryParams& params);

}  // namespace tcomp

#endif  // TCOMP_CORE_DISCOVERER_H_
