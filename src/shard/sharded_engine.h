#ifndef TCOMP_SHARD_SHARDED_ENGINE_H_
#define TCOMP_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/dbscan.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "core/stage.h"
#include "shard/merge.h"
#include "shard/partition.h"
#include "shard/shard_worker.h"

namespace tcomp {

/// Cumulative counters of the sharded engine; monitoring-grade relaxed
/// atomics inside the engine, sampled by stats() / ExportMetrics().
struct ShardEngineStats {
  int64_t snapshots = 0;       // snapshots routed through the engine
  int64_t routed_objects = 0;  // Σ snapshot sizes
  int64_t halo_objects = 0;    // Σ halo replicas across all snapshots
  int64_t halo_peak = 0;       // largest per-snapshot halo total
  int64_t merge_fanin_last = 0;  // effective shard count, last snapshot
};

/// The sharded C-step: partition → per-shard ε-neighborhoods → merge
/// stitch, producing a Clustering byte-identical to Dbscan() on the whole
/// snapshot (shard_partition_test and shard_differential_test pin this).
/// Injected into a discoverer through CompanionDiscoverer::
/// SetClusterProvider, replacing its per-snapshot clustering while the
/// M/I-steps run unchanged.
///
/// The stripes fan out through ParallelForShards, the pool `--threads`
/// also uses: shard 0 is computed inline on the calling thread, shards
/// 1..N-1 on the pool's workers. Snapshots are processed one at a time —
/// Cluster() returns only after the merge — so no shard state survives a
/// snapshot close (the per-stripe scratch slots carry capacity, not
/// results). That is the whole checkpoint story: a checkpoint taken
/// under --shards K resumes at any other shard count because there is
/// nothing shard-shaped to save (DESIGN.md §1.8).
///
/// Thread-safety: Cluster() from one thread at a time (the pipeline
/// worker); stats() and ExportMetrics() are safe concurrently with it.
class ShardedClusterEngine {
 public:
  ShardedClusterEngine(const DbscanParams& params, int num_shards);

  ShardedClusterEngine(const ShardedClusterEngine&) = delete;
  ShardedClusterEngine& operator=(const ShardedClusterEngine&) = delete;

  /// Clusters `snapshot` across the shards. `distance_ops`, if non-null,
  /// is incremented by the engine's distance evaluations (deterministic
  /// for a fixed shard count; not comparable across shard counts — the
  /// differential contract compares products, not op counts).
  Clustering Cluster(const Snapshot& snapshot, int64_t* distance_ops);

  /// Timing-only per-snapshot stage reporting (shard_route,
  /// shard_cluster, merge_stitch). The sink must outlive the engine.
  void set_stage_sink(StageTimerSink* sink) { stage_sink_ = sink; }

  int num_shards() const { return num_shards_; }
  ShardEngineStats stats() const;

  /// Registers and refreshes the engine's gauge/counter series on
  /// `registry`: shard count, routing and halo counters, merge fan-in.
  /// The name set is the same at every shard count.
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  const DbscanParams params_;
  const int num_shards_;
  StageTimerSink* stage_sink_ = nullptr;
  // One sweep scratch slot per stripe, indexed by shard: each stripe task
  // owns its slot for the fan-out, and the slots keep their capacity
  // across snapshots (capacity only — no results survive a snapshot).
  std::vector<std::unique_ptr<StripeScratch>> scratch_;
  // The snapshot's neighbor table, which the stripes fill; reset per
  // snapshot, capacity retained.
  Arena table_arena_;

  std::atomic<int64_t> snapshots_{0};
  std::atomic<int64_t> routed_objects_{0};
  std::atomic<int64_t> halo_objects_{0};
  std::atomic<int64_t> halo_peak_{0};
  std::atomic<int64_t> merge_fanin_last_{0};
};

}  // namespace tcomp

#endif  // TCOMP_SHARD_SHARDED_ENGINE_H_
