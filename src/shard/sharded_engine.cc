#include "shard/sharded_engine.h"

#include <memory>
#include <vector>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace tcomp {

ShardedClusterEngine::ShardedClusterEngine(const DbscanParams& params,
                                           int num_shards)
    : params_(params),
      num_shards_(num_shards < 1 ? 1 : num_shards) {}

Clustering ShardedClusterEngine::Cluster(const Snapshot& snapshot,
                                         int64_t* distance_ops) {
  Timer route_timer;
  route_timer.Start();
  ShardPlan plan = PartitionSnapshot(snapshot, num_shards_, params_.epsilon);
  route_timer.Stop();
  if (stage_sink_ != nullptr) {
    stage_sink_->RecordStage(Stage::kShardRoute, route_timer.Seconds());
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  routed_objects_.fetch_add(static_cast<int64_t>(snapshot.size()),
                            std::memory_order_relaxed);
  halo_objects_.fetch_add(plan.halo_objects, std::memory_order_relaxed);
  if (plan.halo_objects > halo_peak_.load(std::memory_order_relaxed)) {
    halo_peak_.store(plan.halo_objects, std::memory_order_relaxed);
  }
  merge_fanin_last_.store(static_cast<int64_t>(plan.slices.size()),
                          std::memory_order_relaxed);

  Timer work_timer;
  work_timer.Start();
  const size_t shards = plan.slices.size();
  while (scratch_.size() < shards) {
    scratch_.push_back(std::make_unique<StripeScratch>());
  }
  table_arena_.Reset();
  internal::NeighborTableBuilder table(snapshot.size(), &table_arena_);
  ParallelForShards(static_cast<int>(shards), [&](int k, int) {
    const size_t slot = static_cast<size_t>(k);
    SweepStripe(snapshot, plan.slices[slot], params_, &table,
                scratch_[slot].get());
  });
  work_timer.Stop();
  if (stage_sink_ != nullptr) {
    stage_sink_->RecordStage(Stage::kShardCluster, work_timer.Seconds());
  }

  Timer merge_timer;
  merge_timer.Start();
  Clustering clustering = MergeShardResults(snapshot, plan, scratch_, &table,
                                            params_.mu, distance_ops);
  merge_timer.Stop();
  if (stage_sink_ != nullptr) {
    stage_sink_->RecordStage(Stage::kMergeStitch, merge_timer.Seconds());
  }
  return clustering;
}

ShardEngineStats ShardedClusterEngine::stats() const {
  ShardEngineStats stats;
  stats.snapshots = snapshots_.load(std::memory_order_relaxed);
  stats.routed_objects = routed_objects_.load(std::memory_order_relaxed);
  stats.halo_objects = halo_objects_.load(std::memory_order_relaxed);
  stats.halo_peak = halo_peak_.load(std::memory_order_relaxed);
  stats.merge_fanin_last =
      merge_fanin_last_.load(std::memory_order_relaxed);
  return stats;
}

void ShardedClusterEngine::ExportMetrics(MetricsRegistry* registry) const {
  ShardEngineStats stats = this->stats();
  registry->GetGauge("tcomp_shards", "", "Configured shard count (--shards)")
      ->Set(num_shards_);
  registry
      ->GetCounter("tcomp_shard_snapshots_total", "",
                   "Snapshots clustered by the sharded engine")
      ->Set(static_cast<uint64_t>(stats.snapshots));
  registry
      ->GetCounter("tcomp_shard_routed_objects_total", "",
                   "Objects routed to shard stripes")
      ->Set(static_cast<uint64_t>(stats.routed_objects));
  registry
      ->GetCounter("tcomp_shard_halo_objects_total", "",
                   "Halo replicas shipped to neighboring shards")
      ->Set(static_cast<uint64_t>(stats.halo_objects));
  registry
      ->GetGauge("tcomp_shard_halo_peak", "",
                 "Largest per-snapshot halo total")
      ->Set(stats.halo_peak);
  registry
      ->GetGauge("tcomp_shard_merge_fanin", "",
                 "Effective shard count of the most recent snapshot")
      ->Set(stats.merge_fanin_last);
}

}  // namespace tcomp
