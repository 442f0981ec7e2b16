#include "shard/merge.h"

#include "util/thread_pool.h"

namespace tcomp {

Clustering MergeShardResults(
    const Snapshot& snapshot, const ShardPlan& plan,
    const std::vector<std::unique_ptr<StripeScratch>>& stripes,
    internal::NeighborTableBuilder* table, int mu, int64_t* distance_ops) {
  const size_t shards = plan.slices.size();
  table->Seal();
  ParallelForShards(static_cast<int>(shards), [&](int k, int) {
    FillStripeRows(*stripes[static_cast<size_t>(k)], table);
  });
  if (distance_ops != nullptr) {
    for (size_t k = 0; k < shards; ++k) {
      *distance_ops += stripes[k]->distance_ops;
    }
  }
  return internal::BuildClusteringFromCores(snapshot, table->table(), mu);
}

}  // namespace tcomp
