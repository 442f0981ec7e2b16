#ifndef TCOMP_SHARD_SHARD_WORKER_H_
#define TCOMP_SHARD_SHARD_WORKER_H_

#include <cstdint>
#include <vector>

#include "core/dbscan.h"
#include "core/snapshot.h"
#include "shard/partition.h"

namespace tcomp {

/// One shard's contribution to a snapshot: the exact ε-neighbor list of
/// every owned index (global snapshot indices, ascending, self included —
/// the representation BuildClusteringFromCores consumes), plus the
/// distance evaluations spent producing them.
struct ShardResult {
  /// Parallel to ShardSlice::owned.
  std::vector<std::vector<uint32_t>> neighbors;
  int64_t distance_ops = 0;
};

/// Computes the exact ε-neighborhoods of a slice's owned indices over
/// owned ∪ halo, via a column-sorted flat grid (entries sorted by
/// (ε-column, y, local) — no unordered containers, same idiom as the
/// incremental clusterer's anchor grid) whose probes binary-search the
/// exact y-range instead of walking whole cell rows, cutting the
/// candidate region from 9ε² to ~6ε². Pure function of (snapshot, slice,
/// params):
/// deterministic results and deterministic distance_ops, whichever thread
/// runs it. Exact because the slice's halo invariant guarantees every
/// true ε-neighbor of an owned index is present locally, and membership
/// is decided by the shared WithinEps predicate.
ShardResult ComputeShardNeighbors(const Snapshot& snapshot,
                                  const ShardSlice& slice,
                                  const DbscanParams& params);

}  // namespace tcomp

#endif  // TCOMP_SHARD_SHARD_WORKER_H_
