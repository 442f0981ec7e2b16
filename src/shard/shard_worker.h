#ifndef TCOMP_SHARD_SHARD_WORKER_H_
#define TCOMP_SHARD_SHARD_WORKER_H_

#include <cstdint>
#include <vector>

#include "core/dbscan.h"
#include "core/snapshot.h"
#include "shard/partition.h"
#include "util/arena.h"

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

/// Per-stripe-slot scratch, owned by the caller and reused across
/// snapshots: the sweep's arena and its pair buffer. Carried capacity is
/// the only thing that survives a call.
struct StripeScratch {
  Arena arena;
  std::vector<uint64_t> pairs;
};

/// Computes the exact ε-neighborhoods of a slice's owned indices: the
/// shared ε-neighborhood sweep (internal::SweepNeighborPairs) over
/// owned ∪ halo with the owned points as sources, so owned-owned pairs are
/// evaluated once and owned-halo pairs from the owned side. Pure function
/// of (snapshot, slice, params): deterministic results and deterministic
/// distance_ops, whichever thread runs it. Exact because the slice's halo
/// invariant guarantees every true ε-neighbor of an owned index is
/// present locally, and membership is decided by the WithinEps compare.
/// `scratch` must not be shared by concurrent calls.
ShardResult ComputeShardNeighbors(const Snapshot& snapshot,
                                  const ShardSlice& slice,
                                  const DbscanParams& params,
                                  StripeScratch* scratch);

}  // namespace tcomp

#endif  // TCOMP_SHARD_SHARD_WORKER_H_
