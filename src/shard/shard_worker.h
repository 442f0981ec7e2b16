#ifndef TCOMP_SHARD_SHARD_WORKER_H_
#define TCOMP_SHARD_SHARD_WORKER_H_

#include <cstdint>
#include <vector>

#include "core/dbscan.h"
#include "core/snapshot.h"
#include "shard/partition.h"
#include "util/arena.h"

namespace tcomp {

/// One stripe's sweep of the current snapshot, kept until the merge has
/// filled the stripe's rows from it. The engine owns one per stripe slot
/// and reuses it across snapshots; only capacity survives a snapshot.
struct StripeScratch {
  Arena arena;
  std::vector<uint64_t> pairs;       // local-index pairs of the last sweep
  const uint32_t* global = nullptr;  // local → snapshot index, owned first
  size_t owned = 0;                  // local indices [0, owned) own rows
  int64_t distance_ops = 0;          // candidate pairs the sweep evaluated
};

/// Sweeps a slice for the exact ε-neighborhoods of its owned indices: the
/// shared ε-neighborhood sweep (internal::SweepNeighborPairs) over
/// owned ∪ halo with the owned points as sources, so owned-owned pairs
/// are evaluated once and owned-halo pairs from the owned side. Leaves
/// the pairs in `scratch` and counts the owned rows — only those — into
/// `table` (NeighborTableBuilder::CountPairs); after the table is sealed,
/// FillStripeRows writes them. Pure function of (snapshot, slice,
/// params): deterministic pairs and distance_ops, whichever thread runs
/// it. Exact because the slice's halo invariant guarantees every true
/// ε-neighbor of an owned index is present locally, and membership is
/// decided by the WithinEps compare. Stripes own disjoint rows, so they
/// may count into, and fill, one table concurrently; `scratch` must not
/// be shared by concurrent calls.
void SweepStripe(const Snapshot& snapshot, const ShardSlice& slice,
                 const DbscanParams& params,
                 internal::NeighborTableBuilder* table,
                 StripeScratch* scratch);

/// Fills the stripe's owned rows of the sealed `table` from the pairs the
/// last SweepStripe left in `scratch`.
void FillStripeRows(const StripeScratch& scratch,
                    internal::NeighborTableBuilder* table);

}  // namespace tcomp

#endif  // TCOMP_SHARD_SHARD_WORKER_H_
