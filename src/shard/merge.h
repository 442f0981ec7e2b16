#ifndef TCOMP_SHARD_MERGE_H_
#define TCOMP_SHARD_MERGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dbscan.h"
#include "core/snapshot.h"
#include "shard/partition.h"
#include "shard/shard_worker.h"

namespace tcomp {

/// Deterministic merge stage: stitches the stripes' sweeps into one
/// global neighbor table and labels it, byte-identical to Dbscan() on the
/// whole snapshot.
///
/// Why this is exact (DESIGN.md §1.8): the slices partition the index
/// space and each stripe found the *complete* ε-neighborhood of every
/// owned index (halo invariant), so the rows the stripes fill are the
/// rows a single-machine pass would produce. Core flags are then
/// |N_ε| ≥ μ, and the shared internal::BuildClusteringFromCores finisher —
/// union-find over core-core entries with smallest-index
/// representatives, border objects attached to their lowest-index core
/// neighbor — IS the cross-shard stitch: a cluster spanning a stripe
/// border is joined through the core-core entries both owners report for
/// the halo overlap.
///
/// Expects `stripes[k]` to hold SweepStripe's output for `plan.slices[k]`,
/// counted into `table`. Seals the table, has every stripe fill its own
/// rows (in parallel through ParallelForShards — the rows are disjoint,
/// so the result does not depend on completion order), and finishes.
/// `distance_ops`, if non-null, grows by the stripes' op counts, in
/// stripe order (deterministic for a fixed plan).
Clustering MergeShardResults(
    const Snapshot& snapshot, const ShardPlan& plan,
    const std::vector<std::unique_ptr<StripeScratch>>& stripes,
    internal::NeighborTableBuilder* table, int mu, int64_t* distance_ops);

}  // namespace tcomp

#endif  // TCOMP_SHARD_MERGE_H_
