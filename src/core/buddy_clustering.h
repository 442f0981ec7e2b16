#ifndef TCOMP_CORE_BUDDY_CLUSTERING_H_
#define TCOMP_CORE_BUDDY_CLUSTERING_H_

#include <cstdint>

#include "core/buddy.h"
#include "core/dbscan.h"
#include "core/snapshot.h"

namespace tcomp {

/// Counters for one buddy-based clustering call (Algorithm 4); the Lemma-3
/// pruning rate is the paper's ">80% of objects pruned" claim (Section
/// V-C), quantified by `pairs_pruned / pairs_checked`.
struct BuddyClusteringStats {
  int64_t pairs_checked = 0;   // buddy pairs examined
  int64_t pairs_pruned = 0;    // buddy pairs dismissed by Lemma 3
  int64_t lemma2_buddies = 0;  // density-connected buddies (Lemma 2)
  int64_t distance_ops = 0;    // object-level distance evaluations
};

/// Algorithm 4: density-based clustering of one snapshot driven by the
/// buddy set instead of raw object pairs.
///
/// The buddies act as a clustered spatial index:
///  * Lemma 3 prunes buddy pairs too far apart to contain any ε-close
///    object pair — their members are never compared;
///  * Lemma 2 marks every member of a tight, large buddy
///    (|b| ≥ μ+1, γ ≤ ε/2) as a core object with zero distance work;
///  * Lemma 4 unions two density-connected buddies wholesale as soon as
///    one ε-close cross pair is found;
///  * across adjacent buddies only core–core object pairs not yet in one
///    set are tested, since no other pair can change a union.
///
/// The output is exactly the clustering Dbscan() produces for the same
/// snapshot and parameters (the lemmas are pruning rules, not
/// approximations, and the deterministic labeling spec is shared).
///
/// Pre-condition (checked): `buddies` was updated with this snapshot
/// (Algorithm 4 line 1 — the discoverer calls BuddySet::Update first), so
/// every object in the snapshot belongs to exactly one buddy. The
/// per-buddy member lists and the Lemma-3 adjacency are two flat offset
/// tables built from BuddySet's object → buddy map, with no per-member
/// lookup in the snapshot.
Clustering BuddyBasedClustering(const Snapshot& snapshot,
                                const BuddySet& buddies,
                                const DbscanParams& params,
                                BuddyClusteringStats* stats = nullptr);

}  // namespace tcomp

#endif  // TCOMP_CORE_BUDDY_CLUSTERING_H_
