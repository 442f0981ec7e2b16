#ifndef TCOMP_CORE_INCREMENTAL_CLUSTER_H_
#define TCOMP_CORE_INCREMENTAL_CLUSTER_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/dbscan.h"
#include "core/snapshot.h"
#include "core/types.h"
#include "util/arena.h"
#include "util/status.h"

namespace tcomp {

/// Per-run counters for the incremental layer; accumulated into
/// DiscoveryStats by the discoverers that embed a clusterer.
struct ClusterDeltaStats {
  /// Objects whose carried neighborhood state was reused as-is.
  int64_t reuse = 0;
  /// Objects re-probed: movers and arrivals at rₑ, plus every object of a
  /// rebuild snapshot, swept at ε.
  int64_t dirty = 0;
  /// Snapshots where the stability test could not bound the churn and the
  /// whole snapshot was re-clustered from scratch.
  int64_t full_rebuilds = 0;

  /// SoA ε-filter kernel activity (util/eps_filter.h): batches dispatched
  /// and candidate lanes streamed by the exact ε-graph construction — the
  /// ε sweep on a rebuild, the filter over carried lists on a repair.
  /// The rₑ probes are not counted here.
  int64_t soa_batches = 0;
  int64_t soa_lanes = 0;
  /// Wall time spent building the exact ε-graph (the same two paths).
  /// Timing only — never read back into control flow.
  double eps_filter_seconds = 0.0;
};

/// Exact snapshot-to-snapshot density clustering (ROADMAP item 4,
/// following the evolutionary-clustering direction in PAPERS.md): instead
/// of re-running DBSCAN from scratch each snapshot, the clusterer carries
/// a *candidate-neighbor graph* across snapshots and only repairs the
/// parts the stream actually changed.
///
/// The invariant (details in DESIGN.md):
///
///  - every object has an **anchor** — its position the last time it was
///    probed — and a sorted, symmetric list of the objects whose anchors
///    lie within the extended radius rₑ = 2ε (= ε + 2·Δ with slack
///    Δ = ε/2, padded for floating point);
///  - an object is **stable** while it stays within Δ of its anchor;
///    otherwise (moved beyond Δ, appeared, or anchor unknown) it is
///    **dirty** and is re-probed: its anchor snaps to the current
///    position and its list is rebuilt by the shared ε-neighborhood
///    sweep (internal::SweepNeighborPairs) at radius rₑ;
///  - by the triangle inequality, two objects within ε of each other are
///    within Δ + ε + Δ = rₑ of their anchors, so the carried lists are a
///    superset of the true ε-neighbor pairs. The exact ε-graph is then
///    recovered by filtering every listed pair through the shared
///    WithinEps predicate on *current* positions.
///
/// When stability cannot be proven cheaply (no carried state, or churn
/// above the fallback threshold) the snapshot is *rebuilt*: one ε sweep
/// over the snapshot, as DbscanGrid runs, and the anchors snap to the
/// current positions. A rebuild builds no rₑ list — the next snapshot may
/// rebuild again and never read them. The first repair after a rebuild
/// builds the lists from the anchors it left, then repairs them.
///
/// The final labeling runs through the same BuildClusteringFromCores
/// finishing step as every other backend, so the output is byte-identical
/// to full DBSCAN on every snapshot — including label numbering, border
/// attachment, and noise — by construction, not by luck.
///
/// Tests pin the products against the reference Dbscan(). The clusterer
/// is deliberately serial: its products and its distance_ops are
/// independent of DbscanParams::threads.
///
/// Not thread-safe; one instance per stream, like the discoverers.
class IncrementalClusterer {
 public:
  explicit IncrementalClusterer(const DbscanParams& params);

  /// Clusters `snapshot`, reusing carried state where the stability
  /// predicate allows. `distance_ops` (if non-null) is incremented by the
  /// number of distance evaluations; `delta` (if non-null) accumulates
  /// the reuse/dirty/fallback counters.
  Clustering Cluster(const Snapshot& snapshot, int64_t* distance_ops,
                     ClusterDeltaStats* delta);

  /// Drops all carried state; the next Cluster() call re-probes in full.
  void Reset();

  /// Checkpointing: the carried state is part of a discoverer's stream
  /// state — resuming from a checkpoint must replay exactly like the
  /// uninterrupted run, ops counters included. Anchors are serialized as
  /// hex floats (bit-exact round trip), plus whether the rₑ lists exist.
  /// The lists are a pure function of the anchors: if they existed, load
  /// rebuilds them uncounted (the uninterrupted run paid for them at an
  /// earlier repair); if not, the next repair builds and counts them.
  void SaveState(std::ostream& out) const;
  Status LoadState(std::istream& in);

  /// Heap bytes held by the per-snapshot scratch arena (SoA views, sweep
  /// grid, id→index table, edge buffers). Stable across snapshots once
  /// the workload's high-water mark has been seen — the no-heap-growth
  /// invariant tests/soa_differential_test.cc pins.
  size_t ScratchArenaBytes() const { return arena_.allocated_bytes(); }

 private:
  /// Re-anchors every object of `snapshot`, drops the rₑ lists, and
  /// clusters the snapshot from one ε sweep. `ops` grows by the sweep's
  /// candidate pairs; `delta` (may be null) accumulates its
  /// soa_batches/soa_lanes/eps_filter_seconds.
  Clustering Rebuild(const Snapshot& snapshot, int64_t* ops,
                     ClusterDeltaStats* delta);

  /// Builds lists_ from ids_/anchors_ alone (the lists are a pure
  /// function of the anchors). Shared by the first repair after a
  /// rebuild (counted, `ops` non-null) and the load path (uncounted).
  void RebuildListsFromAnchors(int64_t* ops);

  /// The exact ε-filter + core/label finishing step over carried lists,
  /// through the batched SoA kernels. `delta` (may be null) accumulates
  /// soa_batches/soa_lanes/eps_filter_seconds.
  Clustering FinishExact(const Snapshot& snapshot, int64_t* ops,
                         ClusterDeltaStats* delta);

  /// Refreshes the id → index scratch table from ids_. Queries through
  /// IndexOfId are only ever made for ids present in ids_, so stale
  /// entries for departed ids never need clearing.
  void RefreshIndexLookup();
  uint32_t IndexOfId(ObjectId id) const;

  /// Probes the anchors against each other at rₑ through the shared
  /// ε-neighborhood sweep (internal::SweepNeighborPairs) with `source` as
  /// its source mask (null = every anchor), and adds each pair found to
  /// both lists_ entries in sorted position. Returns the candidate pairs
  /// evaluated.
  int64_t ProbeAnchors(const uint8_t* source);

  DbscanParams params_;
  double delta2_;    // (ε/2)², the stability slack, squared
  double re_pad_;    // 2ε padded for FP: probe radius for anchor lists

  bool has_state_ = false;
  bool lists_built_ = false;                   // lists_ matches anchors_
  std::vector<ObjectId> ids_;                  // ascending; == last snapshot
  std::vector<Point> anchors_;                 // parallel to ids_
  std::vector<std::vector<ObjectId>> lists_;   // sorted, symmetric, no self

  // Per-snapshot scratch, arena-allocated: index_of_ is the dense
  // id → index table, valid only when dense_lookup_ is set (sparse id
  // spaces fall back to binary search over ids_). Pointers are valid
  // until the arena's next Reset(), which happens only at Cluster() entry
  // and in LoadState() — never mid-snapshot. The arena and the sweep's
  // pair buffer retain their capacity across snapshots, so the steady
  // state allocates nothing from the heap.
  Arena arena_;
  std::vector<uint64_t> pairs_;
  uint32_t* index_of_ = nullptr;
  bool dense_lookup_ = false;
};

}  // namespace tcomp

#endif  // TCOMP_CORE_INCREMENTAL_CLUSTER_H_
