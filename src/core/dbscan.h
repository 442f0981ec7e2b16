#ifndef TCOMP_CORE_DBSCAN_H_
#define TCOMP_CORE_DBSCAN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/snapshot.h"
#include "core/types.h"
#include "util/arena.h"

namespace tcomp {

/// Density clustering parameters (paper Definitions 1–2): `epsilon` is the
/// distance threshold ε, `mu` the density threshold μ. The ε-neighborhood
/// N_ε(o) includes o itself (dist(o,o)=0 ≤ ε), so an object is a *core*
/// object iff at least `mu` objects (itself included) lie within ε.
///
/// `threads` is the stripe count of the ε sweep (internal::
/// SweepNeighborPairs) in DbscanGrid, SnapshotClusterer and BU's buddy
/// sweeps: the one parallel knob (`--shards`). Products and every counter
/// are identical at every count; 1 (the default) never touches the
/// thread pool. The reference Dbscan() ignores it.
struct DbscanParams {
  double epsilon = 1.0;
  int mu = 3;
  int threads = 1;
};

/// The single ε-neighborhood convention every clustering backend shares:
/// objects at *exactly* ε apart are neighbors (closed ball, `<= eps²`),
/// matching Definition 1's dist(o, o') ≤ ε. Flat DBSCAN, the grid
/// backend, the R-tree/quad-tree backends, and the buddy-based clustering
/// all answer eps-membership through this one predicate so a boundary
/// point can never be a neighbor in one backend and noise in another.
/// `eps2` is ε² (square once at the call site, compare many times).
inline bool WithinEps(Point a, Point b, double eps2) {
  return SquaredDistance(a, b) <= eps2;
}

/// Column width for the ε-neighborhood sweep that is guaranteed to cover
/// every pair within `eps` through adjacent columns and a ±width band,
/// even at the edge of floating-point resolution. A naive
/// `floor(x / eps)` bucketing can put two coordinates exactly `eps` apart
/// two columns apart once |x| grows to ~eps·2^52 (the division's rounding
/// error reaches a whole column), and a pair at distance exactly eps
/// that straddles a border is then missed. Padding the width by
/// max|coord|·2⁻⁴⁰ (plus a relative ε pad) keeps
/// |floor(x₁/c) − floor(x₂/c)| ≤ 1 whenever |x₁ − x₂| ≤ eps, at the cost
/// of a slightly wider band.
double GridCellWidth(double eps, double max_abs_coord);

/// Result of clustering one snapshot.
///
/// The labeling is deterministic: clusters are numbered by their smallest
/// member index, and a border object (non-core with ≥1 core within ε) is
/// assigned to the cluster of its lowest-index core neighbor. Objects that
/// are neither core nor border are noise (label -1). Every clustering
/// implementation in this library follows the same spec, so results are
/// comparable across algorithms ("hard clustering", paper footnote 2).
struct Clustering {
  /// Per snapshot-index label; -1 = noise.
  std::vector<int32_t> labels;
  /// Per snapshot-index core flag.
  std::vector<bool> core;
  /// Object-id sets per cluster, sorted ascending; cluster k = clusters[k].
  std::vector<ObjectSet> clusters;
};

/// The exact ε-graph of one snapshot, the one input of the shared
/// finisher (internal::BuildClusteringFromCores): compressed rows over
/// snapshot indices. Row i is entries[offsets[i], offsets[i + 1]) — the
/// indices within ε of point i, itself included (N_ε(o) ∋ o, Definition
/// 1), in no particular order. Rows need not be symmetric: network
/// distance (network/network_dbscan.h) evaluates each row from its own
/// source. The table is a view; its storage belongs to whoever filled it,
/// usually a per-snapshot Arena.
struct NeighborTable {
  size_t n = 0;
  const uint32_t* offsets = nullptr;  // n + 1 entries, offsets[0] == 0
  const uint32_t* entries = nullptr;  // offsets[n] entries
  uint32_t degree(size_t i) const { return offsets[i + 1] - offsets[i]; }
};

/// Pluggable snapshot-clustering backend: given a snapshot, produce the
/// Clustering described above — same determinism spec, same closed-ball
/// neighborhood — incrementing `distance_ops` (may be null; check) by the
/// distance evaluations spent. It replaces the built-in
/// SnapshotClusterer: road-network DBSCAN (src/network/) is injected
/// through this type, and the tests inject the reference Dbscan; see
/// CompanionDiscoverer::SetClusterProvider and ConvoyParams.
using ClusterProvider =
    std::function<Clustering(const Snapshot& snapshot, int64_t* distance_ops)>;

/// Reference density-based clustering, O(n²) pairwise distances (the cost
/// model the paper assumes for the CI/SC baselines). Serial;
/// `params.threads` is ignored. If `distance_ops` is non-null it is
/// incremented by the number of distance evaluations.
Clustering Dbscan(const Snapshot& snapshot, const DbscanParams& params,
                  int64_t* distance_ops = nullptr);

/// Grid-accelerated density clustering with identical output to Dbscan():
/// the ε-neighborhood plane sweep (internal::SweepNeighborPairs) over every
/// point, in `params.threads` stripes, into a NeighborTable, then the
/// shared finisher. `distance_ops` grows by the candidate pairs the sweep
/// evaluated, each unordered pair at most once (so at most n(n-1)/2), the
/// same at every stripe count. Used by generators/examples where a fast
/// exact clustering is needed and as a reference point in the clustering
/// microbenchmarks; tests pin it against Dbscan(). One call runs one
/// SnapshotClusterer.
Clustering DbscanGrid(const Snapshot& snapshot, const DbscanParams& params,
                      int64_t* distance_ops = nullptr);

namespace internal {

/// What internal::SweepNeighborPairs writes: `pairs`, and the buffers of
/// stripes 1..S−1 of a striped sweep, which it appends to `pairs` in
/// stripe order once every stripe is done. Keep one across sweeps to
/// reuse their capacity.
struct SweepPairs {
  std::vector<uint64_t> pairs;
  std::vector<std::vector<uint64_t>> stripes;
};

}  // namespace internal

/// What SnapshotClusterer::Cluster spent in its ε sweep besides its
/// distance_ops (which are also the kernel's lanes): the kernel batches
/// dispatched, and the wall time of the sweep plus the neighbor-table
/// build. The time is for monitoring only, never read back into control
/// flow.
struct SweepCost {
  int64_t batches = 0;
  double seconds = 0.0;
};

/// DbscanGrid for a stream, and the built-in C-step of CI, SC and the
/// convoy baseline: each call clusters one snapshot with one ε sweep
/// (internal::SweepNeighborPairs, in `params.threads` stripes), the
/// neighbor table and the shared finisher, exactly as DbscanGrid does.
/// The scratch arena and the sweep's pair buffers are kept across calls,
/// so once the stream's largest snapshot has sized them a call allocates
/// no scratch from the heap (tests/soa_differential_test.cc pins this).
/// Nothing else survives a call: every snapshot's products and
/// distance_ops are DbscanGrid's, and a checkpoint has nothing of it to
/// save. DESIGN.md §1.6c records why no neighborhood state is carried
/// from one snapshot to the next.
///
/// Not thread-safe; one instance per stream, like the discoverers. Its
/// stripes run on the shared pool (util/thread_pool.h), so Cluster() must
/// not be called from inside a ParallelForShards region.
class SnapshotClusterer {
 public:
  explicit SnapshotClusterer(const DbscanParams& params);

  /// Clusters `snapshot`. `distance_ops` and `cost`, when non-null, grow
  /// by the sweep's candidate pairs and by its SweepCost.
  Clustering Cluster(const Snapshot& snapshot, int64_t* distance_ops,
                     SweepCost* cost = nullptr);

  /// Heap bytes the scratch holds: the arena's blocks plus the pair
  /// buffers' capacity. Stable once the stream's high-water snapshot has
  /// been seen.
  size_t ScratchBytes() const;

 private:
  DbscanParams params_;
  Arena arena_;
  internal::SweepPairs pairs_;
};

namespace internal {

/// Fewest points a stripe of the ε sweep is given: a smaller share costs
/// more in the pool hand-off than it saves.
inline constexpr size_t kMinPointsPerStripe = 32;

/// The one ε-neighborhood builder behind SnapshotClusterer (and so
/// DbscanGrid) and BU's buddy sweeps (DESIGN.md §1.6d). Given n points as
/// SoA coordinates `xs`/`ys`, a `radius` > 0 and an optional per-point
/// 0/1 `source` mask (null = every point is a source), it sets
/// `out->pairs` to every pair within `radius` — closed ball, the
/// WithinEps compare — that involves a source, exactly once, packed as
/// (s << 32 | p) with s the source that evaluated it:
///   - a source–source pair from the smaller index (s < p);
///   - a source–non-source pair from the source side.
/// Pairs of two non-sources are never evaluated.
///
/// Points are sorted by (column of width GridCellWidth(radius, max|coord|),
/// y, index); each source sweeps the [y − w, y + w] band of its own and
/// the two adjacent columns with forward-only cursors and streams the
/// band through EpsFilterGather — ~6r² of candidate area per source
/// against 9r² for a 3×3 cell walk. Every coordinate must be finite
/// (checked). Scratch comes from `arena` and lives until its next
/// Reset(). Returns the candidate pairs evaluated (the distance_ops
/// figure and the kernel's lanes), a pure function of the input;
/// `batches`, if non-null, grows by the kernel dispatches.
///
/// `stripes` > 1 splits the column loop into that many contiguous column
/// ranges of about equal point count (clamped to the column count and to
/// kMinPointsPerStripe points a stripe) and runs them on the shared pool
/// (ParallelForShards). A column's pairs, candidates and dispatches depend
/// only on it and its two neighbors, so the stripes' buffers, appended in
/// column order, are the serial pair list, and the returned count and
/// `batches` are the serial ones, at every stripe count. The sort, and
/// everything the caller does with the pairs, stays serial. Must not be
/// called from inside a ParallelForShards region.
int64_t SweepNeighborPairs(const double* xs, const double* ys, size_t n,
                           double radius, const uint8_t* source, int stripes,
                           Arena* arena, SweepPairs* out,
                           int64_t* batches = nullptr);

/// The ε-graph of n points from their symmetric pairs (a << 32 | b) over
/// [0, n): each row gets itself, then its pairs in list order. Storage
/// comes from `arena` and lives until its next Reset().
NeighborTable NeighborTableFromPairs(const uint64_t* pairs, size_t count,
                                     size_t n, Arena* arena);

/// The shared finisher: core flags from the row degrees (core iff
/// degree ≥ μ), clusters as the connected components of core–core
/// entries, each border object attached to its lowest-index core
/// neighbor (found by scanning its row, so rows may come in any order),
/// clusters numbered by NumberClusters — the deterministic Clustering
/// described above.
Clustering BuildClusteringFromCores(const Snapshot& snapshot,
                                    const NeighborTable& table, int mu);

/// Union-find over snapshot indices with smallest-index representatives,
/// shared by the clustering implementations.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Unions the two sets; the smaller root index becomes the
  /// representative, keeping labels deterministic.
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (a < b) {
      parent_[b] = a;
    } else {
      parent_[a] = b;
    }
  }

 private:
  std::vector<uint32_t> parent_;
};

/// `attach` value of an object that joins no cluster (noise).
inline constexpr uint32_t kNoAttach = UINT32_MAX;

/// The one cluster numbering of every finisher (BuildClusteringFromCores,
/// BuddyBasedClustering): object i joins the cluster of
/// sets->Find(attach[i]) — attach[i] is i for a core, its chosen core
/// neighbor for a border object, kNoAttach for noise. Clusters are
/// numbered by first appearance in index order through a dense
/// root → label array; fills `result->labels` and `result->clusters`
/// (ids ascending, since indices ascend).
void NumberClusters(const Snapshot& snapshot,
                    const std::vector<uint32_t>& attach, DisjointSets* sets,
                    Clustering* result);

}  // namespace internal
}  // namespace tcomp

#endif  // TCOMP_CORE_DBSCAN_H_
