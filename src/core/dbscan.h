#ifndef TCOMP_CORE_DBSCAN_H_
#define TCOMP_CORE_DBSCAN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/snapshot.h"
#include "core/types.h"

namespace tcomp {

/// Density clustering parameters (paper Definitions 1–2): `epsilon` is the
/// distance threshold ε, `mu` the density threshold μ. The ε-neighborhood
/// N_ε(o) includes o itself (dist(o,o)=0 ≤ ε), so an object is a *core*
/// object iff at least `mu` objects (itself included) lie within ε.
///
/// `threads` parallelizes the neighbor-computation stage across a static
/// thread pool (util/thread_pool.h). Results — labels, core flags,
/// clusters, and the distance_ops counter — are bit-identical at every
/// thread count; 1 (the default) bypasses the pool entirely.
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

/// Cell width for an ε-bucketed uniform grid whose 3×3 neighborhood scan
/// is guaranteed to cover every pair within `eps`, even at the edge of
/// floating-point resolution. A naive `floor(x / eps)` bucketing can put
/// two coordinates exactly `eps` apart two cells apart once |x| grows to
/// ~eps·2^52 (the division's rounding error reaches a whole cell), and a
/// pair at distance exactly eps that straddles a cell border is then
/// missed by the scan. Padding the width by max|coord|·2⁻⁴⁰ (plus a
/// relative ε pad) keeps |floor(x₁/c) − floor(x₂/c)| ≤ 1 whenever
/// |x₁ − x₂| ≤ eps, at the cost of a slightly denser grid.
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

/// Pluggable snapshot-clustering backend: given a snapshot, produce the
/// Clustering described above — same determinism spec, same closed-ball
/// neighborhood — incrementing `distance_ops` (never null is not
/// guaranteed; check) by the distance evaluations spent. The sharded
/// C-step engine (src/shard/) is injected through this type; see
/// CompanionDiscoverer::SetClusterProvider and ConvoyParams.
using ClusterProvider =
    std::function<Clustering(const Snapshot& snapshot, int64_t* distance_ops)>;

/// Reference density-based clustering, O(n²) pairwise distances (the cost
/// model the paper assumes for the CI/SC baselines). If `distance_ops` is
/// non-null it is incremented by the number of distance evaluations.
Clustering Dbscan(const Snapshot& snapshot, const DbscanParams& params,
                  int64_t* distance_ops = nullptr);

/// Grid-accelerated density clustering with identical output to Dbscan().
/// Buckets objects into an ε×ε grid and sweeps it forward, evaluating each
/// pair of 3×3-adjacent objects once through the batched ε-filter kernel
/// (util/eps_filter.h). Used by generators/examples where a fast exact
/// clustering is needed and as a reference point in the clustering
/// microbenchmarks; tests pin it against Dbscan().
Clustering DbscanGrid(const Snapshot& snapshot, const DbscanParams& params,
                      int64_t* distance_ops = nullptr);

namespace internal {

/// Shared finishing step: given core flags and an adjacency oracle, builds
/// the deterministic Clustering described above. Exposed for the
/// buddy-based clustering implementation.
Clustering BuildClusteringFromCores(
    const Snapshot& snapshot, const std::vector<bool>& core,
    const std::vector<std::vector<uint32_t>>& neighbors);

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

}  // namespace internal
}  // namespace tcomp

#endif  // TCOMP_CORE_DBSCAN_H_
