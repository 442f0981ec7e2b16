#ifndef TCOMP_UTIL_EPS_FILTER_H_
#define TCOMP_UTIL_EPS_FILTER_H_

#include <cstddef>
#include <cstdint>

namespace tcomp {

/// Batched ε-filter kernel over structure-of-arrays coordinates. Its one
/// consumer is the ε-neighborhood sweep (internal::SweepNeighborPairs in
/// core/dbscan.h, which SnapshotClusterer and BU's buddy sweeps call,
/// from every stripe), asking "which of these candidates are within
/// ε of the query point?". The kernel takes the candidates as indices
/// into contiguous double arrays so the squared-distance compare
/// auto-vectorizes.
///
/// Exact-compare contract: every lane evaluates literally
/// `dx*dx + dy*dy <= eps2` in double — the same expression, types, and
/// IEEE rounding as the scalar WithinEps/SquaredDistance pair
/// (core/types.h) — and the build never passes -ffast-math or a
/// fused-multiply-add target, so accepted sets are byte-identical to the
/// scalar path's, boundary coordinates included. The kernel is a pure
/// layout/throughput optimization; tests/soa_differential_test.cc pins
/// the equivalence end to end.

/// Filters candidates cand[0..count) (indices into xs/ys, any order)
/// against the query point (qx, qy) and writes the surviving *indices* —
/// cand[k] values, in input order — to `out` (capacity at least count).
/// Returns how many. The candidate set may be scattered: a sweep band
/// with its skip rules applied first.
size_t EpsFilterGather(const double* xs, const double* ys,
                       const uint32_t* cand, size_t count, double qx,
                       double qy, double eps2, uint32_t* out);

}  // namespace tcomp

#endif  // TCOMP_UTIL_EPS_FILTER_H_
