#ifndef TCOMP_UTIL_EPS_FILTER_H_
#define TCOMP_UTIL_EPS_FILTER_H_

#include <cstddef>
#include <cstdint>

namespace tcomp {

/// Batched ε-filter kernels over structure-of-arrays coordinates (ROADMAP
/// item 4): the snapshot hot paths — DbscanGrid range queries, the
/// incremental clusterer's FinishExact, the shard plane-sweep band loop —
/// all answer the same question ("which of these candidates are within ε
/// of the query point?") and all asked it one pointer-chased Point at a
/// time. These kernels take the candidates as contiguous double arrays so
/// the squared-distance compare auto-vectorizes.
///
/// Exact-compare contract: every lane evaluates literally
/// `dx*dx + dy*dy <= eps2` in double — the same expression, types, and
/// IEEE rounding as the scalar WithinEps/SquaredDistance pair
/// (core/types.h) — and the build never passes -ffast-math or a
/// fused-multiply-add target, so accepted sets are byte-identical to the
/// scalar path's, boundary coordinates included. The kernels are a pure
/// layout/throughput optimization; tests/soa_differential_test.cc pins
/// the equivalence end to end.

/// Filters the contiguous candidate range [begin, end) of xs/ys against
/// the query point (qx, qy): writes the positions whose squared distance
/// is <= eps2 to `out` (ascending, capacity at least end - begin) and
/// returns how many. This is the range form the grid backends use —
/// cell-sorted coordinate blocks make every 3×3 probe a handful of
/// contiguous ranges.
size_t EpsFilterBatch(const double* xs, const double* ys, uint32_t begin,
                      uint32_t end, double qx, double qy, double eps2,
                      uint32_t* out);

/// Index-list form: filters candidates cand[0..count) (indices into
/// xs/ys, any order) and writes the surviving *indices* — cand[k] values,
/// in input order — to `out` (capacity at least count). Returns how many.
/// Used where the candidate set is scattered (carried neighbor lists,
/// plane-sweep bands with skip rules applied first).
size_t EpsFilterGather(const double* xs, const double* ys,
                       const uint32_t* cand, size_t count, double qx,
                       double qy, double eps2, uint32_t* out);

}  // namespace tcomp

#endif  // TCOMP_UTIL_EPS_FILTER_H_
