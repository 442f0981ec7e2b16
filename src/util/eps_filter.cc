#include "util/eps_filter.h"

#include <algorithm>

#include "util/target_clones.h"

// The exact-compare contract (util/eps_filter.h) requires every lane to
// round exactly like the scalar WithinEps walk. The wide clones below
// run on FMA-capable ISAs where GCC's default fp-contract=fast would
// fuse dx*dx + dy*dy into fma(dx, dx, dy*dy) and change the rounding of
// boundary-distance pairs, so this translation unit is compiled with
// -ffp-contract=off (set in src/CMakeLists.txt; the differential test
// exercises exact-ε boundary pairs, which is what catches a lost flag).
// With contraction off every clone performs the identical IEEE op
// sequence, so the results are byte-identical across ISAs by
// construction.

namespace tcomp {

namespace {

/// Chunk size for the mask-then-compact structure below: big enough that
/// the vectorized compare loop amortizes its prologue, small enough that
/// the mask and staging buffers live in L1 throughout.
constexpr uint32_t kChunk = 256;

/// Below this many candidates the mask-then-compact structure costs more
/// than it saves (two passes plus the vector prologue against a handful
/// of lanes); a plain scalar append wins. Same compare, same results —
/// this is a latency cutover, not a semantic branch.
constexpr uint32_t kScalarCutoff = 16;

}  // namespace

// The kernel splits each chunk into a branch-free compare pass that the
// compiler can vectorize (independent lanes, no control flow, contiguous
// loads) and a branch-free compaction pass (out[k] is written
// unconditionally; the cursor advances only on a hit). A fused
// compare-and-append loop would force the vectorizer to prove a
// conditional store safe, which baseline x86-64/AArch64 codegen cannot.

TCOMP_TARGET_CLONES
size_t EpsFilterGather(const double* xs, const double* ys,
                       const uint32_t* cand, size_t count, double qx,
                       double qy, double eps2, uint32_t* out) {
  if (count < kScalarCutoff) {
    size_t written = 0;
    for (size_t k = 0; k < count; ++k) {
      const uint32_t i = cand[k];
      const double dx = xs[i] - qx;
      const double dy = ys[i] - qy;
      if (dx * dx + dy * dy <= eps2) out[written++] = i;
    }
    return written;
  }
  double bx[kChunk];
  double by[kChunk];
  unsigned char hit[kChunk];
  size_t written = 0;
  for (size_t base = 0; base < count;) {
    const size_t lim =
        base + std::min<size_t>(kChunk, count - base);
    for (size_t k = base; k < lim; ++k) {
      const uint32_t i = cand[k];
      bx[k - base] = xs[i];
      by[k - base] = ys[i];
    }
    const size_t n = lim - base;
    for (size_t k = 0; k < n; ++k) {
      const double dx = bx[k] - qx;
      const double dy = by[k] - qy;
      hit[k] = dx * dx + dy * dy <= eps2 ? 1 : 0;
    }
    for (size_t k = 0; k < n; ++k) {
      out[written] = cand[base + k];
      written += hit[k];
    }
    base = lim;
  }
  return written;
}

}  // namespace tcomp
