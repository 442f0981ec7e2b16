#include "core/dbscan.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/eps_filter.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tcomp {

double GridCellWidth(double eps, double max_abs_coord) {
  // 2⁻⁴⁰ is ~8000x the relative rounding of a double division, so the pad
  // dominates every floor(x / cell) error while widening cells by less
  // than one part in 10¹¹ for realistic |coord|/eps ratios.
  constexpr double kPad = 0x1p-40;
  return eps * (1.0 + kPad) + max_abs_coord * kPad;
}

namespace {

// A point's place in the sweep order: (column, y, index).
struct SweepEntry {
  int64_t cx;
  double y;
  uint32_t idx;
};

// What the sweep's column loop reads, in sweep order: `grid`, its SoA
// mirror sx/sy/sidx, and col[c], the first position of column c (col has
// ncols + 1 entries, closed by n).
struct SweepView {
  const SweepEntry* grid;
  const uint32_t* col;
  size_t ncols;
  const double* sx;
  const double* sy;
  const uint32_t* sidx;
  const uint8_t* source;
  double w;
  double r2;
};

// Sweeps columns [c_begin, c_end) of `v` into `dst`; `cand` and `surv`
// hold the widest column. Sources walk each column bottom-up, so the band
// in each of the up to three probe columns only moves forward: one cursor
// per probe column replaces a per-source binary search. Nothing carries
// from one column to the next, which is what lets the column loop run in
// stripes. `v` is taken by value so the loop keeps it in registers.
void SweepColumns(const SweepView v, size_t c_begin, size_t c_end,
                  uint32_t* cand, uint32_t* surv, std::vector<uint64_t>* dst,
                  int64_t* ops_out, int64_t* dispatched_out) {
  int64_t ops = 0;
  int64_t dispatched = 0;
  for (size_t c = c_begin; c < c_end; ++c) {
    const int64_t cx = v.grid[v.col[c]].cx;
    size_t probe[3];
    uint32_t lo[3];
    int nprobe = 0;
    if (c > 0 && v.grid[v.col[c - 1]].cx == cx - 1) probe[nprobe++] = c - 1;
    probe[nprobe++] = c;
    if (c + 1 < v.ncols && v.grid[v.col[c + 1]].cx == cx + 1) {
      probe[nprobe++] = c + 1;
    }
    for (int k = 0; k < nprobe; ++k) lo[k] = v.col[probe[k]];

    for (uint32_t s = v.col[c]; s < v.col[c + 1]; ++s) {
      const uint32_t i = v.sidx[s];
      if (v.source != nullptr && v.source[i] == 0) continue;
      const double y_lo = v.sy[s] - v.w;
      const double y_hi = v.sy[s] + v.w;
      for (int k = 0; k < nprobe; ++k) {
        const uint32_t end = v.col[probe[k] + 1];
        uint32_t e = lo[k];
        while (e < end && v.sy[e] < y_lo) ++e;
        lo[k] = e;
        // The skip rules (self, a source-source pair owned by the smaller
        // index) run before anything is counted or compared.
        size_t m = 0;
        for (; e < end && v.sy[e] <= y_hi; ++e) {
          const uint32_t j = v.sidx[e];
          if (j == i) continue;
          if (j < i && (v.source == nullptr || v.source[j] != 0)) continue;
          cand[m++] = e;
        }
        if (m == 0) continue;
        ops += static_cast<int64_t>(m);
        ++dispatched;
        const size_t kept = EpsFilterGather(v.sx, v.sy, cand, m, v.sx[s],
                                            v.sy[s], v.r2, surv);
        for (size_t t = 0; t < kept; ++t) {
          dst->push_back((static_cast<uint64_t>(i) << 32) | v.sidx[surv[t]]);
        }
      }
    }
  }
  *ops_out = ops;
  *dispatched_out = dispatched;
}

}  // namespace

namespace internal {

NeighborTable NeighborTableFromPairs(const uint64_t* pairs, size_t count,
                                     size_t n, Arena* arena) {
  // Degrees at offsets[i + 1] (each row holds itself), then prefix sums.
  uint32_t* offsets = arena->AllocateArray<uint32_t>(n + 1);
  offsets[0] = 0;
  std::fill(offsets + 1, offsets + n + 1, 1u);
  for (size_t p = 0; p < count; ++p) {
    ++offsets[(pairs[p] >> 32) + 1];
    ++offsets[static_cast<uint32_t>(pairs[p]) + 1];
  }
  for (size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  uint32_t* cursor = arena->AllocateArray<uint32_t>(n);
  uint32_t* entries = arena->AllocateArray<uint32_t>(offsets[n]);
  for (uint32_t i = 0; i < n; ++i) {
    entries[offsets[i]] = i;
    cursor[i] = offsets[i] + 1;
  }
  for (size_t p = 0; p < count; ++p) {
    const uint32_t a = static_cast<uint32_t>(pairs[p] >> 32);
    const uint32_t b = static_cast<uint32_t>(pairs[p]);
    entries[cursor[a]++] = b;
    entries[cursor[b]++] = a;
  }
  return NeighborTable{n, offsets, entries};
}

Clustering BuildClusteringFromCores(const Snapshot& snapshot,
                                    const NeighborTable& table, int mu) {
  const size_t n = snapshot.size();
  TCOMP_CHECK_EQ(table.n, n);
  Clustering result;
  std::vector<uint8_t> core(n);
  for (size_t i = 0; i < n; ++i) {
    core[i] = static_cast<int64_t>(table.degree(i)) >= mu ? 1 : 0;
  }
  result.core.assign(core.begin(), core.end());

  DisjointSets sets(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!core[i]) continue;
    for (uint32_t e = table.offsets[i]; e < table.offsets[i + 1]; ++e) {
      const uint32_t j = table.entries[e];
      if (core[j]) sets.Union(i, j);
    }
  }

  // Border objects join the cluster of their lowest-index core neighbor,
  // a scan of the whole row since rows come in any order.
  std::vector<uint32_t> attach(n, kNoAttach);
  for (uint32_t i = 0; i < n; ++i) {
    if (core[i]) {
      attach[i] = i;
      continue;
    }
    for (uint32_t e = table.offsets[i]; e < table.offsets[i + 1]; ++e) {
      const uint32_t j = table.entries[e];
      if (core[j] && j < attach[i]) attach[i] = j;
    }
  }
  NumberClusters(snapshot, attach, &sets, &result);
  return result;
}

void NumberClusters(const Snapshot& snapshot,
                    const std::vector<uint32_t>& attach, DisjointSets* sets,
                    Clustering* result) {
  const size_t n = snapshot.size();
  TCOMP_CHECK_EQ(attach.size(), n);
  result->labels.assign(n, -1);
  result->clusters.clear();
  std::vector<int32_t> label_of_root(n, -1);
  for (uint32_t i = 0; i < n; ++i) {
    if (attach[i] == kNoAttach) continue;
    int32_t& label = label_of_root[sets->Find(attach[i])];
    if (label < 0) {
      label = static_cast<int32_t>(result->clusters.size());
      result->clusters.emplace_back();
    }
    result->labels[i] = label;
    // Indices ascend => ids ascend, so each cluster vector stays sorted.
    result->clusters[static_cast<size_t>(label)].push_back(snapshot.id(i));
  }
}

int64_t SweepNeighborPairs(const double* xs, const double* ys, size_t n,
                           double radius, const uint8_t* source, int stripes,
                           Arena* arena, SweepPairs* out, int64_t* batches) {
  TCOMP_CHECK_GT(radius, 0.0);
  std::vector<uint64_t>* pairs = &out->pairs;
  pairs->clear();
  double max_abs = 0.0;
  for (size_t i = 0; i < n; ++i) {
    // Defense in depth behind the stream-ingest validation: casting
    // floor(NaN/Inf) to int64_t is undefined behavior, so a non-finite
    // coordinate must never reach the column bucketing below.
    TCOMP_CHECK(std::isfinite(xs[i]) && std::isfinite(ys[i]))
        << "non-finite coordinate at point " << i;
    max_abs = std::max({max_abs, std::fabs(xs[i]), std::fabs(ys[i])});
  }
  // Padded column width: with columns of exactly `radius`, the rounding
  // of floor(x / radius) at large |x| can put a pair at distance exactly
  // radius two columns apart. GridCellWidth pads the width so adjacent
  // columns always cover the pair; the same pad absorbs the rounding of
  // y ± w below. Membership is still decided exactly by the kernel.
  const double w = GridCellWidth(radius, max_abs);
  const double r2 = radius * radius;

  // Sweep order: (column, y, index) — a total, value-determined order, so
  // the candidate sets and the returned count are deterministic.
  SweepEntry* grid = arena->AllocateArray<SweepEntry>(n);
  for (size_t i = 0; i < n; ++i) {
    // tcomp-lint: allow(cell-grid): the column bucketing of the one
    // ε-neighborhood builder; every other caller asks this sweep.
    grid[i] = SweepEntry{static_cast<int64_t>(std::floor(xs[i] / w)), ys[i],
                         static_cast<uint32_t>(i)};
  }
  std::sort(grid, grid + n, [](const SweepEntry& a, const SweepEntry& b) {
    if (a.cx != b.cx) return a.cx < b.cx;
    if (a.y != b.y) return a.y < b.y;
    return a.idx < b.idx;
  });

  // Sweep-order SoA mirror (sy doubles as the band cursors' key, sx/sy
  // feed EpsFilterGather, sidx maps positions back to points), the first
  // position of every column, closed by n, and the largest column, which
  // bounds one band's candidates.
  double* sx = arena->AllocateArray<double>(n);
  double* sy = arena->AllocateArray<double>(n);
  uint32_t* sidx = arena->AllocateArray<uint32_t>(n);
  uint32_t* col = arena->AllocateArray<uint32_t>(n + 1);
  size_t ncols = 0;
  for (uint32_t e = 0; e < n; ++e) {
    sx[e] = xs[grid[e].idx];
    sy[e] = grid[e].y;
    sidx[e] = grid[e].idx;
    if (e == 0 || grid[e].cx != grid[e - 1].cx) col[ncols++] = e;
  }
  col[ncols] = static_cast<uint32_t>(n);
  size_t widest = 0;
  for (size_t c = 0; c < ncols; ++c) {
    widest = std::max<size_t>(widest, col[c + 1] - col[c]);
  }

  const SweepView view{grid, col, ncols, sx, sy, sidx, source, w, r2};

  // Stripe count: as asked, but at most one stripe a column and at least
  // kMinPointsPerStripe points a stripe; 0 or 1 runs the serial loop.
  const size_t nstripes = std::min(
      {static_cast<size_t>(std::max(stripes, 1)), ncols,
       std::max<size_t>(n / kMinPointsPerStripe, 1)});
  int64_t ops = 0;
  int64_t dispatched = 0;
  if (nstripes <= 1) {
    uint32_t* cand = arena->AllocateArray<uint32_t>(widest);
    uint32_t* surv = arena->AllocateArray<uint32_t>(widest);
    SweepColumns(view, 0, ncols, cand, surv, pairs, &ops, &dispatched);
  } else {
    // Stripe k sweeps columns [bound[k], bound[k + 1]): the first column
    // at or past point k·n/S, kept at least one column past the previous
    // bound and one short of the columns the later stripes need. The
    // arena is not thread-safe, so every stripe's scratch comes out of it
    // here, before the fan-out.
    size_t* bound = arena->AllocateArray<size_t>(nstripes + 1);
    bound[0] = 0;
    bound[nstripes] = ncols;
    for (size_t k = 1; k < nstripes; ++k) {
      const size_t first = static_cast<size_t>(
          std::lower_bound(col, col + ncols, k * n / nstripes) - col);
      bound[k] = std::clamp(first, bound[k - 1] + 1, ncols - (nstripes - k));
    }
    uint32_t* cand = arena->AllocateArray<uint32_t>(nstripes * widest);
    uint32_t* surv = arena->AllocateArray<uint32_t>(nstripes * widest);
    int64_t* stripe_ops = arena->AllocateArray<int64_t>(nstripes);
    int64_t* stripe_batches = arena->AllocateArray<int64_t>(nstripes);
    // Stripe 0 appends straight into `pairs`; stripe k > 0 into
    // out->stripes[k - 1], appended after it below.
    if (out->stripes.size() < nstripes - 1) out->stripes.resize(nstripes - 1);
    ParallelForShards(static_cast<int>(nstripes), [&](int k, int) {
      const size_t s = static_cast<size_t>(k);
      std::vector<uint64_t>* dst = s == 0 ? pairs : &out->stripes[s - 1];
      dst->clear();
      SweepColumns(view, bound[s], bound[s + 1], cand + s * widest,
                   surv + s * widest, dst, &stripe_ops[s],
                   &stripe_batches[s]);
    });
    for (size_t s = 0; s < nstripes; ++s) {
      ops += stripe_ops[s];
      dispatched += stripe_batches[s];
      if (s > 0) {
        const std::vector<uint64_t>& stripe = out->stripes[s - 1];
        pairs->insert(pairs->end(), stripe.begin(), stripe.end());
      }
    }
  }
  if (batches != nullptr) *batches += dispatched;
  return ops;
}

}  // namespace internal

Clustering Dbscan(const Snapshot& snapshot, const DbscanParams& params,
                  int64_t* distance_ops) {
  const size_t n = snapshot.size();
  const double eps2 = params.epsilon * params.epsilon;
  int64_t ops = 0;
  std::vector<uint64_t> pairs;
  for (uint32_t i = 0; i < n; ++i) {
    Point pi = snapshot.pos(i);
    for (uint32_t j = i + 1; j < n; ++j) {
      ++ops;
      // tcomp-lint: allow(soa-raw-loop): reference O(n²) backend — the
      // paper's cost model for CI/SC; deliberately unaccelerated so
      // distance_ops stays the figure the paper plots.
      if (WithinEps(pi, snapshot.pos(j), eps2)) {
        pairs.push_back((static_cast<uint64_t>(i) << 32) | j);
      }
    }
  }
  Arena arena;
  const NeighborTable table =
      internal::NeighborTableFromPairs(pairs.data(), pairs.size(), n, &arena);
  if (distance_ops != nullptr) *distance_ops += ops;
  return internal::BuildClusteringFromCores(snapshot, table, params.mu);
}

SnapshotClusterer::SnapshotClusterer(const DbscanParams& params)
    : params_(params) {}

Clustering SnapshotClusterer::Cluster(const Snapshot& snapshot,
                                      int64_t* distance_ops,
                                      SweepCost* cost) {
  // The previous snapshot's scratch dies here; after the high-water
  // snapshot this is a cursor rewind, not an allocation.
  arena_.Reset();
  const size_t n = snapshot.size();
  Timer sweep_timer;
  sweep_timer.Start();
  const SnapshotSoA soa = BuildSnapshotSoA(snapshot, &arena_);
  int64_t batches = 0;
  const int64_t swept = internal::SweepNeighborPairs(
      soa.x, soa.y, n, params_.epsilon, nullptr, params_.threads, &arena_,
      &pairs_, &batches);
  const NeighborTable table = internal::NeighborTableFromPairs(
      pairs_.pairs.data(), pairs_.pairs.size(), n, &arena_);
  sweep_timer.Stop();
  if (distance_ops != nullptr) *distance_ops += swept;
  if (cost != nullptr) {
    cost->batches += batches;
    cost->seconds += sweep_timer.Seconds();
  }
  return internal::BuildClusteringFromCores(snapshot, table, params_.mu);
}

size_t SnapshotClusterer::ScratchBytes() const {
  size_t bytes =
      arena_.allocated_bytes() + pairs_.pairs.capacity() * sizeof(uint64_t);
  for (const std::vector<uint64_t>& stripe : pairs_.stripes) {
    bytes += stripe.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

Clustering DbscanGrid(const Snapshot& snapshot, const DbscanParams& params,
                      int64_t* distance_ops) {
  return SnapshotClusterer(params).Cluster(snapshot, distance_ops);
}

}  // namespace tcomp
