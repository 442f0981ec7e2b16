#include "shard/shard_worker.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/eps_filter.h"

namespace tcomp {
namespace {

/// Flat grid entry, sorted by (cx, y, local index): ε-wide columns as one
/// contiguous sorted array, each column ordered by raw y so a probe can
/// binary-search the exact [y-ε, y+ε] band instead of walking whole cell
/// rows — a 3-column probe covers ~6ε² of candidate area versus 9ε² for
/// a 3×3 cell walk. The order is total and value-determined (positions
/// are finite, ties broken by local index), so iteration — and therefore
/// distance_ops — is deterministic.
struct CellEntry {
  int64_t cx = 0;
  double y = 0.0;
  uint32_t local = 0;
};

bool CellLess(const CellEntry& a, const CellEntry& b) {
  if (a.cx != b.cx) return a.cx < b.cx;
  if (a.y != b.y) return a.y < b.y;
  return a.local < b.local;
}

/// First-entry offset of one distinct column in the sorted grid.
struct ColumnSpan {
  int64_t cx = 0;
  uint32_t begin = 0;
};

}  // namespace

ShardResult ComputeShardNeighbors(const Snapshot& snapshot,
                                  const ShardSlice& slice,
                                  const DbscanParams& params) {
  ShardResult result;
  result.neighbors.resize(slice.owned.size());
  if (slice.owned.empty()) return result;

  // Scratch persists across calls on each thread: the kernel runs once
  // per stripe per snapshot, and reallocating four n-sized arrays every
  // call showed up as real per-snapshot cost at fleet-scale populations.
  // Every element is rewritten below, so carried capacity is the only
  // state that survives a call.
  static thread_local std::vector<uint32_t> local;
  static thread_local std::vector<CellEntry> grid;
  static thread_local std::vector<ColumnSpan> columns;
  static thread_local std::vector<uint32_t> row_of_local;
  // Accepted (row, neighbor) edges, packed row<<32|index. Buffering them
  // flat and sizing each output row exactly once replaces the ~log(row)
  // reallocations per row that incremental push_backs would cost — at
  // fleet scale that is tens of thousands of heap round-trips per
  // snapshot, more than the distance math itself.
  static thread_local std::vector<uint64_t> edges;
  static thread_local std::vector<uint32_t> degree;
  // SoA mirrors of the sorted grid (sgx/sgy = point coordinates, sglocal
  // = local index, all in grid order) plus the candidate/survivor staging
  // for EpsFilterGather.
  static thread_local std::vector<double> sgx;
  static thread_local std::vector<double> sgy;
  static thread_local std::vector<uint32_t> sglocal;
  static thread_local std::vector<uint32_t> cand;
  static thread_local std::vector<uint32_t> surv;

  // Local working set: owned ∪ halo, ascending (both inputs are sorted
  // and disjoint by the partition contract).
  local.resize(slice.owned.size() + slice.halo.size());
  std::merge(slice.owned.begin(), slice.owned.end(), slice.halo.begin(),
             slice.halo.end(), local.begin());

  double max_abs = 0.0;
  for (uint32_t g : local) {
    Point p = snapshot.pos(g);
    max_abs = std::max({max_abs, std::fabs(p.x), std::fabs(p.y)});
  }
  const double cell = GridCellWidth(params.epsilon, max_abs);
  const double eps2 = params.epsilon * params.epsilon;

  grid.clear();
  grid.reserve(local.size());
  for (size_t j = 0; j < local.size(); ++j) {
    Point p = snapshot.pos(local[j]);
    grid.push_back(CellEntry{static_cast<int64_t>(std::floor(p.x / cell)),
                             p.y, static_cast<uint32_t>(j)});
  }
  std::sort(grid.begin(), grid.end(), CellLess);

  // Column directory: (cx, first-entry offset) per distinct column, plus
  // a sentinel carrying the total size so [begin(c), begin(c+1)) is every
  // column's span.
  columns.clear();
  for (uint32_t e = 0; e < grid.size(); ++e) {
    if (columns.empty() || columns.back().cx != grid[e].cx) {
      columns.push_back(ColumnSpan{grid[e].cx, e});
    }
  }
  columns.push_back(ColumnSpan{0, static_cast<uint32_t>(grid.size())});

  // Grid-order SoA mirror for the batched ε-filter: sgy duplicates the
  // sort key (band cursors advance over it with unit stride), sgx/sgy
  // together feed EpsFilterGather, sglocal maps survivors back.
  {
    const size_t m = grid.size();
    sgx.resize(m);
    sgy.resize(m);
    sglocal.resize(m);
    cand.resize(m);
    surv.resize(m);
    for (size_t e = 0; e < m; ++e) {
      const uint32_t k = grid[e].local;
      sgx[e] = snapshot.pos(local[k]).x;
      sgy[e] = grid[e].y;
      sglocal[e] = k;
    }
  }

  // Owned row of each local position (kNoRow for halo entries): mirror
  // pushes resolve the partner row in O(1).
  constexpr uint32_t kNoRow = 0xffffffffu;
  row_of_local.assign(local.size(), kNoRow);
  {
    size_t t = 0;
    for (size_t k = 0; k < local.size() && t < slice.owned.size(); ++k) {
      if (local[k] == slice.owned[t]) {
        row_of_local[k] = static_cast<uint32_t>(t++);
      }
    }
  }

  // Plane sweep in grid order: sources walk each column bottom-up, so the
  // [y - ε, y + ε] band in each of the up-to-three probe columns advances
  // monotonically — three forward-only cursors replace per-point binary
  // searches, and the traversal is sequential in memory.
  //
  // Owned–owned pairs are evaluated once, from the side with the smaller
  // local position, and mirrored into the partner's row (the same
  // pair-once discipline as the incremental clusterer's rebuild — the
  // candidate relation is symmetric, so each pair is seen exactly once).
  // Owned–halo pairs are always evaluated from the owned side: halo
  // points have no row here, so there is no mirror to rely on.
  const size_t ncols = columns.size() - 1;  // last entry is the sentinel
  for (size_t ci = 0; ci < ncols; ++ci) {
    const int64_t cx = columns[ci].cx;
    // Probe columns for sources in column ci: cx-1 and cx+1, when
    // occupied, sit immediately beside ci in the directory.
    size_t cols[3];
    uint32_t lo[3];
    int ncol = 0;
    if (ci > 0 && columns[ci - 1].cx == cx - 1) cols[ncol++] = ci - 1;
    cols[ncol++] = ci;
    if (ci + 1 < ncols && columns[ci + 1].cx == cx + 1) cols[ncol++] = ci + 1;
    for (int c = 0; c < ncol; ++c) lo[c] = columns[cols[c]].begin;

    for (uint32_t src = columns[ci].begin; src < columns[ci + 1].begin;
         ++src) {
      const uint32_t k_src = grid[src].local;
      const uint32_t row = row_of_local[k_src];
      if (row == kNoRow) continue;  // halo: candidate only, never a source
      const uint32_t g = local[k_src];
      const Point p = snapshot.pos(g);
      // The band bound is the padded `cell` width, not raw ε:
      // GridCellWidth's margin absorbs the rounding of p.y ± cell at this
      // coordinate magnitude, so a neighbor at exactly ε along y can
      // never fall outside the searched band.
      const double y_lo = p.y - cell;
      const double y_hi = p.y + cell;
      for (int c = 0; c < ncol; ++c) {
        const uint32_t end = columns[cols[c] + 1].begin;
        uint32_t e = lo[c];
        // Gather-first: the skip rules (self, mirrored owned–owned pair)
        // run before anything is counted or compared, then the surviving
        // band positions stream through the batched kernel in one go.
        while (e < end && sgy[e] < y_lo) ++e;
        lo[c] = e;  // source y only grows within the column
        size_t m = 0;
        for (; e < end && sgy[e] <= y_hi; ++e) {
          const uint32_t k = sglocal[e];
          if (k == k_src) continue;  // self
          const uint32_t partner_row = row_of_local[k];
          if (partner_row != kNoRow && k < k_src) continue;  // mirrored
          cand[m++] = e;
        }
        result.distance_ops += static_cast<int64_t>(m);
        const size_t kept = EpsFilterGather(sgx.data(), sgy.data(),
                                            cand.data(), m, p.x, p.y, eps2,
                                            surv.data());
        for (size_t s = 0; s < kept; ++s) {
          const uint32_t k = sglocal[surv[s]];
          edges.push_back((static_cast<uint64_t>(row) << 32) | local[k]);
          const uint32_t partner_row = row_of_local[k];
          if (partner_row != kNoRow) {
            edges.push_back((static_cast<uint64_t>(partner_row) << 32) | g);
          }
        }
      }
    }
  }
  // Materialize the rows: exact-size reserve (self + accepted edges),
  // fill, then one sort per row to restore the ascending-index invariant
  // the merge stage consumes.
  degree.assign(slice.owned.size(), 1);  // N_ε(o) includes o (Definition 1)
  for (uint64_t e : edges) ++degree[static_cast<uint32_t>(e >> 32)];
  for (size_t t = 0; t < slice.owned.size(); ++t) {
    result.neighbors[t].reserve(degree[t]);
    result.neighbors[t].push_back(slice.owned[t]);
  }
  for (uint64_t e : edges) {
    result.neighbors[static_cast<uint32_t>(e >> 32)].push_back(
        static_cast<uint32_t>(e));
  }
  edges.clear();
  for (std::vector<uint32_t>& row : result.neighbors) {
    std::sort(row.begin(), row.end());
  }
  return result;
}

}  // namespace tcomp
