#include "core/dbscan.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "util/eps_filter.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tcomp {

double GridCellWidth(double eps, double max_abs_coord) {
  // 2⁻⁴⁰ is ~8000x the relative rounding of a double division, so the pad
  // dominates every floor(x / cell) error while widening cells by less
  // than one part in 10¹¹ for realistic |coord|/eps ratios.
  constexpr double kPad = 0x1p-40;
  return eps * (1.0 + kPad) + max_abs_coord * kPad;
}

namespace internal {

Clustering BuildClusteringFromCores(
    const Snapshot& snapshot, const std::vector<bool>& core,
    const std::vector<std::vector<uint32_t>>& neighbors) {
  const size_t n = snapshot.size();
  Clustering result;
  result.labels.assign(n, -1);
  result.core = core;

  DisjointSets sets(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!core[i]) continue;
    for (uint32_t j : neighbors[i]) {
      if (core[j]) sets.Union(i, j);
    }
  }

  // Border objects join the cluster of their lowest-index core neighbor.
  // neighbors[] lists are ascending, so the first core hit is the lowest.
  std::vector<uint32_t> attach_to(n, 0);
  std::vector<bool> attached(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    if (core[i]) {
      attach_to[i] = i;
      attached[i] = true;
      continue;
    }
    for (uint32_t j : neighbors[i]) {
      if (core[j]) {
        attach_to[i] = j;
        attached[i] = true;
        break;
      }
    }
  }

  // Number clusters by first appearance in index order.
  std::unordered_map<uint32_t, int32_t> root_to_label;
  for (uint32_t i = 0; i < n; ++i) {
    if (!attached[i]) continue;
    uint32_t root = sets.Find(attach_to[i]);
    auto it = root_to_label.find(root);
    int32_t label;
    if (it == root_to_label.end()) {
      label = static_cast<int32_t>(result.clusters.size());
      root_to_label.emplace(root, label);
      result.clusters.emplace_back();
    } else {
      label = it->second;
    }
    result.labels[i] = label;
    // Indices ascend => ids ascend, so each cluster vector stays sorted.
    result.clusters[static_cast<size_t>(label)].push_back(snapshot.id(i));
  }
  return result;
}

int64_t SweepNeighborPairs(const double* xs, const double* ys, size_t n,
                           double radius, const uint8_t* source,
                           Arena* arena, std::vector<uint64_t>* pairs) {
  TCOMP_CHECK_GT(radius, 0.0);
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
  struct SweepEntry {
    int64_t cx;
    double y;
    uint32_t idx;
  };
  SweepEntry* grid = arena->AllocateArray<SweepEntry>(n);
  for (size_t i = 0; i < n; ++i) {
    grid[i] = SweepEntry{static_cast<int64_t>(std::floor(xs[i] / w)), ys[i],
                         static_cast<uint32_t>(i)};
  }
  std::sort(grid, grid + n, [](const SweepEntry& a, const SweepEntry& b) {
    if (a.cx != b.cx) return a.cx < b.cx;
    if (a.y != b.y) return a.y < b.y;
    return a.idx < b.idx;
  });

  // Sweep-order SoA mirror (sy doubles as the band cursors' key, sx/sy
  // feed EpsFilterGather, sidx maps positions back to points) and the
  // first position of every column, closed by n.
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
  uint32_t* cand = arena->AllocateArray<uint32_t>(n);
  uint32_t* surv = arena->AllocateArray<uint32_t>(n);

  // Sources walk each column bottom-up, so the band in each of the up to
  // three probe columns only moves forward: one cursor per probe column
  // replaces a per-source binary search.
  int64_t ops = 0;
  for (size_t c = 0; c < ncols; ++c) {
    const int64_t cx = grid[col[c]].cx;
    size_t probe[3];
    uint32_t lo[3];
    int nprobe = 0;
    if (c > 0 && grid[col[c - 1]].cx == cx - 1) probe[nprobe++] = c - 1;
    probe[nprobe++] = c;
    if (c + 1 < ncols && grid[col[c + 1]].cx == cx + 1) {
      probe[nprobe++] = c + 1;
    }
    for (int k = 0; k < nprobe; ++k) lo[k] = col[probe[k]];

    for (uint32_t s = col[c]; s < col[c + 1]; ++s) {
      const uint32_t i = sidx[s];
      if (source != nullptr && source[i] == 0) continue;
      const double y_lo = sy[s] - w;
      const double y_hi = sy[s] + w;
      for (int k = 0; k < nprobe; ++k) {
        const uint32_t end = col[probe[k] + 1];
        uint32_t e = lo[k];
        while (e < end && sy[e] < y_lo) ++e;
        lo[k] = e;
        // The skip rules (self, a source-source pair owned by the smaller
        // index) run before anything is counted or compared.
        size_t m = 0;
        for (; e < end && sy[e] <= y_hi; ++e) {
          const uint32_t j = sidx[e];
          if (j == i) continue;
          if (j < i && (source == nullptr || source[j] != 0)) continue;
          cand[m++] = e;
        }
        ops += static_cast<int64_t>(m);
        const size_t kept =
            EpsFilterGather(sx, sy, cand, m, sx[s], sy[s], r2, surv);
        for (size_t t = 0; t < kept; ++t) {
          pairs->push_back((static_cast<uint64_t>(i) << 32) | sidx[surv[t]]);
        }
      }
    }
  }
  return ops;
}

void AppendPairsToRows(const uint64_t* pairs, size_t count,
                       const uint32_t* value, bool include_self,
                       Arena* arena,
                       std::vector<std::vector<uint32_t>>* rows) {
  const size_t nrows = rows->size();
  uint32_t* degree = arena->AllocateArray<uint32_t>(nrows);
  std::fill(degree, degree + nrows, 0u);
  for (size_t k = 0; k < count; ++k) {
    const uint64_t a = pairs[k] >> 32;
    const uint32_t b = static_cast<uint32_t>(pairs[k]);
    if (a < nrows) ++degree[a];
    if (b < nrows) ++degree[b];
  }
  const uint32_t self = include_self ? 1 : 0;
  const auto value_of = [value](uint32_t k) {
    return value == nullptr ? k : value[k];
  };
  // Sizing every row once up front replaces the ~log(degree)
  // reallocations incremental push_backs would cost per row.
  uint32_t max_appended = 0;
  for (uint32_t r = 0; r < nrows; ++r) {
    const uint32_t appended = degree[r] + self;
    if (appended == 0) continue;
    max_appended = std::max(max_appended, appended);
    std::vector<uint32_t>& row = (*rows)[r];
    row.reserve(row.size() + appended);
    if (include_self) row.push_back(value_of(r));
  }
  for (size_t k = 0; k < count; ++k) {
    const uint32_t a = static_cast<uint32_t>(pairs[k] >> 32);
    const uint32_t b = static_cast<uint32_t>(pairs[k]);
    if (a < nrows) (*rows)[a].push_back(value_of(b));
    if (b < nrows) (*rows)[b].push_back(value_of(a));
  }
  // Sort each appended tail, then merge it into the row's kept prefix
  // from the back: a carried list that gained a few entries costs one
  // linear pass instead of a full re-sort.
  uint32_t* tail = arena->AllocateArray<uint32_t>(max_appended);
  for (uint32_t r = 0; r < nrows; ++r) {
    const size_t appended = degree[r] + self;
    if (appended == 0) continue;
    std::vector<uint32_t>& row = (*rows)[r];
    size_t kept = row.size() - appended;
    std::sort(row.begin() + kept, row.end());
    if (kept == 0 || row[kept - 1] <= row[kept]) continue;
    std::copy(row.begin() + kept, row.end(), tail);
    size_t out = row.size();
    for (size_t t = appended; t > 0;) {
      if (kept > 0 && row[kept - 1] > tail[t - 1]) {
        row[--out] = row[--kept];
      } else {
        row[--out] = tail[--t];
      }
    }
  }
}

}  // namespace internal

Clustering Dbscan(const Snapshot& snapshot, const DbscanParams& params,
                  int64_t* distance_ops) {
  const size_t n = snapshot.size();
  const double eps2 = params.epsilon * params.epsilon;
  std::vector<std::vector<uint32_t>> neighbors(n);
  int64_t ops = 0;
  for (uint32_t i = 0; i < n; ++i) {
    neighbors[i].push_back(i);
  }
  const int shards = EffectiveShards(params.threads, n);
  if (shards == 1) {
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        ++ops;
        // tcomp-lint: allow(soa-raw-loop): reference O(n²) backend —
        // the paper's cost model for CI/SC; deliberately unaccelerated
        // so distance_ops stays the figure the paper plots.
        if (WithinEps(snapshot.pos(i), snapshot.pos(j), eps2)) {
          neighbors[i].push_back(j);
          neighbors[j].push_back(i);
        }
      }
    }
  } else {
    // Each worker owns a strided set of rows (row i of the upper triangle
    // is computed entirely by shard i % num_shards; striding balances the
    // triangular row lengths). Workers never touch shared state: hits go
    // into the owned row of `upper`, ops into a per-shard counter. The
    // serial scatter below then reproduces the exact adjacency the serial
    // loop builds, and the ops total is the same n(n-1)/2.
    std::vector<std::vector<uint32_t>> upper(n);
    std::vector<int64_t> shard_ops(static_cast<size_t>(shards), 0);
    ParallelForShards(shards, [&](int shard, int num_shards) {
      int64_t local_ops = 0;
      for (uint32_t i = static_cast<uint32_t>(shard); i < n;
           i += static_cast<uint32_t>(num_shards)) {
        Point pi = snapshot.pos(i);
        for (uint32_t j = i + 1; j < n; ++j) {
          ++local_ops;
          // tcomp-lint: allow(soa-raw-loop): reference O(n²) backend —
          // the paper's cost model for CI/SC; deliberately unaccelerated
          // so distance_ops stays the figure the paper plots.
          if (WithinEps(pi, snapshot.pos(j), eps2)) {
            upper[i].push_back(j);
          }
        }
      }
      shard_ops[static_cast<size_t>(shard)] = local_ops;
    });
    for (int64_t s : shard_ops) ops += s;
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j : upper[i]) {
        neighbors[i].push_back(j);
        neighbors[j].push_back(i);
      }
    }
  }
  // Restore ascending order (j<i entries were appended after i itself).
  for (auto& list : neighbors) std::sort(list.begin(), list.end());

  std::vector<bool> core(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    core[i] = neighbors[i].size() >= static_cast<size_t>(params.mu);
  }
  if (distance_ops != nullptr) *distance_ops += ops;
  return internal::BuildClusteringFromCores(snapshot, core, neighbors);
}

Clustering DbscanGrid(const Snapshot& snapshot, const DbscanParams& params,
                      int64_t* distance_ops) {
  const size_t n = snapshot.size();
  Arena arena;
  std::vector<uint64_t> pairs;
  const SnapshotSoA soa = BuildSnapshotSoA(snapshot, &arena);
  const int64_t ops = internal::SweepNeighborPairs(
      soa.x, soa.y, n, params.epsilon, nullptr, &arena, &pairs);
  std::vector<std::vector<uint32_t>> neighbors(n);
  internal::AppendPairsToRows(pairs.data(), pairs.size(), nullptr,
                              /*include_self=*/true, &arena, &neighbors);

  std::vector<bool> core(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    core[i] = neighbors[i].size() >= static_cast<size_t>(params.mu);
  }
  if (distance_ops != nullptr) *distance_ops += ops;
  return internal::BuildClusteringFromCores(snapshot, core, neighbors);
}

}  // namespace tcomp
