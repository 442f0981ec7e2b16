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

namespace internal {

NeighborTableBuilder::NeighborTableBuilder(size_t n, Arena* arena)
    : n_(n), arena_(arena), offsets_(arena->AllocateArray<uint32_t>(n + 1)) {
  std::fill(offsets_, offsets_ + n + 1, 0u);
}

void NeighborTableBuilder::CountPairs(const uint64_t* pairs, size_t count,
                                      size_t nrows, const uint32_t* value) {
  uint32_t* degree = offsets_ + 1;
  for (uint32_t k = 0; k < nrows; ++k) {
    ++degree[value == nullptr ? k : value[k]];
  }
  for (size_t p = 0; p < count; ++p) {
    const uint64_t a = pairs[p] >> 32;
    const uint32_t b = static_cast<uint32_t>(pairs[p]);
    if (a < nrows) ++degree[value == nullptr ? a : value[a]];
    if (b < nrows) ++degree[value == nullptr ? b : value[b]];
  }
}

void NeighborTableBuilder::Seal() {
  for (size_t i = 0; i < n_; ++i) offsets_[i + 1] += offsets_[i];
  cursor_ = arena_->AllocateArray<uint32_t>(n_);
  std::copy(offsets_, offsets_ + n_, cursor_);
  entries_ = arena_->AllocateArray<uint32_t>(offsets_[n_]);
}

void NeighborTableBuilder::FillPairs(const uint64_t* pairs, size_t count,
                                     size_t nrows, const uint32_t* value) {
  const auto value_of = [value](uint64_t k) {
    return value == nullptr ? static_cast<uint32_t>(k) : value[k];
  };
  for (uint32_t k = 0; k < nrows; ++k) {
    const uint32_t row = value_of(k);
    entries_[cursor_[row]++] = row;
  }
  for (size_t p = 0; p < count; ++p) {
    const uint64_t a = pairs[p] >> 32;
    const uint32_t b = static_cast<uint32_t>(pairs[p]);
    if (a < nrows) entries_[cursor_[value_of(a)]++] = value_of(b);
    if (b < nrows) entries_[cursor_[value_of(b)]++] = value_of(a);
  }
}

NeighborTable NeighborTableFromPairs(const uint64_t* pairs, size_t count,
                                     size_t n, Arena* arena) {
  NeighborTableBuilder builder(n, arena);
  builder.CountPairs(pairs, count, n, nullptr);
  builder.Seal();
  builder.FillPairs(pairs, count, n, nullptr);
  return builder.table();
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
                           double radius, const uint8_t* source,
                           Arena* arena, std::vector<uint64_t>* pairs,
                           int64_t* batches) {
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
  int64_t dispatched = 0;
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
        if (m == 0) continue;
        ops += static_cast<int64_t>(m);
        ++dispatched;
        const size_t kept =
            EpsFilterGather(sx, sy, cand, m, sx[s], sy[s], r2, surv);
        for (size_t t = 0; t < kept; ++t) {
          pairs->push_back((static_cast<uint64_t>(i) << 32) | sidx[surv[t]]);
        }
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
  const int shards = EffectiveShards(params.threads, n);
  // Each shard owns a strided set of rows (row i of the upper triangle
  // is computed entirely by shard i % num_shards; striding balances the
  // triangular row lengths) and collects its within-ε pairs (i < j) on
  // its own; the lists are joined into the table afterwards, and the ops
  // total is the same n(n-1)/2 at every shard count.
  std::vector<std::vector<uint64_t>> pairs(static_cast<size_t>(shards));
  std::vector<int64_t> shard_ops(static_cast<size_t>(shards), 0);
  ParallelForShards(shards, [&](int shard, int num_shards) {
    std::vector<uint64_t>& out = pairs[static_cast<size_t>(shard)];
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
          out.push_back((static_cast<uint64_t>(i) << 32) | j);
        }
      }
    }
    shard_ops[static_cast<size_t>(shard)] = local_ops;
  });
  for (int64_t s : shard_ops) ops += s;
  for (size_t k = 1; k < pairs.size(); ++k) {
    pairs[0].insert(pairs[0].end(), pairs[k].begin(), pairs[k].end());
  }
  Arena arena;
  const NeighborTable table = internal::NeighborTableFromPairs(
      pairs[0].data(), pairs[0].size(), n, &arena);
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
      soa.x, soa.y, n, params_.epsilon, nullptr, &arena_, &pairs_, &batches);
  const NeighborTable table = internal::NeighborTableFromPairs(
      pairs_.data(), pairs_.size(), n, &arena_);
  sweep_timer.Stop();
  if (distance_ops != nullptr) *distance_ops += swept;
  if (cost != nullptr) {
    cost->batches += batches;
    cost->seconds += sweep_timer.Seconds();
  }
  return internal::BuildClusteringFromCores(snapshot, table, params_.mu);
}

Clustering DbscanGrid(const Snapshot& snapshot, const DbscanParams& params,
                      int64_t* distance_ops) {
  return SnapshotClusterer(params).Cluster(snapshot, distance_ops);
}

}  // namespace tcomp
