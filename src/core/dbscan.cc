#include "core/dbscan.h"

#include <algorithm>
#include <cmath>
#include <iterator>
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
  const double eps = params.epsilon;
  const double eps2 = eps * eps;
  TCOMP_CHECK_GT(eps, 0.0);

  double max_abs = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    Point p = snapshot.pos(i);
    // Defense in depth behind the stream-ingest validation: casting
    // floor(NaN/Inf) to int64_t is undefined behavior, so a non-finite
    // coordinate must never reach the cell bucketing below.
    TCOMP_CHECK(std::isfinite(p.x) && std::isfinite(p.y))
        << "non-finite coordinate for object " << snapshot.id(i);
    max_abs = std::max({max_abs, std::fabs(p.x), std::fabs(p.y)});
  }
  // Padded cell width: with cells of exactly eps, the rounding of
  // floor(x / eps) at large |x| can put a pair at distance exactly eps
  // two cells apart, and the 3×3 scan would miss it (the flat backend
  // would not — an eps-boundary disagreement). GridCellWidth pads the
  // width so adjacent-cell coverage is guaranteed; membership is still
  // decided exactly by the closed-ball compare of the ε-filter kernel.
  const double cell_width = GridCellWidth(eps, max_abs);

  // The grid is a sorted flat array of (cell, point) entries, so every
  // 3×3 probe is a handful of contiguous ranges over coordinates permuted
  // into grid order — exactly the shape EpsFilterBatch streams.
  struct Entry {
    int64_t cx;
    int64_t cy;
    uint32_t idx;
  };
  std::vector<Entry> entries(n);
  for (uint32_t i = 0; i < n; ++i) {
    const Point p = snapshot.pos(i);
    entries[i] = Entry{static_cast<int64_t>(std::floor(p.x / cell_width)),
                       static_cast<int64_t>(std::floor(p.y / cell_width)), i};
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.cx != b.cx) return a.cx < b.cx;
    if (a.cy != b.cy) return a.cy < b.cy;
    return a.idx < b.idx;
  });

  // Grid-order permutation of the coordinates plus the map back to
  // snapshot indices.
  std::vector<double> gx(n);
  std::vector<double> gy(n);
  std::vector<uint32_t> order(n);
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = entries[k].idx;
    const Point p = snapshot.pos(i);
    order[k] = i;
    gx[k] = p.x;
    gy[k] = p.y;
  }

  // Occupied cells with their [begin, end) range in grid order, plus each
  // point's cell.
  struct UCell {
    int64_t cx;
    int64_t cy;
    uint32_t begin;
    uint32_t end;
  };
  std::vector<UCell> cells;
  for (uint32_t k = 0; k < n; ++k) {
    if (cells.empty() || cells.back().cx != entries[k].cx ||
        cells.back().cy != entries[k].cy) {
      cells.push_back(UCell{entries[k].cx, entries[k].cy, k, k + 1});
    } else {
      cells.back().end = k + 1;
    }
  }

  // Forward plane-sweep span table. The 3×3 candidate relation is
  // symmetric, so each unordered pair needs evaluating only once: point
  // k probes the tail of its own cell (grid positions > k) plus the
  // forward half-neighborhood — cell (cx, cy+1) and the cx+1 column
  // (cy-1..cy+1). Every surviving pair then feeds both rows in the
  // scatter below, exactly the upper-triangle structure of the flat
  // Dbscan backend. Adjacent forward cells are consecutive in grid
  // order whenever occupied, so the cx+1 column typically collapses to
  // one merged span — ranges long enough for the kernel's vector path.
  // distance_ops accounting: the sweep evaluates each unordered pair
  // once and counts it twice, so the recorded figure is the number of
  // ordered candidate pairs a per-point 3×3 walk would compare.
  std::vector<uint32_t> span_offset(cells.size() + 1, 0);
  std::vector<std::pair<uint32_t, uint32_t>> spans;
  spans.reserve(cells.size() * 3);
  const auto cell_pos_less = [](const UCell& a, const UCell& b) {
    if (a.cx != b.cx) return a.cx < b.cx;
    return a.cy < b.cy;
  };
  constexpr int64_t kForward[4][2] = {{0, 1}, {1, -1}, {1, 0}, {1, 1}};
  for (size_t c = 0; c < cells.size(); ++c) {
    const size_t first_span = spans.size();
    for (const int64_t* d : kForward) {
      const UCell probe{cells[c].cx + d[0], cells[c].cy + d[1], 0, 0};
      auto it = std::lower_bound(cells.begin(), cells.end(), probe,
                                 cell_pos_less);
      if (it != cells.end() && it->cx == probe.cx && it->cy == probe.cy) {
        if (spans.size() > first_span && spans.back().second == it->begin) {
          spans.back().second = it->end;
        } else {
          spans.emplace_back(it->begin, it->end);
        }
      }
    }
    span_offset[c + 1] = static_cast<uint32_t>(spans.size());
  }
  // Survivor staging must cover the longest merged span and the largest
  // own-cell tail.
  uint32_t max_span_len = 0;
  for (const std::pair<uint32_t, uint32_t>& s : spans) {
    max_span_len = std::max(max_span_len, s.second - s.first);
  }
  for (const UCell& c : cells) {
    max_span_len = std::max(max_span_len, c.end - c.begin);
  }

  // Phase 1 (parallel): forward survivor lists, one owner per cell —
  // shard s sweeps cells s, s+T, ..., and fwd[i] is written only by the
  // shard owning i's cell, so rows never race. Phase 2 (serial) mirrors
  // each surviving pair into both rows; content is independent of the
  // shard count because phase 1 rows are.
  int64_t ops = 0;
  std::vector<std::vector<uint32_t>> fwd(n);
  const int shards = EffectiveShards(params.threads, n);
  std::vector<int64_t> shard_ops(static_cast<size_t>(shards), 0);
  ParallelForShards(shards, [&](int shard, int num_shards) {
    int64_t local_ops = 0;
    std::vector<uint32_t> surv(max_span_len);
    for (size_t c = static_cast<size_t>(shard); c < cells.size();
         c += static_cast<size_t>(num_shards)) {
      for (uint32_t k = cells[c].begin; k < cells[c].end; ++k) {
        const uint32_t i = order[k];
        const double px = gx[k];
        const double py = gy[k];
        std::vector<uint32_t>& row = fwd[i];
        // One up-front block instead of doubling through the emit loops;
        // dense-regime rows run ~10-20 forward survivors.
        row.reserve(16);
        if (k + 1 < cells[c].end) {
          local_ops += cells[c].end - (k + 1);
          const size_t kept = EpsFilterBatch(gx.data(), gy.data(), k + 1,
                                             cells[c].end, px, py, eps2,
                                             surv.data());
          for (size_t t = 0; t < kept; ++t) row.push_back(order[surv[t]]);
        }
        for (uint32_t s = span_offset[c]; s < span_offset[c + 1]; ++s) {
          local_ops += spans[s].second - spans[s].first;
          const size_t kept =
              EpsFilterBatch(gx.data(), gy.data(), spans[s].first,
                             spans[s].second, px, py, eps2, surv.data());
          for (size_t t = 0; t < kept; ++t) row.push_back(order[surv[t]]);
        }
      }
    }
    shard_ops[static_cast<size_t>(shard)] = local_ops;
  });
  for (int64_t s : shard_ops) ops += 2 * s;

  // Phase 2: mirror the surviving pairs. The full row for i is the
  // ascending union of {i}, its forward survivors, and every j that saw
  // i in its own forward sweep. Scattering the reverse edges in
  // ascending i order makes each reverse segment pre-sorted, so one
  // small sort (forward list plus self) and one linear merge replace
  // the full-row sort, at a fraction of the comparisons.
  std::vector<uint32_t> rev_off(n + 1, 0);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j : fwd[i]) ++rev_off[j + 1];
  }
  for (uint32_t i = 0; i < n; ++i) rev_off[i + 1] += rev_off[i];
  std::vector<uint32_t> rev_buf(rev_off[n]);
  {
    std::vector<uint32_t> cursor(rev_off.begin(), rev_off.end() - 1);
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j : fwd[i]) rev_buf[cursor[j]++] = i;
    }
  }
  std::vector<std::vector<uint32_t>> neighbors(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<uint32_t>& f = fwd[i];
    f.push_back(i);
    std::sort(f.begin(), f.end());
    std::vector<uint32_t>& row = neighbors[i];
    const uint32_t rb = rev_off[i];
    const uint32_t re = rev_off[i + 1];
    row.reserve(f.size() + (re - rb));
    std::merge(f.begin(), f.end(), rev_buf.begin() + rb,
               rev_buf.begin() + re, std::back_inserter(row));
  }

  std::vector<bool> core(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    core[i] = neighbors[i].size() >= static_cast<size_t>(params.mu);
  }
  if (distance_ops != nullptr) *distance_ops += ops;
  return internal::BuildClusteringFromCores(snapshot, core, neighbors);
}

}  // namespace tcomp
