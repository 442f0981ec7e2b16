#include "core/buddy_clustering.h"

#include <algorithm>
#include <span>

#include "util/arena.h"
#include "util/logging.h"

namespace tcomp {

Clustering BuddyBasedClustering(const Snapshot& snapshot,
                                const BuddySet& buddies,
                                const DbscanParams& params,
                                BuddyClusteringStats* stats) {
  const size_t n = snapshot.size();
  const double eps = params.epsilon;
  const double eps2 = eps * eps;
  const size_t mu = static_cast<size_t>(params.mu);
  BuddyClusteringStats local;

  const std::vector<Buddy>& blist = buddies.buddies();
  const size_t m = blist.size();
  Arena arena;  // the tables below live until the call returns

  // Member table: row b holds the snapshot indices of buddy b's members
  // present in the snapshot (members absent from it are carried forward
  // by BuddySet and have no index). One pass in index order reads each
  // object's slot, counts per slot and fills, so every row ascends.
  uint32_t* buddy_of = arena.AllocateArray<uint32_t>(n);
  uint32_t* member_at = arena.AllocateArray<uint32_t>(m + 1);
  std::fill(member_at, member_at + m + 1, 0u);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t slot = buddies.SlotOfObject(snapshot.id(i));
    TCOMP_CHECK(slot != BuddySet::kNoSlot)
        << "object " << snapshot.id(i) << " is in no buddy; call "
        << "BuddySet::Update with this snapshot first";
    buddy_of[i] = slot;
    ++member_at[slot + 1];
  }
  for (size_t b = 0; b < m; ++b) member_at[b + 1] += member_at[b];
  uint32_t* member_fill = arena.AllocateArray<uint32_t>(m);
  std::copy(member_at, member_at + m, member_fill);
  uint32_t* member_idx = arena.AllocateArray<uint32_t>(n);
  for (uint32_t i = 0; i < n; ++i) {
    member_idx[member_fill[buddy_of[i]]++] = i;
  }
  const auto members = [&](size_t b) {
    return std::span<const uint32_t>(member_idx + member_at[b],
                                     member_idx + member_at[b + 1]);
  };

  // Density-connected buddies (Lemma 2): every member is core.
  uint8_t* dcb = arena.AllocateArray<uint8_t>(m);
  for (size_t b = 0; b < m; ++b) {
    dcb[b] = members(b).size() >= mu + 1 && blist[b].radius <= eps / 2.0;
    local.lemma2_buddies += dcb[b];
  }

  // Buddy adjacency under Lemma 3. Pairs pruned here never reach the
  // object level. The Lemma-3 test d − γi − γj > ε fails only for
  // centers within ε + 2·γmax, so the shared sweep over the non-empty
  // buddies' centers at that radius yields every pair the test can keep;
  // pairs beyond it count as Lemma-3-pruned — same criterion, evaluated
  // geometrically. The sweep's own candidate count is not a distance_ops
  // figure: pairs_checked / pairs_pruned are this stage's counters.
  internal::SweepPairs swept;
  uint32_t* buddy_at = arena.AllocateArray<uint32_t>(m);
  double* xs = arena.AllocateArray<double>(m);
  double* ys = arena.AllocateArray<double>(m);
  double gamma_max = 0.0;
  int64_t nonempty = 0;
  for (size_t b = 0; b < m; ++b) {
    if (members(b).empty()) continue;
    gamma_max = std::max(gamma_max, blist[b].radius);
    const Point c = blist[b].center();
    buddy_at[nonempty] = static_cast<uint32_t>(b);
    xs[nonempty] = c.x;
    ys[nonempty] = c.y;
    ++nonempty;
  }
  local.pairs_checked += nonempty * (nonempty - 1) / 2;
  internal::SweepNeighborPairs(xs, ys, static_cast<size_t>(nonempty),
                               eps + 2.0 * gamma_max, nullptr,
                               params.threads, &arena, &swept);
  // The kept pairs overwrite the swept list in place, packed as slots
  // (i << 32 | j) with i < j: positions ascend with slots, and the sweep
  // packs each pair from its smaller position. Sorted, they fill the
  // adjacency table: row b is b itself, then its adjacent buddies
  // ascending — the order the core-flag early stop at μ, and so
  // distance_ops, depend on.
  std::vector<uint64_t>& linked = swept.pairs;
  size_t kept = 0;
  for (uint64_t pair : swept.pairs) {
    const uint32_t i = buddy_at[pair >> 32];
    const uint32_t j = buddy_at[static_cast<uint32_t>(pair)];
    double d = Distance(blist[i].center(), blist[j].center());
    // The Lemma-3 prune subtracts disk radii from the center
    // distance, which has no squared form; it only discards pairs
    // provably beyond ε — membership is still decided by WithinEps
    // downstream.
    // tcomp-lint: allow(sqrt-eps): lemma bound needs the true root
    if (d - blist[i].radius - blist[j].radius > eps) continue;
    linked[kept++] = (uint64_t{i} << 32) | j;
  }
  linked.resize(kept);
  std::sort(linked.begin(), linked.end());
  local.pairs_pruned +=
      nonempty * (nonempty - 1) / 2 - static_cast<int64_t>(kept);
  const NeighborTable lemma3 =
      internal::NeighborTableFromPairs(linked.data(), kept, m, &arena);
  const auto adjacent = [&](size_t b) {
    return std::span<const uint32_t>(lemma3.entries + lemma3.offsets[b] + 1,
                                     lemma3.entries + lemma3.offsets[b + 1]);
  };

  // Core flags. Members of density-connected buddies are core for free;
  // everyone else counts ε-neighbors (self included) over its own buddy
  // plus adjacent buddies, stopping early at μ.
  std::vector<bool> core(n, false);
  for (size_t b = 0; b < m; ++b) {
    if (dcb[b]) {
      for (uint32_t idx : members(b)) core[idx] = true;
      continue;
    }
    for (uint32_t idx : members(b)) {
      size_t count = 1;  // self
      Point p = snapshot.pos(idx);
      auto scan = [&](std::span<const uint32_t> list) {
        for (uint32_t other : list) {
          if (other == idx) continue;
          ++local.distance_ops;
          // tcomp-lint: allow(soa-raw-loop): the ≥μ early stop (return on
          // the μ-th hit) is the whole optimization; a batched filter
          // would evaluate the full list and change distance_ops.
          if (WithinEps(p, snapshot.pos(other), eps2)) {
            ++count;
            if (count >= mu) return true;
          }
        }
        return false;
      };
      if (!scan(members(b))) {
        for (uint32_t nb : adjacent(b)) {
          if (scan(members(nb))) break;
        }
      }
      core[idx] = count >= mu;
    }
  }

  // Union core objects into clusters.
  internal::DisjointSets sets(n);

  // Within one buddy: a density-connected buddy is fully ε-close, so its
  // cores chain directly; otherwise check in-buddy core pairs.
  for (size_t b = 0; b < m; ++b) {
    const std::span<const uint32_t> mem = members(b);
    if (dcb[b]) {
      for (size_t k = 1; k < mem.size(); ++k) sets.Union(mem[0], mem[k]);
      continue;
    }
    for (size_t a = 0; a < mem.size(); ++a) {
      if (!core[mem[a]]) continue;
      for (size_t c = a + 1; c < mem.size(); ++c) {
        if (!core[mem[c]]) continue;
        ++local.distance_ops;
        // tcomp-lint: allow(soa-raw-loop): in-buddy core pairs — buddies
        // are δγ-sized (a handful of members), far below any batch
        // break-even.
        if (WithinEps(snapshot.pos(mem[a]), snapshot.pos(mem[c]), eps2)) {
          sets.Union(mem[a], mem[c]);
        }
      }
    }
  }

  // Across adjacent buddy pairs, in ascending (i, j) order. Only a union
  // of two sets can change the clustering, so nothing else is tested: a
  // pair of density-connected buddies (each one set already) is skipped
  // once the two sets are joined, and Lemma 4 joins them at the first
  // ε-close cross pair; any other pair tests only its core–core object
  // pairs that are not yet in one set.
  for (uint64_t pair : linked) {
    const std::span<const uint32_t> mi = members(pair >> 32);
    const std::span<const uint32_t> mj = members(static_cast<uint32_t>(pair));
    if (dcb[pair >> 32] && dcb[static_cast<uint32_t>(pair)]) {
      if (sets.Find(mi[0]) == sets.Find(mj[0])) continue;
      [&] {
        for (uint32_t a : mi) {
          for (uint32_t c : mj) {
            ++local.distance_ops;
            // tcomp-lint: allow(soa-raw-loop): Lemma 4 stops at the first
            // ε-close cross pair; batching would evaluate pairs the
            // scalar walk never reaches and change distance_ops.
            if (WithinEps(snapshot.pos(a), snapshot.pos(c), eps2)) {
              sets.Union(a, c);
              return;
            }
          }
        }
      }();
      continue;
    }
    for (uint32_t a : mi) {
      if (!core[a]) continue;
      for (uint32_t c : mj) {
        if (!core[c] || sets.Find(a) == sets.Find(c)) continue;
        ++local.distance_ops;
        // tcomp-lint: allow(soa-raw-loop): which pairs are left to test
        // depends on the unions made so far; a batch would evaluate pairs
        // already joined and change distance_ops.
        if (WithinEps(snapshot.pos(a), snapshot.pos(c), eps2)) {
          sets.Union(a, c);
        }
      }
    }
  }

  // Border attachment: lowest-index core neighbor within ε, searched over
  // the own buddy and adjacent buddies (farther cores are excluded by
  // Lemma 3). Matches the deterministic rule of Dbscan().
  std::vector<uint32_t> attach_to(n, internal::kNoAttach);
  for (size_t i = 0; i < n; ++i) {
    if (core[i]) {
      attach_to[i] = static_cast<uint32_t>(i);
      continue;
    }
    uint32_t best = internal::kNoAttach;
    Point p = snapshot.pos(i);
    const uint32_t b = buddy_of[i];
    auto consider = [&](std::span<const uint32_t> list) {
      for (uint32_t other : list) {
        if (other == i || !core[other]) continue;
        if (other >= best) continue;  // only lower indices can improve
        ++local.distance_ops;
        // tcomp-lint: allow(soa-raw-loop): the `other >= best` pruning
        // makes the candidate set data-dependent mid-walk; a precomputed
        // batch would evaluate pruned pairs and change distance_ops.
        if (WithinEps(p, snapshot.pos(other), eps2)) best = other;
      }
    };
    consider(members(b));
    for (uint32_t nb : adjacent(b)) consider(members(nb));
    attach_to[i] = best;
  }

  Clustering result;
  result.core = core;
  internal::NumberClusters(snapshot, attach_to, &sets, &result);

  if (stats != nullptr) {
    stats->pairs_checked += local.pairs_checked;
    stats->pairs_pruned += local.pairs_pruned;
    stats->lemma2_buddies += local.lemma2_buddies;
    stats->distance_ops += local.distance_ops;
  }
  return result;
}

}  // namespace tcomp
