#include "core/buddy_clustering.h"

#include <algorithm>

#include "util/arena.h"
#include "util/logging.h"

namespace tcomp {
namespace {

constexpr uint32_t kAbsent = static_cast<uint32_t>(-1);

}  // namespace

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

  // Member snapshot-indices per buddy (members absent from the snapshot
  // are skipped; upstream carry-forward normally prevents that).
  std::vector<std::vector<uint32_t>> members(m);
  std::vector<uint32_t> buddy_of(n, kAbsent);
  for (size_t b = 0; b < m; ++b) {
    members[b].reserve(blist[b].members.size());
    for (ObjectId oid : blist[b].members) {
      size_t idx = snapshot.IndexOf(oid);
      if (idx == Snapshot::kNpos) continue;
      members[b].push_back(static_cast<uint32_t>(idx));
      buddy_of[idx] = static_cast<uint32_t>(b);
    }
    std::sort(members[b].begin(), members[b].end());
  }
  for (size_t i = 0; i < n; ++i) {
    TCOMP_DCHECK(buddy_of[i] != kAbsent)
        << "object " << snapshot.id(i) << " is in no buddy; call "
        << "BuddySet::Update with this snapshot first";
  }

  // Density-connected buddies (Lemma 2): every member is core.
  std::vector<bool> dcb(m, false);
  for (size_t b = 0; b < m; ++b) {
    if (members[b].size() >= mu + 1 && blist[b].radius <= eps / 2.0) {
      dcb[b] = true;
      ++local.lemma2_buddies;
    }
  }

  // Buddy adjacency under Lemma 3. Pairs pruned here never reach the
  // object level. The Lemma-3 test d − γi − γj > ε fails only for
  // centers within ε + 2·γmax, so the shared sweep over the non-empty
  // buddies' centers at that radius yields every pair the test can keep;
  // pairs beyond it count as Lemma-3-pruned — same criterion, evaluated
  // geometrically. The sweep's own candidate count is not a distance_ops
  // figure: pairs_checked / pairs_pruned are this stage's counters.
  std::vector<std::vector<uint32_t>> adjacent(m);
  {
    Arena arena;
    internal::SweepPairs swept;
    uint32_t* buddy_at = arena.AllocateArray<uint32_t>(m);
    double* xs = arena.AllocateArray<double>(m);
    double* ys = arena.AllocateArray<double>(m);
    double gamma_max = 0.0;
    int64_t nonempty = 0;
    for (size_t b = 0; b < m; ++b) {
      if (members[b].empty()) continue;
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
    int64_t linked = 0;
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
      adjacent[i].push_back(j);
      adjacent[j].push_back(i);
      ++linked;
    }
    local.pairs_pruned += nonempty * (nonempty - 1) / 2 - linked;
    for (std::vector<uint32_t>& list : adjacent) {
      std::sort(list.begin(), list.end());
    }
  }

  // Core flags. Members of density-connected buddies are core for free;
  // everyone else counts ε-neighbors (self included) over its own buddy
  // plus adjacent buddies, stopping early at μ.
  std::vector<bool> core(n, false);
  for (size_t b = 0; b < m; ++b) {
    if (dcb[b]) {
      for (uint32_t idx : members[b]) core[idx] = true;
      continue;
    }
    for (uint32_t idx : members[b]) {
      size_t count = 1;  // self
      Point p = snapshot.pos(idx);
      auto scan = [&](const std::vector<uint32_t>& list) {
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
      bool done = scan(members[b]);
      if (!done) {
        for (uint32_t nb : adjacent[b]) {
          if (scan(members[nb])) {
            done = true;
            break;
          }
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
    const std::vector<uint32_t>& mem = members[b];
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

  // Across adjacent buddy pairs. Lemma 4 short-circuits pairs of
  // density-connected buddies at the first ε-close cross pair.
  for (size_t i = 0; i < m; ++i) {
    for (uint32_t j : adjacent[i]) {
      if (j <= i) continue;  // each unordered pair once
      bool both_dcb = dcb[i] && dcb[j];
      bool shortcut_done = false;
      for (uint32_t a : members[i]) {
        if (shortcut_done) break;
        for (uint32_t c : members[j]) {
          ++local.distance_ops;
          // tcomp-lint: allow(soa-raw-loop): Lemma 4 short-circuits at
          // the first ε-close cross pair; batching would evaluate pairs
          // the scalar walk never reaches and change distance_ops.
          if (!WithinEps(snapshot.pos(a), snapshot.pos(c), eps2)) {
            continue;
          }
          if (both_dcb) {
            // Lemma 4: all objects of both buddies are density connected.
            sets.Union(a, c);
            ++local.lemma4_shortcuts;
            shortcut_done = true;
            break;
          }
          if (core[a] && core[c]) sets.Union(a, c);
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
    uint32_t b = buddy_of[i];
    auto consider = [&](const std::vector<uint32_t>& list) {
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
    consider(members[b]);
    for (uint32_t nb : adjacent[b]) consider(members[nb]);
    attach_to[i] = best;
  }

  Clustering result;
  result.core = core;
  internal::NumberClusters(snapshot, attach_to, &sets, &result);

  if (stats != nullptr) {
    stats->pairs_checked += local.pairs_checked;
    stats->pairs_pruned += local.pairs_pruned;
    stats->lemma2_buddies += local.lemma2_buddies;
    stats->lemma4_shortcuts += local.lemma4_shortcuts;
    stats->distance_ops += local.distance_ops;
  }
  return result;
}

}  // namespace tcomp
