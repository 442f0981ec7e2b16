#include "core/incremental_cluster.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "core/checkpoint.h"
#include "util/eps_filter.h"
#include "util/logging.h"
#include "util/timer.h"

namespace tcomp {
namespace {

/// Mirrors kMaxCheckpointCount (core/discoverer.h): counts beyond this
/// cannot come from a real run, so LoadState refuses them instead of
/// attempting a huge resize from a corrupt stream.
constexpr uint64_t kMaxStateCount = 1ull << 24;

void EraseSorted(std::vector<ObjectId>& list, ObjectId id) {
  auto it = std::lower_bound(list.begin(), list.end(), id);
  if (it != list.end() && *it == id) list.erase(it);
}

}  // namespace

IncrementalClusterer::IncrementalClusterer(const DbscanParams& params)
    : params_(params) {
  TCOMP_CHECK_GT(params.epsilon, 0.0);
  const double delta = 0.5 * params.epsilon;  // Lemma-style slack Δ = ε/2
  delta2_ = delta * delta;
  // rₑ = ε + 2Δ = 2ε, padded by 1e-9 relative so double rounding in the
  // triangle-inequality bound can never exclude a true ε-pair.
  re_pad_ = 2.0 * params.epsilon * (1.0 + 1e-9);
}

void IncrementalClusterer::Reset() {
  has_state_ = false;
  lists_built_ = false;
  ids_.clear();
  anchors_.clear();
  lists_.clear();
}

int64_t IncrementalClusterer::ProbeAnchors(const uint8_t* source) {
  const size_t n = anchors_.size();
  double* xs = arena_.AllocateArray<double>(n);
  double* ys = arena_.AllocateArray<double>(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = anchors_[i].x;
    ys[i] = anchors_[i].y;
  }
  const int64_t probed = internal::SweepNeighborPairs(
      xs, ys, n, re_pad_, source, &arena_, &pairs_);
  internal::AppendPairsToRows(pairs_.data(), pairs_.size(), ids_.data(),
                              &arena_, &lists_);
  return probed;
}

void IncrementalClusterer::RefreshIndexLookup() {
  const size_t n = ids_.size();
  dense_lookup_ = false;
  if (n == 0) return;
  // ids_ is ascending, so back() is the maximum. Beyond 4n the table's
  // O(max_id) fill/footprint stops paying for itself; binary search then.
  const uint64_t max_id = ids_.back();
  if (max_id <= 4 * static_cast<uint64_t>(n) + 1024) {
    // Arena storage is uninitialized; only slots for present ids are
    // written, and IndexOfId is only ever queried for present ids.
    index_of_ = arena_.AllocateArray<uint32_t>(max_id + 1);
    for (uint32_t i = 0; i < n; ++i) index_of_[ids_[i]] = i;
    dense_lookup_ = true;
  }
}

uint32_t IncrementalClusterer::IndexOfId(ObjectId id) const {
  if (dense_lookup_) return index_of_[id];
  return static_cast<uint32_t>(
      std::lower_bound(ids_.begin(), ids_.end(), id) - ids_.begin());
}

Clustering IncrementalClusterer::Rebuild(const Snapshot& snapshot,
                                         int64_t* ops,
                                         ClusterDeltaStats* delta) {
  ids_ = snapshot.ids();
  anchors_ = snapshot.points();
  has_state_ = true;
  // The rₑ lists wait for the first repair that reads them; a stream that
  // keeps rebuilding never builds them at all.
  lists_.clear();
  lists_built_ = false;
  const size_t n = snapshot.size();
  Timer filter_timer;
  filter_timer.Start();
  const SnapshotSoA soa = BuildSnapshotSoA(snapshot, &arena_);
  int64_t batches = 0;
  const int64_t swept = internal::SweepNeighborPairs(
      soa.x, soa.y, n, params_.epsilon, nullptr, &arena_, &pairs_, &batches);
  const NeighborTable table = internal::NeighborTableFromPairs(
      pairs_.data(), pairs_.size(), n, &arena_);
  filter_timer.Stop();
  *ops += swept;
  if (delta != nullptr) {
    delta->soa_batches += batches;
    delta->soa_lanes += swept;
    delta->eps_filter_seconds += filter_timer.Seconds();
  }
  return internal::BuildClusteringFromCores(snapshot, table, params_.mu);
}

void IncrementalClusterer::RebuildListsFromAnchors(int64_t* ops) {
  lists_.assign(ids_.size(), {});
  lists_built_ = true;
  const int64_t probed = ProbeAnchors(nullptr);
  if (ops != nullptr) *ops += probed;
}

Clustering IncrementalClusterer::FinishExact(const Snapshot& snapshot,
                                             int64_t* ops,
                                             ClusterDeltaStats* delta) {
  const size_t n = snapshot.size();
  const double eps2 = params_.epsilon * params_.epsilon;
  // ids_ == snapshot.ids() here (the repair ends by adopting the
  // snapshot's id set), so the scratch table resolves list entries
  // without a per-edge binary search.
  RefreshIndexLookup();
  Timer filter_timer;
  filter_timer.Start();
  // Gather each row's carried candidates (the list tail with id > self,
  // so each symmetric pair is filtered exactly once), stream them through
  // EpsFilterGather, and emit surviving pairs as packed (row << 32 | col)
  // into the arena for the neighbor table.
  const SnapshotSoA soa = BuildSnapshotSoA(snapshot, &arena_);
  size_t total_list = 0;
  size_t max_list = 0;
  for (const std::vector<ObjectId>& list : lists_) {
    total_list += list.size();
    max_list = std::max(max_list, list.size());
  }
  uint32_t* cand = arena_.AllocateArray<uint32_t>(max_list);
  uint32_t* surv = arena_.AllocateArray<uint32_t>(max_list);
  // The lists are symmetric, so Σ tails == total_list / 2 pairs.
  uint64_t* edges = arena_.AllocateArray<uint64_t>(total_list / 2);
  size_t edge_count = 0;
  int64_t lanes = 0;
  int64_t batches = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const std::vector<ObjectId>& list = lists_[i];
    auto tail = std::upper_bound(list.begin(), list.end(), ids_[i]);
    size_t m = 0;
    for (auto it = tail; it != list.end(); ++it) cand[m++] = IndexOfId(*it);
    if (m == 0) continue;
    *ops += static_cast<int64_t>(m);
    lanes += static_cast<int64_t>(m);
    ++batches;
    const size_t kept = EpsFilterGather(soa.x, soa.y, cand, m, soa.x[i],
                                        soa.y[i], eps2, surv);
    for (size_t k = 0; k < kept; ++k) {
      edges[edge_count++] = (static_cast<uint64_t>(i) << 32) | surv[k];
    }
  }
  const NeighborTable table =
      internal::NeighborTableFromPairs(edges, edge_count, n, &arena_);
  filter_timer.Stop();
  if (delta != nullptr) {
    delta->soa_batches += batches;
    delta->soa_lanes += lanes;
    delta->eps_filter_seconds += filter_timer.Seconds();
  }
  return internal::BuildClusteringFromCores(snapshot, table, params_.mu);
}

Clustering IncrementalClusterer::Cluster(const Snapshot& snapshot,
                                         int64_t* distance_ops,
                                         ClusterDeltaStats* delta) {
  // All per-snapshot scratch (dirty flags, sweep grid, id→index table,
  // SoA view, edge buffers, neighbor table) lives until here and no
  // longer; after the warm-up snapshot has sized the arena this is the
  // only allocation event per snapshot — a cursor rewind.
  arena_.Reset();

  const size_t n = snapshot.size();
  int64_t ops = 0;
  Clustering result;
  bool rebuilt = !has_state_;
  size_t reprobed = 0;

  if (has_state_) {
    const std::vector<IdMergeItem> merged =
        MergeIdSequences(ids_, snapshot.ids());
    uint8_t* dirty = arena_.AllocateArray<uint8_t>(n);
    std::fill(dirty, dirty + n, uint8_t{0});
    size_t appeared = 0;
    size_t moved = 0;
    size_t disappeared = 0;
    for (const IdMergeItem& m : merged) {
      if (m.index_b == Snapshot::kNpos) {
        ++disappeared;
        continue;
      }
      if (m.index_a == Snapshot::kNpos) {
        dirty[m.index_b] = 1;
        ++appeared;
        continue;
      }
      // Stability predicate: still within Δ of the anchor? This is a
      // real distance evaluation, so it counts toward distance_ops.
      ++ops;
      // tcomp-lint: allow(soa-raw-loop): the stability test is O(n) over
      // an ordered merge mixing two index spaces; a gather into SoA form
      // would cost more than the compare it feeds.
      if (!WithinEps(snapshot.pos(m.index_b), anchors_[m.index_a], delta2_)) {
        dirty[m.index_b] = 1;
        ++moved;
      }
    }

    // Fallback trigger: when more than 30% of the population churned, the
    // symmetric list surgery costs more than it saves — re-cluster in
    // full. (The other trigger, no carried state, is the rebuilt flag's
    // initial value.)
    const size_t churn = appeared + moved + disappeared;
    rebuilt = churn * 10 > n * 3;
    if (!rebuilt) {
      reprobed = appeared + moved;

      // 0. The first repair after a rebuild builds the lists the rebuild
      //    skipped, from the anchors it left (counted: this run pays for
      //    them here).
      if (!lists_built_) RebuildListsFromAnchors(&ops);

      // 1. Symmetric edge removal for everything that left or moved.
      //    (Dirty-set closure: a stable object adjacent to a mover keeps
      //    its anchor, but its list is repaired right here — the mover
      //    deletes the stale edge and re-adds it below if still in
      //    range, so "adjacency to a mover" never needs its own flag.)
      RefreshIndexLookup();  // resolves old ids_ (pre re-index below)
      for (const IdMergeItem& m : merged) {
        const bool gone = m.index_b == Snapshot::kNpos;
        if (!gone && (m.index_a == Snapshot::kNpos || !dirty[m.index_b])) {
          continue;  // arrival (no old edges) or stable survivor
        }
        std::vector<ObjectId>& own = lists_[m.index_a];
        for (ObjectId u : own) EraseSorted(lists_[IndexOfId(u)], m.id);
        own.clear();
      }

      // 2. Re-index the carried state to the new snapshot's index space;
      //    movers and arrivals re-anchor to their current position.
      std::vector<Point> new_anchors(n);
      std::vector<std::vector<ObjectId>> new_lists(n);
      for (const IdMergeItem& m : merged) {
        if (m.index_b == Snapshot::kNpos) continue;
        if (m.index_a != Snapshot::kNpos && !dirty[m.index_b]) {
          new_anchors[m.index_b] = anchors_[m.index_a];
          new_lists[m.index_b] = std::move(lists_[m.index_a]);
        } else {
          new_anchors[m.index_b] = snapshot.pos(m.index_b);
        }
      }
      ids_ = snapshot.ids();
      anchors_ = std::move(new_anchors);
      lists_ = std::move(new_lists);

      // 3. Probe only the dirty anchors: the shared sweep with sources =
      //    dirty evaluates each dirty-dirty pair once and each
      //    dirty-stable pair from the dirty side, and the new edges join
      //    the carried lists in sorted position.
      ops += ProbeAnchors(dirty);
      result = FinishExact(snapshot, &ops, delta);
    }
  }
  if (rebuilt) result = Rebuild(snapshot, &ops, delta);

  if (delta != nullptr) {
    if (rebuilt) {
      delta->dirty += static_cast<int64_t>(n);
      ++delta->full_rebuilds;
    } else {
      delta->reuse += static_cast<int64_t>(n - reprobed);
      delta->dirty += static_cast<int64_t>(reprobed);
    }
  }
  if (distance_ops != nullptr) *distance_ops += ops;
  return result;
}

void IncrementalClusterer::SaveState(std::ostream& out) const {
  out << "clusterer " << (has_state_ ? 1 : 0) << ' ' << (lists_built_ ? 1 : 0)
      << ' ' << ids_.size() << '\n';
  for (size_t i = 0; i < ids_.size(); ++i) {
    out << ids_[i] << ' ';
    WriteHexDouble(out, anchors_[i].x);
    out << ' ';
    WriteHexDouble(out, anchors_[i].y);
    out << '\n';
  }
}

Status IncrementalClusterer::LoadState(std::istream& in) {
  std::string tag;
  int has = 0;
  int lists = 0;
  uint64_t count = 0;
  if (!(in >> tag >> has >> lists >> count) || tag != "clusterer") {
    return Status::Corruption("expected 'clusterer' section");
  }
  if ((has != 0 && has != 1) || (lists != 0 && lists != has)) {
    return Status::Corruption("bad clusterer state flag");
  }
  if (count > kMaxStateCount || (has == 0 && count != 0)) {
    return Status::Corruption("implausible clusterer state count");
  }
  Reset();
  std::vector<ObjectId> ids(count);
  std::vector<Point> anchors(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string x_token;
    std::string y_token;
    if (!(in >> ids[i] >> x_token >> y_token)) {
      return Status::Corruption("bad clusterer anchor record");
    }
    if (i > 0 && ids[i] <= ids[i - 1]) {
      return Status::Corruption("clusterer anchor ids out of order");
    }
    if (!ParseHexDouble(x_token, &anchors[i].x) ||
        !ParseHexDouble(y_token, &anchors[i].y) ||
        !std::isfinite(anchors[i].x) || !std::isfinite(anchors[i].y)) {
      return Status::Corruption("bad clusterer anchor coordinate");
    }
  }
  if (has == 0) return Status::OK();
  ids_ = std::move(ids);
  anchors_ = std::move(anchors);
  has_state_ = true;
  // The neighbor lists are a pure function of the anchors; rebuilding
  // them here (uncounted — the uninterrupted run paid for them at an
  // earlier repair) reproduces the carried graph bit-for-bit. Lists the
  // saved run had not built yet stay unbuilt: its next repair builds and
  // counts them, as the uninterrupted run's does.
  if (lists == 1) {
    arena_.Reset();  // the sweep grid is per-call scratch too
    RebuildListsFromAnchors(nullptr);
  }
  return Status::OK();
}

}  // namespace tcomp
