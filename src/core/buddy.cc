#include "core/buddy.h"

#include <algorithm>

#include "core/dbscan.h"
#include "util/arena.h"
#include "util/logging.h"
#include "util/sorted_ops.h"

namespace tcomp {
namespace {

/// Slots an id-indexed table needs to hold `id`, in 64 bits: `id + 1` in
/// ObjectId arithmetic wraps to 0 for the largest id.
size_t SlotsFor(ObjectId id) { return size_t{id} + 1; }

}  // namespace

BuddySet::BuddySet(double radius_threshold)
    : radius_threshold_(radius_threshold) {
  TCOMP_CHECK_GT(radius_threshold, 0.0);
}

BuddySet::SerializedState BuddySet::ExportState() const {
  SerializedState state;
  state.next_id = next_id_;
  state.buddies = buddies_;
  for (size_t oid = 0; oid < has_pos_.size(); ++oid) {
    if (has_pos_[oid]) {
      state.last_positions.push_back(
          {static_cast<ObjectId>(oid), last_pos_[oid]});
    }
  }
  return state;
}

void BuddySet::ImportState(const SerializedState& state) {
  Clear();
  next_id_ = state.next_id;
  buddies_ = state.buddies;
  for (const auto& [oid, pos] : state.last_positions) {
    if (oid >= last_pos_.size()) {
      last_pos_.resize(SlotsFor(oid), Point{});
      has_pos_.resize(SlotsFor(oid), false);
    }
    last_pos_[oid] = pos;
    has_pos_[oid] = true;
  }
  RebuildObjectMap();
}

void BuddySet::Clear() {
  buddies_.clear();
  retired_ids_.clear();
  object_to_buddy_.clear();
  last_pos_.clear();
  has_pos_.clear();
  next_id_ = 0;
}

void BuddySet::RebuildObjectMap() {
  std::fill(object_to_buddy_.begin(), object_to_buddy_.end(), kNoSlot);
  for (uint32_t bi = 0; bi < buddies_.size(); ++bi) {
    for (ObjectId oid : buddies_[bi].members) {
      if (oid >= object_to_buddy_.size()) {
        object_to_buddy_.resize(SlotsFor(oid), kNoSlot);
      }
      object_to_buddy_[oid] = bi;
    }
  }
}

const Buddy* BuddySet::FindBuddyById(BuddyId id) const {
  auto it = std::lower_bound(
      buddies_.begin(), buddies_.end(), id,
      [](const Buddy& b, BuddyId target) { return b.id < target; });
  if (it == buddies_.end() || it->id != id) return nullptr;
  return &*it;
}

void BuddySet::Initialize(const Snapshot& snapshot) {
  Clear();
  const size_t n = snapshot.size();
  if (n == 0) return;

  // Record positions.
  last_pos_.assign(SlotsFor(snapshot.id(n - 1)), Point{});
  has_pos_.assign(SlotsFor(snapshot.id(n - 1)), false);
  for (size_t i = 0; i < n; ++i) {
    last_pos_[snapshot.id(i)] = snapshot.pos(i);
    has_pos_[snapshot.id(i)] = true;
  }

  // Any two members of one buddy lie within 2·δγ of each other, so a
  // seed's potential members are its pairs from the shared sweep at 2·δγ.
  // Seeds are taken in index order, so every index below seed i, and i
  // itself, is already assigned, and its unassigned candidates are
  // exactly its unassigned neighbors in the 2·δγ graph. One counting
  // pass lays the swept pairs out as that graph's rows; the order inside
  // a row does not matter, since the candidates are sorted.
  Arena arena;
  internal::SweepPairs swept;
  const SnapshotSoA soa = BuildSnapshotSoA(snapshot, &arena);
  internal::SweepNeighborPairs(soa.x, soa.y, n, 2.0 * radius_threshold_,
                               nullptr, stripes_, &arena, &swept);
  const NeighborTable graph = internal::NeighborTableFromPairs(
      swept.pairs.data(), swept.pairs.size(), n, &arena);

  std::vector<bool> assigned(n, false);
  std::vector<uint32_t> candidates;
  for (uint32_t i = 0; i < n; ++i) {
    if (assigned[i]) continue;
    assigned[i] = true;
    Buddy b;
    b.id = NextId();
    b.members = {snapshot.id(i)};
    b.coord_sum = snapshot.pos(i);
    b.radius = 0.0;

    // Nearest-first greedy growth (paper: "merge with nearest neighbors,
    // stop when the radius exceeds the threshold").
    candidates.clear();
    for (uint32_t e = graph.offsets[i]; e < graph.offsets[i + 1]; ++e) {
      if (!assigned[graph.entries[e]]) candidates.push_back(graph.entries[e]);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](uint32_t a, uint32_t bidx) {
                // tcomp-lint: allow(soa-raw-loop): sort-comparator keys,
                // not an ε-filter — survivor sets are not computed here,
                // so there is no batch to stream.
                double da = SquaredDistance(snapshot.pos(a), snapshot.pos(i));
                double db =
                    // tcomp-lint: allow(soa-raw-loop): same comparator
                    // key as the line above.
                    SquaredDistance(snapshot.pos(bidx), snapshot.pos(i));
                if (da != db) return da < db;
                return a < bidx;
              });

    std::vector<uint32_t> member_indices = {i};
    for (uint32_t j : candidates) {
      // Tentatively add j and verify every member stays within δγ of the
      // shifted center.
      Point new_sum = b.coord_sum + snapshot.pos(j);
      double new_count = static_cast<double>(member_indices.size() + 1);
      Point new_center = new_sum / new_count;
      double max_dist = Distance(snapshot.pos(j), new_center);
      for (uint32_t m : member_indices) {
        max_dist = std::max(max_dist, Distance(snapshot.pos(m), new_center));
      }
      if (max_dist > radius_threshold_) break;  // nearest-first: stop here
      assigned[j] = true;
      member_indices.push_back(j);
      b.coord_sum = new_sum;
      b.members.push_back(snapshot.id(j));
      b.radius = max_dist;
    }
    SortUnique(&b.members);
    buddies_.push_back(std::move(b));
  }
  RebuildObjectMap();
}

void BuddySet::Update(const Snapshot& snapshot,
                      BuddyMaintenanceStats* stats) {
  retired_ids_.clear();
  BuddyMaintenanceStats local;
  const BuddyId first_new_id = next_id_;

  // Refresh last known positions; carry forward absent objects.
  for (size_t i = 0; i < snapshot.size(); ++i) {
    ObjectId oid = snapshot.id(i);
    if (oid >= last_pos_.size()) {
      last_pos_.resize(SlotsFor(oid), Point{});
      has_pos_.resize(SlotsFor(oid), false);
      object_to_buddy_.resize(SlotsFor(oid), kNoSlot);
    }
    last_pos_[oid] = snapshot.pos(i);
    has_pos_[oid] = true;
  }

  std::vector<Buddy> next;
  next.reserve(buddies_.size());
  std::vector<Buddy> born;  // changed buddies, ids assigned at the end

  // --- Split phase (Algorithm 3, lines 1–8). ---
  for (const Buddy& b : buddies_) {
    // Exact center from current member positions (equivalent to the
    // paper's incremental "add the member shifts to the stored sum").
    Point sum{};
    for (ObjectId oid : b.members) sum = sum + last_pos_[oid];
    double count = static_cast<double>(b.members.size());

    Buddy remainder;
    remainder.members.reserve(b.members.size());
    bool split_any = false;
    for (ObjectId oid : b.members) {
      ++local.distance_ops;
      Point center = sum / count;
      if (count > 1.0 &&
          Distance(last_pos_[oid], center) > radius_threshold_) {
        // Split out as a singleton buddy; remove its contribution.
        Buddy single;
        single.members = {oid};
        single.coord_sum = last_pos_[oid];
        single.radius = 0.0;
        born.push_back(std::move(single));
        ++local.splits;
        sum = sum - last_pos_[oid];
        count -= 1.0;
        split_any = true;
      } else {
        remainder.members.push_back(oid);
      }
    }

    remainder.coord_sum = sum;
    Point center = sum / count;
    for (ObjectId oid : remainder.members) {
      ++local.distance_ops;
      remainder.radius =
          std::max(remainder.radius, Distance(last_pos_[oid], center));
    }
    if (split_any) {
      retired_ids_.push_back(b.id);
      born.push_back(std::move(remainder));
    } else {
      // membership unchanged: id survives (so far)
      remainder.id = b.id;
      next.push_back(std::move(remainder));
    }
  }

  // Objects never seen before this snapshot become singleton buddies.
  for (size_t i = 0; i < snapshot.size(); ++i) {
    ObjectId oid = snapshot.id(i);
    if (object_to_buddy_[oid] == kNoSlot) {
      Buddy single;
      single.members = {oid};
      single.coord_sum = snapshot.pos(i);
      single.radius = 0.0;
      born.push_back(std::move(single));
    }
  }

  // Merge working list: survivors first (stable ids), then the newly born.
  // `changed[i]` tracks whether entry i must receive a fresh id.
  std::vector<Buddy> work = std::move(next);
  std::vector<bool> changed(work.size(), false);
  for (Buddy& b : born) {
    work.push_back(std::move(b));
    changed.push_back(true);
  }

  // --- Merge phase (Algorithm 3, lines 10–13). Passes until fixpoint.
  // The merge condition d + γi + γj ≤ 2δγ implies d ≤ 2δγ, so each pass
  // sweeps the live centers at 2δγ (the shared builder) and tests only
  // those pairs, in ascending (i, j) order against the current centers
  // and radii. A pair that comes within range only after an earlier merge
  // moved a center waits for the next pass; the loop ends when a pass
  // merges nothing, so no mergeable pair is left.
  //
  // Only the first pass sweeps every live center. A later pass sweeps
  // only the pairs of the entries the pass before it grew (`grew`, its
  // source mask): a pair of two entries that pass left alone failed the
  // test, in it or earlier, with the centers and radii it still has.
  // Each pass's scratch is its own, released when the pass ends.
  std::vector<bool> dead(work.size(), false);
  std::vector<uint8_t> grew(work.size(), 0);
  bool first_pass = true;
  bool merged_any = true;
  while (merged_any) {
    merged_any = false;
    Arena arena;
    internal::SweepPairs swept;
    uint32_t* work_at = arena.AllocateArray<uint32_t>(work.size());
    double* xs = arena.AllocateArray<double>(work.size());
    double* ys = arena.AllocateArray<double>(work.size());
    uint8_t* source =
        first_pass ? nullptr : arena.AllocateArray<uint8_t>(work.size());
    size_t live = 0;
    for (uint32_t k = 0; k < work.size(); ++k) {
      if (dead[k]) continue;
      const Point c = work[k].center();
      work_at[live] = k;
      xs[live] = c.x;
      ys[live] = c.y;
      if (source != nullptr) source[live] = grew[k];
      grew[k] = 0;
      ++live;
    }
    first_pass = false;
    local.distance_ops += internal::SweepNeighborPairs(
        xs, ys, live, 2.0 * radius_threshold_, source, stripes_, &arena,
        &swept);
    // Live positions keep work order, so ascending packed pairs are
    // ascending (i, j) in `work` too. A masked sweep packs the pair of a
    // source and a non-source from the source's side, so every pair is
    // put in (min, max) form first.
    if (source != nullptr) {
      for (uint64_t& pair : swept.pairs) {
        const uint64_t a = pair >> 32;
        const uint64_t b = static_cast<uint32_t>(pair);
        if (a > b) pair = (b << 32) | a;
      }
    }
    std::sort(swept.pairs.begin(), swept.pairs.end());
    for (uint64_t pair : swept.pairs) {
      const uint32_t i = work_at[pair >> 32];
      const uint32_t j = work_at[static_cast<uint32_t>(pair)];
      if (dead[i] || dead[j]) continue;
      ++local.distance_ops;
      double d = Distance(work[i].center(), work[j].center());
      if (d + work[i].radius + work[j].radius > 2.0 * radius_threshold_) {
        continue;
      }
      // Merge j into i without touching member coordinates: centers add
      // via coordinate sums; the radius gets the conservative bound
      // max(γi + d·mj/m, γj + d·mi/m), tightened next pass.
      double mi = static_cast<double>(work[i].members.size());
      double mj = static_cast<double>(work[j].members.size());
      double m = mi + mj;
      double bound = std::max(work[i].radius + d * mj / m,
                              work[j].radius + d * mi / m);
      if (!changed[i]) {
        retired_ids_.push_back(work[i].id);
        changed[i] = true;
      }
      if (!changed[j]) {
        retired_ids_.push_back(work[j].id);
      }
      work[i].members = SortedUnion(work[i].members, work[j].members);
      work[i].coord_sum = work[i].coord_sum + work[j].coord_sum;
      work[i].radius = bound;
      dead[j] = true;
      grew[i] = 1;
      merged_any = true;
      ++local.merges;
    }
  }

  // Finalize: surviving unchanged buddies keep their ids; changed ones get
  // fresh ids (assigned in list order, so ids stay creation-ordered). The
  // unchanged ones lead `work` in id order and every fresh id is larger
  // than theirs, so unchanged-then-changed is id order.
  buddies_.clear();
  for (size_t i = 0; i < work.size(); ++i) {
    if (!dead[i] && !changed[i]) buddies_.push_back(std::move(work[i]));
  }
  for (size_t i = 0; i < work.size(); ++i) {
    if (dead[i] || !changed[i]) continue;
    work[i].id = NextId();
    buddies_.push_back(std::move(work[i]));
  }
  TCOMP_DCHECK(std::is_sorted(
      buddies_.begin(), buddies_.end(),
      [](const Buddy& a, const Buddy& b) { return a.id < b.id; }));
  RebuildObjectMap();

  local.total = static_cast<int64_t>(buddies_.size());
  for (const Buddy& b : buddies_) {
    local.member_sum += static_cast<int64_t>(b.members.size());
    // "Unchanged" = the id predates this pass (ids assigned this pass are
    // ≥ first_new_id).
    if (b.id < first_new_id) ++local.unchanged;
  }
  std::sort(retired_ids_.begin(), retired_ids_.end());
  if (stats != nullptr) {
    stats->unchanged += local.unchanged;
    stats->splits += local.splits;
    stats->merges += local.merges;
    stats->total += local.total;
    stats->member_sum += local.member_sum;
    stats->distance_ops += local.distance_ops;
  }
}

}  // namespace tcomp
