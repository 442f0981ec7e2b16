#include "core/buddy.h"

#include <algorithm>

#include "core/dbscan.h"
#include "util/arena.h"
#include "util/logging.h"
#include "util/sorted_ops.h"
#include "util/thread_pool.h"

namespace tcomp {
namespace {

constexpr uint32_t kNoBuddy = static_cast<uint32_t>(-1);

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
  std::fill(object_to_buddy_.begin(), object_to_buddy_.end(), kNoBuddy);
  for (uint32_t bi = 0; bi < buddies_.size(); ++bi) {
    for (ObjectId oid : buddies_[bi].members) {
      if (oid >= object_to_buddy_.size()) {
        object_to_buddy_.resize(SlotsFor(oid), kNoBuddy);
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

const Buddy* BuddySet::FindBuddyOfObject(ObjectId id) const {
  if (id >= object_to_buddy_.size()) return nullptr;
  uint32_t bi = object_to_buddy_[id];
  if (bi == kNoBuddy) return nullptr;
  return &buddies_[bi];
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
  // Seeds are taken in index order, so every index below seed i is
  // already assigned and its unassigned candidates are exactly its
  // pairs (i, j > i): the sweep emits each pair once from the smaller
  // index, and sorting the packed pairs groups them by seed.
  Arena arena;
  std::vector<uint64_t> pairs;
  const SnapshotSoA soa = BuildSnapshotSoA(snapshot, &arena);
  internal::SweepNeighborPairs(soa.x, soa.y, n, 2.0 * radius_threshold_,
                               nullptr, &arena, &pairs);
  std::sort(pairs.begin(), pairs.end());

  std::vector<bool> assigned(n, false);
  std::vector<uint32_t> candidates;
  size_t next_pair = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const size_t first_pair = next_pair;
    while (next_pair < pairs.size() && (pairs[next_pair] >> 32) == i) {
      ++next_pair;
    }
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
    for (size_t k = first_pair; k < next_pair; ++k) {
      const uint32_t j = static_cast<uint32_t>(pairs[k]);
      if (!assigned[j]) candidates.push_back(j);
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
      object_to_buddy_.resize(SlotsFor(oid), kNoBuddy);
    }
    last_pos_[oid] = snapshot.pos(i);
    has_pos_[oid] = true;
  }

  std::vector<Buddy> next;
  next.reserve(buddies_.size());
  std::vector<Buddy> born;  // changed buddies, ids assigned at the end

  // --- Split phase (Algorithm 3, lines 1–8). ---
  // Buddies split independently of each other: each reads the shared
  // last-position table and produces only its own outcome, so the sweep
  // runs on the thread pool (buddy bi owned by shard bi % num_shards) and
  // a serial stitch below replays the outcomes in buddy order —
  // reproducing the exact `born`/`next`/`retired_ids_` sequences and
  // counter totals of the serial sweep.
  struct SplitOutcome {
    std::vector<Buddy> singles;  // split-out singletons, in member order
    Buddy remainder;
    bool split_any = false;
    int64_t distance_ops = 0;
  };
  std::vector<SplitOutcome> outcomes(buddies_.size());
  auto split_one = [&](size_t bi) {
    const Buddy& b = buddies_[bi];
    SplitOutcome& out = outcomes[bi];
    // Exact center from current member positions (equivalent to the
    // paper's incremental "add the member shifts to the stored sum").
    Point sum{};
    for (ObjectId oid : b.members) sum = sum + last_pos_[oid];
    double count = static_cast<double>(b.members.size());

    ObjectSet survivors;
    survivors.reserve(b.members.size());
    for (ObjectId oid : b.members) {
      ++out.distance_ops;
      Point center = sum / count;
      if (count > 1.0 &&
          Distance(last_pos_[oid], center) > radius_threshold_) {
        // Split out as a singleton buddy; remove its contribution.
        Buddy single;
        single.members = {oid};
        single.coord_sum = last_pos_[oid];
        single.radius = 0.0;
        out.singles.push_back(std::move(single));
        sum = sum - last_pos_[oid];
        count -= 1.0;
        out.split_any = true;
      } else {
        survivors.push_back(oid);
      }
    }

    out.remainder.members = std::move(survivors);
    out.remainder.coord_sum = sum;
    Point center = sum / count;
    double radius = 0.0;
    for (ObjectId oid : out.remainder.members) {
      ++out.distance_ops;
      radius = std::max(radius, Distance(last_pos_[oid], center));
    }
    out.remainder.radius = radius;
  };
  const int shards = EffectiveShards(threads_, buddies_.size());
  ParallelForShards(shards, [&](int shard, int num_shards) {
    for (size_t bi = static_cast<size_t>(shard); bi < buddies_.size();
         bi += static_cast<size_t>(num_shards)) {
      split_one(bi);
    }
  });
  for (size_t bi = 0; bi < buddies_.size(); ++bi) {
    SplitOutcome& out = outcomes[bi];
    local.distance_ops += out.distance_ops;
    local.splits += static_cast<int64_t>(out.singles.size());
    for (Buddy& single : out.singles) born.push_back(std::move(single));
    if (out.split_any) {
      retired_ids_.push_back(buddies_[bi].id);
      born.push_back(std::move(out.remainder));
    } else {
      // membership unchanged: id survives (so far)
      out.remainder.id = buddies_[bi].id;
      next.push_back(std::move(out.remainder));
    }
  }
  outcomes.clear();

  // Objects never seen before this snapshot become singleton buddies.
  for (size_t i = 0; i < snapshot.size(); ++i) {
    ObjectId oid = snapshot.id(i);
    if (object_to_buddy_[oid] == kNoBuddy) {
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
  // merges nothing, so no mergeable pair is left. Each pass's scratch is
  // its own, released when the pass ends.
  std::vector<bool> dead(work.size(), false);
  bool merged_any = true;
  while (merged_any) {
    merged_any = false;
    Arena arena;
    std::vector<uint64_t> pairs;
    uint32_t* work_at = arena.AllocateArray<uint32_t>(work.size());
    double* xs = arena.AllocateArray<double>(work.size());
    double* ys = arena.AllocateArray<double>(work.size());
    size_t live = 0;
    for (uint32_t k = 0; k < work.size(); ++k) {
      if (dead[k]) continue;
      const Point c = work[k].center();
      work_at[live] = k;
      xs[live] = c.x;
      ys[live] = c.y;
      ++live;
    }
    local.distance_ops += internal::SweepNeighborPairs(
        xs, ys, live, 2.0 * radius_threshold_, nullptr, &arena, &pairs);
    // Live positions keep work order, so ascending packed pairs are
    // ascending (i, j) in `work` too.
    std::sort(pairs.begin(), pairs.end());
    for (uint64_t pair : pairs) {
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
      merged_any = true;
      ++local.merges;
    }
  }

  // Finalize: surviving unchanged buddies keep their ids; changed ones get
  // fresh ids (assigned in list order, so ids stay creation-ordered).
  buddies_.clear();
  for (size_t i = 0; i < work.size(); ++i) {
    if (dead[i]) continue;
    if (changed[i]) work[i].id = NextId();
    buddies_.push_back(std::move(work[i]));
  }
  std::sort(buddies_.begin(), buddies_.end(),
            [](const Buddy& a, const Buddy& b) { return a.id < b.id; });
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
