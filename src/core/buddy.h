#ifndef TCOMP_CORE_BUDDY_H_
#define TCOMP_CORE_BUDDY_H_

#include <cstdint>
#include <vector>

#include "core/snapshot.h"
#include "core/types.h"

namespace tcomp {

/// A traveling buddy (paper Definition 6): a micro-group of objects whose
/// members all lie within the radius threshold δγ of the group's geometric
/// center. Buddies store the object *relationship* (membership), not the
/// object coordinates; they are maintained incrementally along the stream.
///
/// Identity contract: a BuddyId is never reused and always denotes one
/// fixed membership. Any membership change (split or merge) retires the
/// old id(s) and assigns fresh ones, so "the id survived the snapshot"
/// is exactly the paper's "the buddy stays unchanged" condition that the
/// buddy index relies on.
struct Buddy {
  BuddyId id = 0;
  ObjectSet members;   // sorted ascending
  /// Sum of member coordinates. The geometric center is coord_sum/size;
  /// storing the sum makes the paper's incremental center updates exact
  /// (split = subtract the member, merge = add the sums).
  Point coord_sum;
  /// Distance from the center to the farthest member (γ in the paper).
  /// Exact after every maintenance pass; a conservative upper bound
  /// immediately after a merge (tightened at the next pass). Lemmas 2–4
  /// only ever need an upper bound, so correctness never depends on
  /// radius ≤ δγ holding exactly.
  double radius = 0.0;

  size_t size() const { return members.size(); }
  Point center() const {
    return coord_sum / static_cast<double>(members.size());
  }
};

/// Counters from one maintenance pass (Algorithm 3); feeds Fig. 18/19.
struct BuddyMaintenanceStats {
  int64_t splits = 0;        // members split out as singleton buddies
  int64_t merges = 0;        // merge operations performed
  int64_t unchanged = 0;     // buddies whose id survived the pass
  int64_t total = 0;         // buddy count after the pass
  int64_t member_sum = 0;    // Σ|b| after the pass
  int64_t distance_ops = 0;  // distance evaluations during the pass
};

/// The dynamically maintained buddy set of one stream (Algorithm 3).
///
/// Usage:
///   BuddySet buddies(delta_gamma);
///   buddies.Initialize(first_snapshot);
///   for each later snapshot: buddies.Update(snapshot, &stats);
class BuddySet {
 public:
  /// `radius_threshold` is δγ. The paper recommends δγ = ε/2 (the largest
  /// value for which Lemma 2 can apply).
  explicit BuddySet(double radius_threshold);

  /// Builds the initial buddies from the first snapshot by greedily
  /// merging each object with its nearest neighbors until the radius
  /// threshold is reached (paper Section IV-A). One-time cost: the
  /// candidates of each seed are its pairs within 2·δγ from the shared
  /// ε-neighborhood sweep (internal::SweepNeighborPairs).
  void Initialize(const Snapshot& snapshot);

  /// One maintenance pass for a new snapshot: updates centers from the
  /// members' current positions, splits members that drifted beyond δγ,
  /// then merges buddy pairs satisfying
  ///   dist(cen_i, cen_j) + γi + γj ≤ 2·δγ
  /// until none is left (each merge pass tests the pairs of one sweep of
  /// the live centers at 2·δγ).
  /// Objects absent from `snapshot` keep their last known position.
  /// If `stats` is non-null the pass's counters are added to it.
  void Update(const Snapshot& snapshot, BuddyMaintenanceStats* stats);

  /// Current buddies, ascending by id.
  const std::vector<Buddy>& buddies() const { return buddies_; }

  /// Ids retired during the last Update() call (their membership changed);
  /// the buddy index uses this to expand affected candidates.
  const std::vector<BuddyId>& retired_ids() const { return retired_ids_; }

  double radius_threshold() const { return radius_threshold_; }

  /// Parallelism for the per-buddy split sweep in Update(). The split
  /// phase is embarrassingly parallel across buddies (each buddy reads
  /// shared positions and writes only its own outcome); results are
  /// bit-identical at any thread count. 1 (the default) never touches the
  /// thread pool. The merge fixpoint stays serial: a merge changes the
  /// centers later pair checks read, so its sweep order is semantic.
  void set_threads(int threads) { threads_ = threads < 1 ? 1 : threads; }
  int threads() const { return threads_; }

  /// The buddy currently containing `id`, or nullptr.
  const Buddy* FindBuddyOfObject(ObjectId id) const;

  /// The live buddy with this id, or nullptr (binary search; buddies_ is
  /// id-sorted).
  const Buddy* FindBuddyById(BuddyId id) const;

  void Clear();

  /// Complete serializable state (checkpoint/restore support).
  struct SerializedState {
    BuddyId next_id = 0;
    std::vector<Buddy> buddies;
    /// Last known position per object (carry-forward memory).
    std::vector<std::pair<ObjectId, Point>> last_positions;
  };
  SerializedState ExportState() const;
  void ImportState(const SerializedState& state);

 private:
  BuddyId NextId() { return next_id_++; }

  /// Rebuilds the member->buddy map after membership changes.
  void RebuildObjectMap();

  double radius_threshold_;
  int threads_ = 1;
  BuddyId next_id_ = 0;
  std::vector<Buddy> buddies_;            // ascending by id
  std::vector<BuddyId> retired_ids_;      // from the last Update()
  std::vector<uint32_t> object_to_buddy_;  // ObjectId -> index in buddies_
  // Last known position per object (carry-forward for absent objects).
  std::vector<Point> last_pos_;
  std::vector<bool> has_pos_;
};

}  // namespace tcomp

#endif  // TCOMP_CORE_BUDDY_H_
