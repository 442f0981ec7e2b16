#ifndef TCOMP_CORE_SNAPSHOT_H_
#define TCOMP_CORE_SNAPSHOT_H_

#include <cstddef>
#include <vector>

#include "core/types.h"
#include "util/arena.h"

namespace tcomp {

/// One object's position inside a snapshot.
struct ObjectPosition {
  ObjectId id = 0;
  Point pos;
};

/// A snapshot: the projection of all objects' positions over one time span
/// (paper Section II / VI). Objects are stored sorted by id so snapshots
/// can be joined by index and diffed in linear time.
///
/// A snapshot carries its `duration` (the time span it covers, in the
/// stream's time unit — minutes for the paper's datasets); candidate
/// durations accumulate these values.
class Snapshot {
 public:
  Snapshot() = default;

  /// Builds a snapshot from unsorted positions. Duplicate ids must have
  /// been resolved upstream (the sliding window averages multi-reports).
  Snapshot(std::vector<ObjectPosition> positions, double duration);

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  double duration() const { return duration_; }

  /// The i-th object id, ascending in i.
  ObjectId id(size_t i) const { return ids_[i]; }
  /// Position of the i-th object (same index space as id()).
  Point pos(size_t i) const { return points_[i]; }

  const std::vector<ObjectId>& ids() const { return ids_; }
  const std::vector<Point>& points() const { return points_; }

  /// Index of `id` in this snapshot, or npos if the object is absent.
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  size_t IndexOf(ObjectId id) const;

  /// True if the object reported a position in this snapshot.
  bool Contains(ObjectId id) const { return IndexOf(id) != kNpos; }

 private:
  std::vector<ObjectId> ids_;    // sorted ascending
  std::vector<Point> points_;    // parallel to ids_
  double duration_ = 1.0;
};

/// Structure-of-arrays view of one snapshot: the same objects, same index
/// space, but coordinates split into contiguous x[] / y[] arrays so the
/// batched ε-filter kernels (util/eps_filter.h) stream them with unit
/// stride instead of hopping 16-byte Point pairs. Built once per snapshot
/// into a per-snapshot Arena — the view borrows the arena's storage and
/// is invalidated by the arena's next Reset(), exactly like every other
/// per-snapshot scratch array.
struct SnapshotSoA {
  size_t size = 0;
  const double* x = nullptr;   // x[i] == snapshot.pos(i).x
  const double* y = nullptr;   // y[i] == snapshot.pos(i).y
  const ObjectId* id = nullptr;  // id[i] == snapshot.id(i), ascending
};

/// Splits `snapshot` into the SoA layout, allocating the three arrays
/// from `arena`. One linear pass; the copy is the price of admission for
/// vectorized distance math and is amortized over every ε-query the
/// consumer makes against the snapshot.
SnapshotSoA BuildSnapshotSoA(const Snapshot& snapshot, Arena* arena);

/// One row of a two-way ordered merge over object-id sequences: the id
/// plus its index in each input (Snapshot::kNpos when absent). Exactly one
/// row per distinct id, ids ascending.
struct IdMergeItem {
  ObjectId id = 0;
  size_t index_a = Snapshot::kNpos;
  size_t index_b = Snapshot::kNpos;
};

/// Linear-time ordered merge of two ascending id sequences (the invariant
/// Snapshot maintains). The workhorse for snapshot diffing: consecutive
/// snapshots share most ids, and the merge classifies each id as
/// present-in-both / only-in-a / only-in-b in one pass. Used by the
/// R-tree maintenance path.
std::vector<IdMergeItem> MergeIdSequences(const std::vector<ObjectId>& a,
                                          const std::vector<ObjectId>& b);

/// A fully materialized stream: the snapshot sequence the discoverers
/// consume. Produced by dataset generators or by the sliding window.
using SnapshotStream = std::vector<Snapshot>;

/// Total number of (object, position) records in a stream.
int64_t TotalRecords(const SnapshotStream& stream);

}  // namespace tcomp

#endif  // TCOMP_CORE_SNAPSHOT_H_
