#ifndef TCOMP_CORE_CANDIDATE_H_
#define TCOMP_CORE_CANDIDATE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/types.h"
#include "util/set_signature.h"

namespace tcomp {

/// A companion candidate (paper Definition 4): an object group that has
/// stayed density-connected for `duration` time units so far, with size
/// already ≥ δs (smaller groups are dropped immediately).
struct Candidate {
  Candidate() = default;
  /// The constructor derives `signature` from `objects` so the O(1)
  /// closedness prefilter can never observe a stale signature. Callers
  /// that fill `objects` after construction (checkpoint restore) must
  /// reassign `signature` themselves.
  Candidate(ObjectSet objects_in, double duration_in)
      : objects(std::move(objects_in)),
        duration(duration_in),
        signature(SetSignature::Of(objects)) {}

  ObjectSet objects;       // sorted ascending
  double duration = 0.0;   // accumulated snapshot durations
  SetSignature signature;  // O(1) subset prefilter over `objects`
};

/// A qualified traveling companion (paper Definition 3).
struct Companion {
  ObjectSet objects;
  double duration = 0.0;     // duration when last reported
  int64_t snapshot_index = 0;  // stream index at first qualification
};

/// Deduplicated log of every companion a discoverer has reported. A
/// companion that persists is re-reported by the algorithms each snapshot
/// with growing duration; the log keeps one entry per distinct object set,
/// remembering the first snapshot at which it qualified and the longest
/// duration seen.
///
/// In *closed mode* (Definition 5 applied to the output, as SC and BU do —
/// the paper attributes CI's low precision to "redundant and non-closed
/// companions in the results"), a companion is dropped when a superset
/// with equal-or-longer duration is already logged, and logging a new
/// companion evicts logged subsets with equal-or-shorter durations.
class CompanionLog {
 public:
  CompanionLog() = default;
  explicit CompanionLog(bool closed_mode) : closed_mode_(closed_mode) {}

  void set_closed_mode(bool closed_mode) { closed_mode_ = closed_mode; }

  /// Records a qualifying (objects, duration) pair observed at
  /// `snapshot_index`. Returns true if this object set is new to the log
  /// (and, in closed mode, survives the closedness check).
  bool Report(const ObjectSet& objects, double duration,
              int64_t snapshot_index);

  /// Inserts a companion verbatim — no closedness checks. For checkpoint
  /// restore only. Returns false, inserting nothing, when the object set
  /// is already logged (a well-formed checkpoint never repeats one).
  bool RestoreEntry(Companion companion);

  bool closed_mode() const { return closed_mode_; }

  /// Logged companions, insertion-ordered (closed-mode evictions leave
  /// later entries in place).
  const std::vector<Companion>& companions() const;
  size_t size() const { return index_.size(); }
  void Clear();

 private:
  bool closed_mode_ = false;
  // `companions_` may hold tombstones (empty object sets) after closed-
  // mode evictions; `materialized_` caches the compacted view.
  mutable std::vector<Companion> materialized_;
  mutable bool dirty_ = false;
  std::vector<Companion> companions_;
  // Subset prefilters, parallel to `companions_` (tombstoned entries keep
  // a stale signature but are unreachable through `index_`).
  std::vector<SetSignature> signatures_;
  std::map<ObjectSet, size_t> index_;  // objects -> position in companions_
};

/// True if candidate set `objects` (with `duration`) passes the closedness
/// check of paper Definition 5 against the candidates in `against`: it is
/// *not* closed (and should be dropped) iff some candidate in `against` is
/// a superset with duration ≥ `duration`.
bool IsClosedAgainst(const ObjectSet& objects, double duration,
                     const std::vector<Candidate>& against);

/// Sum of candidate sizes — the paper's space-cost metric ("size of the
/// candidate set, # of objects").
int64_t TotalCandidateObjects(const std::vector<Candidate>& candidates);

}  // namespace tcomp

#endif  // TCOMP_CORE_CANDIDATE_H_
