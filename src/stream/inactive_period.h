#ifndef TCOMP_STREAM_INACTIVE_PERIOD_H_
#define TCOMP_STREAM_INACTIVE_PERIOD_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/checkpoint.h"
#include "core/snapshot.h"
#include "util/status.h"

namespace tcomp {

/// Missing-data tolerance (paper Section VI): if an object is absent from
/// a snapshot but its last report is at most `max_inactive_snapshots`
/// snapshots old, the system assumes it is still traveling with its
/// previous companions.
///
/// Filling is dead-reckoned: the object is placed at its last reported
/// position advanced by its last observed velocity × gap. For an object
/// that was moving with a group, that keeps it inside the group's cluster
/// (a plain position carry-forward would strand it several ε behind a
/// moving group within one snapshot, silently disabling the tolerance).
/// The extrapolation is wrong when the group turns during the outage —
/// which is exactly why precision degrades as the threshold grows
/// (Fig. 24a). An object seen only once has no velocity estimate and is
/// carried forward in place.
///
/// A threshold of 0 disables filling (strict mode): Fill() passes the
/// snapshot through and tracks nothing.
///
/// The last sightings are stream state: a checkpoint must carry them, or
/// a resumed run forgets every absent object (core/checkpoint.h's
/// `stream` section).
class InactivePeriodFiller : public CheckpointSection {
 public:
  explicit InactivePeriodFiller(int max_inactive_snapshots);

  /// Returns `snapshot` augmented with carried-forward objects.
  Snapshot Fill(const Snapshot& snapshot);

  /// Convenience: fills a whole stream.
  SnapshotStream FillStream(const SnapshotStream& stream);

  void Reset();

  /// Checkpointing: the snapshot counter and every last sighting, doubles
  /// as hex floats (bit-exact round trip). LoadState returns Corruption
  /// for a malformed section — a count above kMaxCheckpointCount, ids not
  /// strictly ascending, a sighting not older than the counter, or a
  /// coordinate that is unparsable or non-finite.
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

 private:
  struct LastSeen {
    ObjectId id = 0;
    Point pos;
    Point velocity;  // per snapshot; zero until two reports observed
    int64_t snapshot = -1;
  };

  int max_inactive_;
  int64_t current_ = 0;
  std::vector<LastSeen> seen_;    // ascending id; every object reported
  std::vector<LastSeen> merged_;  // Fill() scratch, capacity retained
};

}  // namespace tcomp

#endif  // TCOMP_STREAM_INACTIVE_PERIOD_H_
