#ifndef TCOMP_STREAM_SLIDING_WINDOW_H_
#define TCOMP_STREAM_SLIDING_WINDOW_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/snapshot.h"
#include "stream/record.h"
#include "util/status.h"

namespace tcomp {

/// Snapshot-formation policy (paper Section VI).
enum class WindowMode {
  /// Equal length: one snapshot per fixed time span.
  kEqualLength,
  /// Equal width: a snapshot is emitted once enough distinct objects have
  /// reported a position.
  kEqualWidth,
};

struct SlidingWindowOptions {
  WindowMode mode = WindowMode::kEqualLength;
  /// Equal-length mode: time span of one snapshot, in seconds.
  double window_length = 60.0;
  /// Equal-width mode: distinct objects required to close a snapshot.
  size_t min_objects = 100;
  /// Duration value attached to emitted snapshots (the time unit candidate
  /// durations accumulate in). 1.0 makes δt mean "snapshots".
  double snapshot_duration = 1.0;
};

/// The documented range of a stream record. Every record must have
///  - finite coordinates with |x|, |y| ≤ kMaxRecordCoordinate (10¹⁵).
///    Window averages and dead-reckoned positions (stream/
///    inactive_period.h: at most 1 + 2·threshold < 2³² times the range)
///    then stay finite;
///  - a finite timestamp, and in equal-length mode at most 2⁵² window
///    lengths from the epoch, so the window index k = ⌊t / L⌋ is exact
///    and consecutive windows have distinct bounds k·L.
/// ValidateRecord returns InvalidArgument for a record outside it. It is
/// the one admission predicate: SlidingWindowSnapshotter::Push and the
/// service's ingest (service/pipeline.h) both call it.
inline constexpr double kMaxRecordCoordinate = 1e15;
Status ValidateRecord(const TrajectoryRecord& record,
                      const SlidingWindowOptions& options);

/// Batches a (possibly out-of-order, delayed) record stream into
/// snapshots using the sliding-window model of Section VI:
///  * multiple reports by one object within a window are averaged
///    (the paper's Fig. 22 multi-report rule);
///  * in equal-length mode a record with a timestamp past the current
///    window closes it (and any empty windows the gap spans);
///  * late records older than the current window are folded into the
///    current window rather than dropped — a bounded-staleness choice
///    matching the paper's tolerance discussion.
///
/// Empty-window contract: a window with no reports NEVER produces a
/// snapshot and never advances emitted(), wherever it occurs — a
/// mid-stream gap (one step skips all of it), a trailing gap before
/// Flush(), or a Flush() with nothing buffered (including a second
/// Flush() in a row). Emitting zero-object snapshots would feed the
/// discoverers degenerate clustering inputs and make `snapshots_emitted`
/// depend on wall-clock gaps rather than data. Because the rule is the
/// same mid-stream and at end-of-stream, a batch run and a serve run over
/// the same records always agree on emitted() — the serve-vs-batch
/// differential test pins this.
///
/// Usage:
///   SlidingWindowSnapshotter win(options);
///   std::vector<Snapshot> ready;
///   for (const TrajectoryRecord& r : stream) {
///     win.Push(r, &ready);
///     for (const Snapshot& s : ready) discoverer->ProcessSnapshot(s, ...);
///     ready.clear();
///   }
///   win.Flush(&ready);
class SlidingWindowSnapshotter {
 public:
  explicit SlidingWindowSnapshotter(const SlidingWindowOptions& options);

  /// Feeds one record. Snapshots completed by it are appended to `out`.
  /// Returns InvalidArgument for a record outside the documented range
  /// (ValidateRecord).
  Status Push(const TrajectoryRecord& record, std::vector<Snapshot>* out);

  /// Emits the in-progress window (if it holds any reports).
  void Flush(std::vector<Snapshot>* out);

  /// Number of snapshots emitted so far.
  int64_t emitted() const { return emitted_; }

 private:
  struct Accum {
    Point sum;
    int64_t count = 0;
  };

  void EmitWindow(std::vector<Snapshot>* out);
  /// The k with k·L ≤ t < (k + 1)·L, L the window length.
  int64_t WindowIndex(double timestamp) const;

  SlidingWindowOptions options_;
  std::unordered_map<ObjectId, Accum> window_;
  double window_end_ = 0.0;  // equal-length: (k+1)·L, current window k
  bool window_started_ = false;
  int64_t emitted_ = 0;
};

}  // namespace tcomp

#endif  // TCOMP_STREAM_SLIDING_WINDOW_H_
