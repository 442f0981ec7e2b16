#include "stream/sliding_window.h"

#include <cmath>

#include "util/logging.h"

namespace tcomp {

Status ValidateRecord(const TrajectoryRecord& record,
                      const SlidingWindowOptions& options) {
  // NaN fails every comparison below, so it is rejected too. A NaN/Inf
  // or huge coordinate would overflow the window average or the filler's
  // dead reckoning and, further downstream, abort the plane sweep's
  // finite-coordinate check.
  if (!(std::fabs(record.pos.x) <= kMaxRecordCoordinate) ||
      !(std::fabs(record.pos.y) <= kMaxRecordCoordinate)) {
    return Status::InvalidArgument("record position outside +-1e15");
  }
  if (!std::isfinite(record.timestamp)) {
    return Status::InvalidArgument("non-finite record timestamp");
  }
  if (options.mode == WindowMode::kEqualLength &&
      !(std::fabs(record.timestamp) <= 0x1p52 * options.window_length)) {
    return Status::InvalidArgument(
        "record timestamp beyond 2^52 window lengths");
  }
  return Status::OK();
}

SlidingWindowSnapshotter::SlidingWindowSnapshotter(
    const SlidingWindowOptions& options)
    : options_(options) {
  TCOMP_CHECK_GT(options.snapshot_duration, 0.0);
  if (options.mode == WindowMode::kEqualLength) {
    TCOMP_CHECK_GT(options.window_length, 0.0);
  } else {
    TCOMP_CHECK_GT(options.min_objects, 0u);
  }
}

void SlidingWindowSnapshotter::EmitWindow(std::vector<Snapshot>* out) {
  if (window_.empty()) return;
  std::vector<ObjectPosition> positions;
  positions.reserve(window_.size());
  // tcomp-lint: allow(unordered-iter): Snapshot's ctor sorts by object id
  for (const auto& [oid, accum] : window_) {
    positions.push_back(ObjectPosition{
        oid, accum.sum / static_cast<double>(accum.count)});
  }
  out->push_back(Snapshot(std::move(positions), options_.snapshot_duration));
  window_.clear();
  ++emitted_;
}

int64_t SlidingWindowSnapshotter::WindowIndex(double timestamp) const {
  const double length = options_.window_length;
  auto k = static_cast<int64_t>(std::floor(timestamp / length));
  // The quotient is rounded; one step restores k·L ≤ t < (k + 1)·L.
  if (static_cast<double>(k) * length > timestamp) {
    --k;
  } else if (static_cast<double>(k + 1) * length <= timestamp) {
    ++k;
  }
  return k;
}

Status SlidingWindowSnapshotter::Push(const TrajectoryRecord& record,
                                      std::vector<Snapshot>* out) {
  TCOMP_RETURN_IF_ERROR(ValidateRecord(record, options_));

  if (options_.mode == WindowMode::kEqualLength) {
    // Windows are [k·L, (k+1)·L) for integer k regardless of where the
    // stream starts; the first record anchors the current one.
    const bool past = window_started_ && record.timestamp >= window_end_;
    if (past) {
      // Close the current window and step over every empty one the gap
      // spans at once — gaps produce no empty snapshots.
      EmitWindow(out);
    }
    if (past || !window_started_) {
      const int64_t k = WindowIndex(record.timestamp);
      window_end_ = static_cast<double>(k + 1) * options_.window_length;
      window_started_ = true;
    }
    // Late records (before the current window) fold into it; see the
    // class comment.
  }

  Accum& accum = window_[record.object];
  accum.sum = accum.sum + record.pos;
  ++accum.count;

  if (options_.mode == WindowMode::kEqualWidth &&
      window_.size() >= options_.min_objects) {
    EmitWindow(out);
  }
  return Status::OK();
}

void SlidingWindowSnapshotter::Flush(std::vector<Snapshot>* out) {
  EmitWindow(out);
  window_started_ = false;
}

}  // namespace tcomp
