#include "stream/sliding_window.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>

namespace tcomp {
namespace {

TrajectoryRecord R(ObjectId o, double ts, double x, double y) {
  return TrajectoryRecord{o, ts, Point{x, y}};
}

TEST(SlidingWindowTest, EqualLengthBatchesByTime) {
  SlidingWindowOptions options;
  options.mode = WindowMode::kEqualLength;
  options.window_length = 60.0;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;

  ASSERT_TRUE(win.Push(R(1, 0.0, 1.0, 1.0), &out).ok());
  ASSERT_TRUE(win.Push(R(2, 30.0, 2.0, 2.0), &out).ok());
  EXPECT_TRUE(out.empty());
  // Crossing the 60 s boundary closes the first window.
  ASSERT_TRUE(win.Push(R(1, 61.0, 5.0, 5.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 2u);
  EXPECT_TRUE(out[0].Contains(1));
  EXPECT_TRUE(out[0].Contains(2));
  out.clear();
  win.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 1u);
}

TEST(SlidingWindowTest, MultiReportAveraged) {
  // Paper Fig. 22: multiple reports in one span → mean position.
  SlidingWindowOptions options;
  options.window_length = 60.0;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;
  ASSERT_TRUE(win.Push(R(7, 1.0, 0.0, 0.0), &out).ok());
  ASSERT_TRUE(win.Push(R(7, 20.0, 10.0, 4.0), &out).ok());
  ASSERT_TRUE(win.Push(R(7, 40.0, 2.0, 2.0), &out).ok());
  win.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  size_t idx = out[0].IndexOf(7);
  ASSERT_NE(idx, Snapshot::kNpos);
  EXPECT_DOUBLE_EQ(out[0].pos(idx).x, 4.0);
  EXPECT_DOUBLE_EQ(out[0].pos(idx).y, 2.0);
}

TEST(SlidingWindowTest, GapSkipsEmptyWindows) {
  SlidingWindowOptions options;
  options.window_length = 10.0;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;
  ASSERT_TRUE(win.Push(R(1, 0.0, 0.0, 0.0), &out).ok());
  // Jump over 5 empty windows: only the one real window is emitted.
  ASSERT_TRUE(win.Push(R(1, 65.0, 1.0, 1.0), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(win.emitted(), 1);
}

TEST(SlidingWindowTest, LateRecordFoldsIntoCurrentWindow) {
  SlidingWindowOptions options;
  options.window_length = 10.0;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;
  ASSERT_TRUE(win.Push(R(1, 12.0, 0.0, 0.0), &out).ok());
  // Timestamp 3.0 is older than the current window; it is folded in
  // rather than dropped.
  ASSERT_TRUE(win.Push(R(2, 3.0, 5.0, 5.0), &out).ok());
  win.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 2u);
}

TEST(SlidingWindowTest, OutOfOrderWithinWindowIsFine) {
  SlidingWindowOptions options;
  options.window_length = 60.0;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;
  ASSERT_TRUE(win.Push(R(1, 50.0, 1.0, 0.0), &out).ok());
  ASSERT_TRUE(win.Push(R(2, 10.0, 2.0, 0.0), &out).ok());
  ASSERT_TRUE(win.Push(R(3, 30.0, 3.0, 0.0), &out).ok());
  win.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 3u);
}

TEST(SlidingWindowTest, EqualWidthEmitsOnObjectCount) {
  SlidingWindowOptions options;
  options.mode = WindowMode::kEqualWidth;
  options.min_objects = 3;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;
  ASSERT_TRUE(win.Push(R(1, 0.0, 0.0, 0.0), &out).ok());
  ASSERT_TRUE(win.Push(R(1, 1.0, 0.0, 0.0), &out).ok());  // same object
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(win.Push(R(2, 2.0, 0.0, 0.0), &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(win.Push(R(3, 3.0, 0.0, 0.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 3u);
}

TEST(SlidingWindowTest, RejectsNonFiniteTimestamp) {
  SlidingWindowSnapshotter win(SlidingWindowOptions{});
  std::vector<Snapshot> out;
  TrajectoryRecord r = R(1, 0.0, 0.0, 0.0);
  r.timestamp = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(win.Push(r, &out).ok());
}

TEST(SlidingWindowTest, RejectsNonFinitePosition) {
  // A NaN coordinate that reached the grid clusterer would be UB
  // (floor(NaN) cast to int64_t); the ingest boundary must reject it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  SlidingWindowSnapshotter win(SlidingWindowOptions{});
  std::vector<Snapshot> out;
  for (Point p : {Point{nan, 0.0}, Point{0.0, nan}, Point{inf, 0.0},
                  Point{0.0, -inf}}) {
    TrajectoryRecord r = R(1, 0.0, p.x, p.y);
    Status s = win.Push(r, &out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << "(" << p.x << ", " << p.y << ")";
  }
  // The rejected records left no trace: a finite record still works and
  // the snapshot contains only it.
  ASSERT_TRUE(win.Push(R(2, 1.0, 3.0, 4.0), &out).ok());
  win.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 1u);
  EXPECT_TRUE(out[0].Contains(2));
}

// ---------------------------------------------------------------------
// The record range (ValidateRecord): one finite record far outside it
// used to hang the window (a timestamp where start + L == start) or
// abort the sweep (a window sum overflowing to inf). Each input now gets
// a clean error, or correct output, at once.

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(SlidingWindowTest, HugeTimestampIsRejectedNotLooped) {
  const auto start = std::chrono::steady_clock::now();
  SlidingWindowOptions options;
  options.window_length = 60.0;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;
  ASSERT_TRUE(win.Push(R(0, 0.0, 1.0, 1.0), &out).ok());
  ASSERT_TRUE(win.Push(R(1, 0.0, 2.0, 2.0), &out).ok());
  EXPECT_EQ(win.Push(R(0, 1e300, 1.0, 1.0), &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());
  win.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 2u);
  EXPECT_LT(SecondsSince(start), 1.0);
}

TEST(SlidingWindowTest, HugeCoordinatesAreRejectedBeforeTheyOverflow) {
  const auto start = std::chrono::steady_clock::now();
  SlidingWindowSnapshotter win(SlidingWindowOptions{});
  std::vector<Snapshot> out;
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(win.Push(R(0, 1.0, 1.5e308, 0.0), &out).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(win.Push(R(0, 1.0, 0.0, -2e15), &out).code(),
            StatusCode::kInvalidArgument);
  // The edge of the range is inside it, and a window of many reports
  // there averages to a finite position.
  for (int k = 0; k < 1000; ++k) {
    ASSERT_TRUE(win.Push(R(1, 1.0, kMaxRecordCoordinate,
                           -kMaxRecordCoordinate), &out).ok());
  }
  win.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].size(), 1u);
  EXPECT_EQ(out[0].pos(0).x, kMaxRecordCoordinate);
  EXPECT_EQ(out[0].pos(0).y, -kMaxRecordCoordinate);
  EXPECT_LT(SecondsSince(start), 1.0);
}

TEST(SlidingWindowTest, FarJumpInsideTheRangeIsOneStepWithExactBounds) {
  const auto start = std::chrono::steady_clock::now();
  SlidingWindowOptions options;
  options.window_length = 60.0;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;
  // k = 2⁴⁴ windows from the epoch: k·L ≈ 1.06e15 s, still exact.
  const double k_l = 60.0 * 0x1p44;
  ASSERT_TRUE(win.Push(R(1, 0.0, 0.0, 0.0), &out).ok());
  ASSERT_TRUE(win.Push(R(1, k_l - 1.0, 0.0, 0.0), &out).ok());
  EXPECT_EQ(out.size(), 1u);  // [0, L) closes; 2⁴⁴ − 2 empty ones skipped
  ASSERT_TRUE(win.Push(R(2, k_l, 0.0, 0.0), &out).ok());
  EXPECT_EQ(out.size(), 2u);  // k·L opens window k exactly
  ASSERT_TRUE(win.Push(R(3, k_l + 59.5, 0.0, 0.0), &out).ok());
  EXPECT_EQ(out.size(), 2u);
  ASSERT_TRUE(win.Push(R(4, k_l + 60.0, 0.0, 0.0), &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].size(), 2u);  // objects 2 and 3
  // 2⁵² windows from the epoch is the last accepted timestamp.
  EXPECT_TRUE(win.Push(R(5, 60.0 * 0x1p52, 0.0, 0.0), &out).ok());
  EXPECT_EQ(win.Push(R(5, 60.0 * 0x1p53, 0.0, 0.0), &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(win.emitted(), 4);
  EXPECT_LT(SecondsSince(start), 1.0);
}

// ---------------------------------------------------------------------
// Empty-window contract (see the class comment): empty windows never
// become snapshots and never advance emitted(), at end-of-stream exactly
// as mid-stream. These pin the stream-end edge the serve-vs-batch
// differential relies on.

TEST(SlidingWindowTest, TrailingGapEmitsNoEmptyWindows) {
  SlidingWindowOptions options;
  options.window_length = 10.0;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;
  ASSERT_TRUE(win.Push(R(1, 0.0, 0.0, 0.0), &out).ok());
  // The straggler is 6 windows ahead: exactly one snapshot (window 0)
  // closes; the 5 empty windows in between leave no trace.
  ASSERT_TRUE(win.Push(R(1, 65.0, 1.0, 1.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(win.emitted(), 1);
  // Flush emits only the straggler's (non-empty) window — the trailing
  // stretch from 65.0 to the window edge does not round up to more.
  win.Flush(&out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(win.emitted(), 2);
  EXPECT_EQ(out[1].size(), 1u);
}

TEST(SlidingWindowTest, FlushWithNothingBufferedEmitsNothing) {
  SlidingWindowOptions options;
  options.window_length = 10.0;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;
  // Flush before any record: no snapshot, no count.
  win.Flush(&out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(win.emitted(), 0);
  ASSERT_TRUE(win.Push(R(1, 0.0, 0.0, 0.0), &out).ok());
  win.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(win.emitted(), 1);
  // A second Flush right after: the window is already drained, so this
  // must be a no-op, not a duplicate or empty snapshot.
  win.Flush(&out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(win.emitted(), 1);
}

TEST(SlidingWindowTest, StreamResumesCleanlyAfterFlush) {
  // Flush re-anchors the window: a record pushed afterwards starts a
  // fresh window at its own span, exactly like a first record would.
  SlidingWindowOptions options;
  options.window_length = 10.0;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;
  ASSERT_TRUE(win.Push(R(1, 3.0, 0.0, 0.0), &out).ok());
  win.Flush(&out);
  ASSERT_TRUE(win.Push(R(2, 103.0, 0.0, 0.0), &out).ok());
  EXPECT_EQ(out.size(), 1u);  // the gap across the flush emits nothing
  win.Flush(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].size(), 1u);
  EXPECT_TRUE(out[1].Contains(2));
  EXPECT_EQ(win.emitted(), 2);
}

TEST(SlidingWindowTest, SnapshotDurationPropagates) {
  SlidingWindowOptions options;
  options.window_length = 10.0;
  options.snapshot_duration = 5.0;
  SlidingWindowSnapshotter win(options);
  std::vector<Snapshot> out;
  ASSERT_TRUE(win.Push(R(1, 0.0, 0.0, 0.0), &out).ok());
  win.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].duration(), 5.0);
}

}  // namespace
}  // namespace tcomp
