#include "stream/inactive_period.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stream/sliding_window.h"
#include "tests/test_util.h"

namespace tcomp {
namespace {

using testing_util::MakeSnapshot;

TEST(InactivePeriodTest, ZeroThresholdIsPassthrough) {
  InactivePeriodFiller filler(0);
  Snapshot s1 = MakeSnapshot({{1, 0, 0}, {2, 1, 1}});
  Snapshot s2 = MakeSnapshot({{1, 0, 0}});
  EXPECT_EQ(filler.Fill(s1).size(), 2u);
  EXPECT_EQ(filler.Fill(s2).size(), 1u);
}

TEST(InactivePeriodTest, CarriesForwardWithinThreshold) {
  InactivePeriodFiller filler(2);
  filler.Fill(MakeSnapshot({{1, 0, 0}, {2, 5, 5}}));
  // Object 2 missing — gap 1 ≤ 2, carried forward at its last position.
  Snapshot filled = filler.Fill(MakeSnapshot({{1, 1, 0}}));
  ASSERT_EQ(filled.size(), 2u);
  size_t idx = filled.IndexOf(2);
  ASSERT_NE(idx, Snapshot::kNpos);
  EXPECT_DOUBLE_EQ(filled.pos(idx).x, 5.0);
  EXPECT_DOUBLE_EQ(filled.pos(idx).y, 5.0);
}

TEST(InactivePeriodTest, DropsAfterThresholdExceeded) {
  InactivePeriodFiller filler(2);
  filler.Fill(MakeSnapshot({{1, 0, 0}, {2, 5, 5}}));
  EXPECT_EQ(filler.Fill(MakeSnapshot({{1, 0, 0}})).size(), 2u);  // gap 1
  EXPECT_EQ(filler.Fill(MakeSnapshot({{1, 0, 0}})).size(), 2u);  // gap 2
  EXPECT_EQ(filler.Fill(MakeSnapshot({{1, 0, 0}})).size(), 1u);  // gap 3
}

TEST(InactivePeriodTest, ReappearanceResetsClock) {
  InactivePeriodFiller filler(1);
  filler.Fill(MakeSnapshot({{1, 0, 0}, {2, 5, 5}}));
  EXPECT_EQ(filler.Fill(MakeSnapshot({{1, 0, 0}})).size(), 2u);  // gap 1
  // Object 2 reports again, with a new position. Velocity is now
  // (9-5)/2 = 2 per snapshot, so the next fill dead-reckons to 11.
  filler.Fill(MakeSnapshot({{1, 0, 0}, {2, 9, 9}}));
  Snapshot filled = filler.Fill(MakeSnapshot({{1, 0, 0}}));
  ASSERT_EQ(filled.size(), 2u);
  EXPECT_DOUBLE_EQ(filled.pos(filled.IndexOf(2)).x, 11.0);
  EXPECT_DOUBLE_EQ(filled.pos(filled.IndexOf(2)).y, 11.0);
}

TEST(InactivePeriodTest, DeadReckoningFollowsMovingGroup) {
  // An object moving east at 10/snapshot goes silent for two snapshots;
  // the fills advance it along its course instead of freezing it.
  InactivePeriodFiller filler(3);
  filler.Fill(MakeSnapshot({{1, 0, 0}}));
  filler.Fill(MakeSnapshot({{1, 10, 0}}));
  Snapshot f1 = filler.Fill(MakeSnapshot({{2, 999, 999}}));
  ASSERT_TRUE(f1.Contains(1));
  EXPECT_DOUBLE_EQ(f1.pos(f1.IndexOf(1)).x, 20.0);
  Snapshot f2 = filler.Fill(MakeSnapshot({{2, 999, 999}}));
  EXPECT_DOUBLE_EQ(f2.pos(f2.IndexOf(1)).x, 30.0);
}

TEST(InactivePeriodTest, SingleSightingCarriesForwardInPlace) {
  InactivePeriodFiller filler(2);
  filler.Fill(MakeSnapshot({{1, 7, 3}}));
  Snapshot filled = filler.Fill(MakeSnapshot({{2, 0, 0}}));
  ASSERT_TRUE(filled.Contains(1));
  EXPECT_DOUBLE_EQ(filled.pos(filled.IndexOf(1)).x, 7.0);
  EXPECT_DOUBLE_EQ(filled.pos(filled.IndexOf(1)).y, 3.0);
}

TEST(InactivePeriodTest, DeadReckoningStaysFiniteAtTheRecordRange) {
  // Reports at opposite edges of the record range (stream/
  // sliding_window.h) give the largest velocity; dead reckoning over a
  // long gap stays finite.
  const double edge = kMaxRecordCoordinate;
  InactivePeriodFiller filler(1 << 30);
  filler.Fill(MakeSnapshot({{1, edge, -edge}, {2, 0, 0}}));
  filler.Fill(MakeSnapshot({{1, -edge, edge}, {2, 0, 0}}));
  for (int t = 0; t < 500; ++t) {
    Snapshot filled = filler.Fill(MakeSnapshot({{2, 0, 0}}));
    ASSERT_TRUE(filled.Contains(1));
    const Point p = filled.pos(filled.IndexOf(1));
    ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y)) << t;
    EXPECT_EQ(p.x, -edge - 2 * edge * (t + 1));
  }
}

TEST(InactivePeriodTest, PaperExampleObject3TravelsThroughGap) {
  // Paper Fig. 22: o3 misses s2 but is assumed to travel with o1, o2 when
  // the inactive threshold covers the gap.
  InactivePeriodFiller filler(1);
  filler.Fill(MakeSnapshot({{1, 0, 0}, {2, 1, 0}, {3, 2, 0}}));
  Snapshot s2 = filler.Fill(MakeSnapshot({{1, 10, 0}, {2, 11, 0}}));
  EXPECT_TRUE(s2.Contains(3));
  Snapshot s3 = filler.Fill(MakeSnapshot({{1, 20, 0}, {2, 21, 0},
                                          {3, 22, 0}}));
  EXPECT_EQ(s3.size(), 3u);
}

TEST(InactivePeriodTest, FillStreamAndReset) {
  InactivePeriodFiller filler(3);
  SnapshotStream stream;
  stream.push_back(MakeSnapshot({{1, 0, 0}, {2, 5, 5}}));
  stream.push_back(MakeSnapshot({{1, 1, 0}}));
  SnapshotStream filled = filler.FillStream(stream);
  ASSERT_EQ(filled.size(), 2u);
  EXPECT_EQ(filled[1].size(), 2u);
  filler.Reset();
  // After reset object 2 is unknown again.
  EXPECT_EQ(filler.Fill(MakeSnapshot({{1, 0, 0}})).size(), 1u);
}

TEST(InactivePeriodTest, DurationPreserved) {
  InactivePeriodFiller filler(1);
  Snapshot s = filler.Fill(MakeSnapshot({{1, 0, 0}}, 7.5));
  EXPECT_DOUBLE_EQ(s.duration(), 7.5);
}

}  // namespace
}  // namespace tcomp
