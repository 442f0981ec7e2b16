#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "util/arena.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

namespace tcomp {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad epsilon");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad epsilon");
}

TEST(StatusTest, AllCodesPrint) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NOT_FOUND: x");
  EXPECT_EQ(Status::IoError("x").ToString(), "IO_ERROR: x");
  EXPECT_EQ(Status::Corruption("x").ToString(), "CORRUPTION: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OUT_OF_RANGE: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "INTERNAL: x");
}

Status FailsThenPropagates() {
  TCOMP_RETURN_IF_ERROR(Status::IoError("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  StatusOr<int> err(Status::NotFound("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(Pcg32Test, DeterministicAcrossInstances) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(Pcg32Test, SeedsDiverge) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Pcg32Test, BoundedStaysInRange) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int v = rng.NextInt(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(Pcg32Test, DoubleInUnitInterval) {
  Pcg32 rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Pcg32Test, GaussianMoments) {
  Pcg32 rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Pcg32Test, BoundedIsRoughlyUniform) {
  Pcg32 rng(13);
  int counts[8] = {0};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(8)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.125, 0.01);
  }
}

TEST(TimerTest, AccumulatesAcrossIntervals) {
  Timer t;
  t.Start();
  t.Stop();
  double first = t.Seconds();
  t.Start();
  t.Stop();
  EXPECT_GE(t.Seconds(), first);
  t.Reset();
  EXPECT_EQ(t.Seconds(), 0.0);
}

TEST(ArenaTest, SpansAreDisjointAndSurviveReset) {
  Arena arena;
  for (int round = 0; round < 3; ++round) {
    uint32_t* a = arena.AllocateArray<uint32_t>(5);
    uint8_t* b = arena.AllocateArray<uint8_t>(3);
    double* c = arena.AllocateArray<double>(4);
    for (uint32_t i = 0; i < 5; ++i) a[i] = 7 * i;
    for (uint8_t i = 0; i < 3; ++i) b[i] = static_cast<uint8_t>(200 + i);
    for (int i = 0; i < 4; ++i) c[i] = 0.5 * i;
    for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(a[i], 7 * i);
    for (uint8_t i = 0; i < 3; ++i) EXPECT_EQ(b[i], 200 + i);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(c[i], 0.5 * i);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % alignof(double), 0u);
    arena.Reset();
  }
}

TEST(ArenaDeathTest, ReadOnePastASpanIsReported) {
#ifndef TCOMP_ARENA_POISON
  GTEST_SKIP() << "arena poisoning is compiled only under AddressSanitizer";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Arena arena;
  // The first round sizes the retained block; the spans of the second
  // round share it, so only the poisoned redzone separates them.
  arena.AllocateArray<uint32_t>(64);
  arena.Reset();
  volatile uint32_t* span = arena.AllocateArray<uint32_t>(5);
  arena.AllocateArray<uint32_t>(5);
  for (int i = 0; i < 5; ++i) span[i] = static_cast<uint32_t>(i);
  EXPECT_DEATH({ (void)span[5]; }, "AddressSanitizer");
#endif
}

TEST(FlagParserTest, ParsesAllForms) {
  const char* argv[] = {"prog",      "--alpha=3",  "--beta", "7",
                        "--gamma",   "--name=abc", "pos1",   "--ratio=2.5",
                        "--on=true"};
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(9, argv).ok());
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_EQ(flags.GetInt("beta", 0), 7);
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio", 0.0), 2.5);
  EXPECT_TRUE(flags.GetBool("on", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  FlagParser flags;
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagParserTest, RejectsBareDoubleDash) {
  FlagParser flags;
  const char* argv[] = {"prog", "--"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagParserTest, RejectsEmptyName) {
  FlagParser flags;
  const char* argv[] = {"prog", "--=3"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

}  // namespace
}  // namespace tcomp
