#include "util/sorted_ops.h"

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/set_signature.h"

namespace tcomp {
namespace {

using IntVec = std::vector<int>;

TEST(SortedOpsTest, IsSortedUnique) {
  EXPECT_TRUE(IsSortedUnique(IntVec{}));
  EXPECT_TRUE(IsSortedUnique(IntVec{1}));
  EXPECT_TRUE(IsSortedUnique(IntVec{1, 2, 5}));
  EXPECT_FALSE(IsSortedUnique(IntVec{1, 1}));
  EXPECT_FALSE(IsSortedUnique(IntVec{2, 1}));
}

TEST(SortedOpsTest, IntersectBasic) {
  EXPECT_EQ(SortedIntersect(IntVec{1, 3, 5}, IntVec{2, 3, 5, 7}),
            (IntVec{3, 5}));
  EXPECT_EQ(SortedIntersect(IntVec{}, IntVec{1, 2}), IntVec{});
  EXPECT_EQ(SortedIntersect(IntVec{1, 2}, IntVec{}), IntVec{});
  EXPECT_EQ(SortedIntersect(IntVec{1, 2}, IntVec{3, 4}), IntVec{});
}

TEST(SortedOpsTest, UnionBasic) {
  EXPECT_EQ(SortedUnion(IntVec{1, 3}, IntVec{2, 3, 4}),
            (IntVec{1, 2, 3, 4}));
  EXPECT_EQ(SortedUnion(IntVec{}, IntVec{}), IntVec{});
}

TEST(SortedOpsTest, DifferenceBasic) {
  EXPECT_EQ(SortedDifference(IntVec{1, 2, 3, 4}, IntVec{2, 4}),
            (IntVec{1, 3}));
  EXPECT_EQ(SortedDifference(IntVec{1, 2}, IntVec{1, 2}), IntVec{});
}

TEST(SortedOpsTest, SubtractInPlace) {
  IntVec a{1, 2, 3, 4, 5};
  SortedSubtractInPlace(&a, IntVec{1, 3, 5});
  EXPECT_EQ(a, (IntVec{2, 4}));
}

TEST(SortedOpsTest, SubtractInPlaceNeverReallocates) {
  IntVec a{1, 2, 3, 4, 5, 6, 7, 8};
  const int* storage = a.data();
  SortedSubtractInPlace(&a, IntVec{2, 4, 6, 100});
  EXPECT_EQ(a, (IntVec{1, 3, 5, 7, 8}));
  EXPECT_EQ(a.data(), storage);
  SortedSubtractInPlace(&a, IntVec{1, 3, 5, 7, 8});
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.data(), storage);  // erase keeps capacity
  SortedSubtractInPlace(&a, IntVec{1});  // empty lhs: no-op
  EXPECT_TRUE(a.empty());
}

TEST(SortedOpsTest, IntersectSizeBasic) {
  EXPECT_EQ(SortedIntersectSize(IntVec{1, 3, 5}, IntVec{2, 3, 5, 7}), 2u);
  EXPECT_EQ(SortedIntersectSize(IntVec{}, IntVec{1, 2}), 0u);
  EXPECT_EQ(SortedIntersectSize(IntVec{1, 2}, IntVec{3, 4}), 0u);
  EXPECT_EQ(SortedIntersectSize(IntVec{7}, IntVec{7}), 1u);
}

TEST(SortedOpsTest, ReusableOutputOverloadsClearFirst) {
  IntVec out{99, 98, 97};  // stale contents must be discarded
  SortedIntersect(IntVec{1, 3, 5}, IntVec{3, 5, 7}, &out);
  EXPECT_EQ(out, (IntVec{3, 5}));
  SortedUnion(IntVec{1, 3}, IntVec{2}, &out);
  EXPECT_EQ(out, (IntVec{1, 2, 3}));
  SortedIntersect(IntVec{}, IntVec{1}, &out);
  EXPECT_EQ(out, IntVec{});
}

TEST(SortedOpsTest, SubsetChecks) {
  EXPECT_TRUE(SortedIsSubset(IntVec{}, IntVec{1}));
  EXPECT_TRUE(SortedIsSubset(IntVec{2, 4}, IntVec{1, 2, 3, 4}));
  EXPECT_FALSE(SortedIsSubset(IntVec{2, 5}, IntVec{1, 2, 3, 4}));
  EXPECT_TRUE(SortedIsSubset(IntVec{1, 2}, IntVec{1, 2}));
}

TEST(SortedOpsTest, IntersectsEarlyExit) {
  EXPECT_TRUE(SortedIntersects(IntVec{1, 9}, IntVec{9}));
  EXPECT_FALSE(SortedIntersects(IntVec{1, 3}, IntVec{2, 4}));
  EXPECT_FALSE(SortedIntersects(IntVec{}, IntVec{2}));
}

TEST(SortedOpsTest, ContainsBinarySearch) {
  EXPECT_TRUE(SortedContains(IntVec{1, 5, 9}, 5));
  EXPECT_FALSE(SortedContains(IntVec{1, 5, 9}, 4));
}

TEST(SortedOpsTest, SortUniqueNormalizes) {
  IntVec v{5, 1, 3, 1, 5};
  SortUnique(&v);
  EXPECT_EQ(v, (IntVec{1, 3, 5}));
}

/// Property sweep: set algebra agrees with a naive reference on random
/// inputs.
class SortedOpsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SortedOpsPropertyTest, MatchesNaiveReference) {
  Pcg32 rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    IntVec a, b;
    for (int i = 0; i < 40; ++i) {
      if (rng.NextBernoulli(0.4)) a.push_back(i);
      if (rng.NextBernoulli(0.4)) b.push_back(i);
    }
    IntVec inter_ref, union_ref, diff_ref;
    for (int i = 0; i < 40; ++i) {
      bool in_a = SortedContains(a, i);
      bool in_b = SortedContains(b, i);
      if (in_a && in_b) inter_ref.push_back(i);
      if (in_a || in_b) union_ref.push_back(i);
      if (in_a && !in_b) diff_ref.push_back(i);
    }
    EXPECT_EQ(SortedIntersect(a, b), inter_ref);
    EXPECT_EQ(SortedUnion(a, b), union_ref);
    EXPECT_EQ(SortedDifference(a, b), diff_ref);
    EXPECT_EQ(SortedIntersects(a, b), !inter_ref.empty());
    EXPECT_EQ(SortedIsSubset(a, b), diff_ref.empty());
    EXPECT_EQ(SortedIntersectSize(a, b), inter_ref.size());

    IntVec scratch;
    SortedIntersect(a, b, &scratch);
    EXPECT_EQ(scratch, inter_ref);
    SortedUnion(a, b, &scratch);
    EXPECT_EQ(scratch, union_ref);

    IntVec mut = a;
    SortedSubtractInPlace(&mut, b);
    EXPECT_EQ(mut, diff_ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortedOpsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- SetSignature: the Bloom + id-bounds prefilter over sorted sets ----

using IdVec = std::vector<uint32_t>;

/// Draws a sorted unique set from [0, universe). Shape picks degenerate
/// cases deliberately: the kernels must behave on empty, singleton,
/// identical, and disjoint inputs, not just typical ones.
IdVec RandomSet(Pcg32& rng, uint32_t universe, int shape) {
  IdVec out;
  switch (shape) {
    case 0:  // empty
      break;
    case 1:  // singleton
      out.push_back(rng.NextBounded(universe));
      break;
    case 2: {  // dense block
      uint32_t len = 1 + rng.NextBounded(universe / 2);
      uint32_t start = rng.NextBounded(universe - len);
      for (uint32_t i = 0; i < len; ++i) out.push_back(start + i);
      break;
    }
    default: {  // Bernoulli scatter
      double p = 0.05 + 0.9 * rng.NextDouble();
      for (uint32_t i = 0; i < universe; ++i) {
        if (rng.NextBernoulli(p)) out.push_back(i);
      }
      break;
    }
  }
  return out;
}

/// The signature prefilter must never reject a true subset, and should
/// reject most non-subsets without touching elements.
class SetSignatureOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SetSignatureOracleTest, NeverFalseRejects) {
  Pcg32 rng(GetParam());
  int non_subsets = 0;
  int prefilter_rejects = 0;
  for (int round = 0; round < 2000; ++round) {
    const uint32_t universe = 8 + rng.NextBounded(200);
    IdVec outer = RandomSet(rng, universe, static_cast<int>(rng.NextBounded(4)));
    IdVec inner;
    if (rng.NextBernoulli(0.5)) {
      // True subset: sample from outer.
      for (uint32_t x : outer) {
        if (rng.NextBernoulli(0.6)) inner.push_back(x);
      }
    } else {
      inner = RandomSet(rng, universe, static_cast<int>(rng.NextBounded(4)));
    }
    const bool is_subset = SortedIsSubset(inner, outer);
    const bool maybe = SetSignature::Of(inner).MaybeSubsetOf(
        SetSignature::Of(outer));
    if (is_subset) {
      EXPECT_TRUE(maybe) << "prefilter rejected a true subset";
    } else {
      ++non_subsets;
      if (!maybe) ++prefilter_rejects;
    }
  }
  // Effectiveness floor: the filter exists to cut work. Random non-subset
  // pairs should be rejected well over half the time.
  EXPECT_GT(non_subsets, 100);
  EXPECT_GT(prefilter_rejects * 2, non_subsets);
}

TEST_P(SetSignatureOracleTest, IntersectsNeverFalseRejects) {
  Pcg32 rng(GetParam() + 100);
  int disjoint_pairs = 0;
  int prefilter_rejects = 0;
  for (int round = 0; round < 2000; ++round) {
    const uint32_t universe = 8 + rng.NextBounded(400);
    IdVec a = RandomSet(rng, universe, static_cast<int>(rng.NextBounded(4)));
    IdVec b;
    if (rng.NextBernoulli(0.4)) {
      // Guaranteed-disjoint pair: ids from a non-overlapping range.
      IdVec raw =
          RandomSet(rng, universe, static_cast<int>(rng.NextBounded(4)));
      for (uint32_t x : raw) b.push_back(x + universe);
    } else {
      b = RandomSet(rng, universe, static_cast<int>(rng.NextBounded(4)));
    }
    const bool intersects = SortedIntersects(a, b);
    const bool maybe =
        SetSignature::Of(a).MaybeIntersects(SetSignature::Of(b));
    if (intersects) {
      EXPECT_TRUE(maybe) << "prefilter dismissed an intersecting pair";
    } else {
      ++disjoint_pairs;
      if (!maybe) ++prefilter_rejects;
    }
  }
  // The shifted-range arm alone guarantees plenty of disjoint pairs, and
  // the bounds check must dismiss all of those.
  EXPECT_GT(disjoint_pairs, 100);
  EXPECT_GT(prefilter_rejects * 2, disjoint_pairs);
}

TEST_P(SetSignatureOracleTest, IncrementalCompositionMatchesOf) {
  Pcg32 rng(GetParam() + 200);
  for (int round = 0; round < 500; ++round) {
    const uint32_t universe = 8 + rng.NextBounded(300);
    IdVec a = RandomSet(rng, universe, static_cast<int>(rng.NextBounded(4)));
    IdVec b = RandomSet(rng, universe, static_cast<int>(rng.NextBounded(4)));

    // AddId over any permutation-free element order equals Of().
    SetSignature incremental;
    for (uint32_t x : a) incremental.AddId(x);
    EXPECT_EQ(incremental, SetSignature::Of(a));

    // MergeUnion equals the signature of the set union — the invariant
    // BuddyIndex::ComposeSignature relies on.
    IdVec both = a;
    both.insert(both.end(), b.begin(), b.end());
    SortUnique(&both);
    SetSignature merged = SetSignature::Of(a);
    merged.MergeUnion(SetSignature::Of(b));
    EXPECT_EQ(merged, SetSignature::Of(both));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetSignatureOracleTest,
                         ::testing::Values(21, 22, 23));

TEST(SetSignatureTest, EmptySetEdgeCases) {
  const SetSignature empty = SetSignature::Of({});
  const SetSignature some = SetSignature::Of({1, 2, 3});
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(some.empty());
  EXPECT_TRUE(empty.MaybeSubsetOf(some));
  EXPECT_TRUE(empty.MaybeSubsetOf(empty));
  EXPECT_FALSE(some.MaybeSubsetOf(empty));
  EXPECT_TRUE(some.MaybeSubsetOf(some));
  // ∅ intersects nothing, including itself.
  EXPECT_FALSE(empty.MaybeIntersects(some));
  EXPECT_FALSE(some.MaybeIntersects(empty));
  EXPECT_FALSE(empty.MaybeIntersects(empty));
  EXPECT_TRUE(some.MaybeIntersects(some));
  // MergeUnion with empty is the identity, in both directions.
  SetSignature merged = some;
  merged.MergeUnion(empty);
  EXPECT_EQ(merged, some);
  SetSignature from_empty = empty;
  from_empty.MergeUnion(some);
  EXPECT_EQ(from_empty, some);
}

}  // namespace
}  // namespace tcomp
