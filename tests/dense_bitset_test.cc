#include "util/dense_bitset.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/random.h"
#include "util/set_signature.h"
#include "util/sorted_ops.h"

namespace tcomp {
namespace {

using IdVec = std::vector<uint32_t>;
using IdSet = std::set<uint32_t>;

IdVec ToVec(const IdSet& s) { return IdVec(s.begin(), s.end()); }

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

TEST(DenseBitsetTest, BasicSetTestClear) {
  DenseBitset b(130);
  EXPECT_EQ(b.universe(), 130u);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 4u);
  b.Clear(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
  EXPECT_EQ(b.ToSorted(), (IdVec{0, 64, 129}));
}

TEST(DenseBitsetTest, OutOfUniverseIdsAreAbsent) {
  DenseBitset b(10);
  b.SetSparse(IdVec{3, 7, 50, 900});  // 50 and 900 don't fit: skipped
  EXPECT_FALSE(b.Test(50));
  EXPECT_FALSE(b.Test(900));
  EXPECT_EQ(b.ToSorted(), (IdVec{3, 7}));
  b.ClearSparse(IdVec{3, 50});  // clearing an unrepresentable id: no-op
  EXPECT_EQ(b.ToSorted(), (IdVec{7}));
}

TEST(DenseBitsetTest, EmptyUniverse) {
  DenseBitset b(0);
  EXPECT_FALSE(b.Test(0));
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.ToSorted().empty());
  b.SetSparse(IdVec{1, 2});  // nothing representable
  EXPECT_EQ(b.Count(), 0u);
}

TEST(DenseBitsetTest, MismatchedUniverses) {
  DenseBitset small(70);
  small.SetSparse(IdVec{1, 65, 69});
  DenseBitset big(300);
  big.SetSparse(IdVec{1, 65, 200});

  DenseBitset inter = small;
  inter.IntersectWith(big);
  EXPECT_EQ(inter.ToSorted(), (IdVec{1, 65}));

  DenseBitset uni = small;
  uni.UnionWith(big);
  EXPECT_EQ(uni.universe(), 300u);
  EXPECT_EQ(uni.ToSorted(), (IdVec{1, 65, 69, 200}));

  DenseBitset diff = big;
  diff.SubtractWith(small);
  EXPECT_EQ(diff.ToSorted(), (IdVec{200}));

  EXPECT_FALSE(small.IsSubsetOf(big));  // 69 missing from big
  EXPECT_TRUE(inter.IsSubsetOf(big));
  EXPECT_TRUE(small.Intersects(big));
  EXPECT_EQ(small.IntersectCount(big), 2u);
}

TEST(DenseBitsetTest, ProbeHelpersStopAtUniverse) {
  DenseBitset bits(100);
  bits.SetSparse(IdVec{2, 40, 99});
  IdVec probe{2, 40, 99, 150, 200};  // tail beyond the universe
  IdVec out;
  IntersectInto(probe, bits, &out);
  EXPECT_EQ(out, (IdVec{2, 40, 99}));
  EXPECT_EQ(IntersectCountWith(probe, bits), 3u);
  EXPECT_TRUE(IntersectsWith(probe, bits));
  EXPECT_FALSE(IntersectsWith(IdVec{150, 151}, bits));
  EXPECT_FALSE(IntersectsWith(IdVec{}, bits));
}

TEST(DenseBitsetTest, ProfitabilityHeuristic) {
  EXPECT_FALSE(BitsetProfitable(0, 0));            // empty universe
  EXPECT_TRUE(BitsetProfitable(1000, 500));        // dense ids
  EXPECT_TRUE(BitsetProfitable(64, 1));            // ≥1 member per word
  EXPECT_FALSE(BitsetProfitable(65, 1));           // too sparse
  EXPECT_FALSE(BitsetProfitable(kMaxBitsetUniverse + 1,
                                kMaxBitsetUniverse));  // capped
}

/// Oracle sweep: every kernel must agree with std::set algebra across
/// thousands of generated pairs, including empty/disjoint/identical/
/// singleton sets and mismatched universes.
class DenseBitsetOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DenseBitsetOracleTest, MatchesSetAlgebra) {
  Pcg32 rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    const uint32_t ua = 16 + rng.NextBounded(240);
    IdVec a = RandomSet(rng, ua, static_cast<int>(rng.NextBounded(4)));
    // A bitset must cover its own set, so force ub = ua when reusing `a`.
    const bool identical = rng.NextBernoulli(0.05);
    const uint32_t ub = identical || rng.NextBernoulli(0.5)
                            ? ua
                            : 16 + rng.NextBounded(240);
    IdVec b = identical ? a
                        : RandomSet(rng, ub, static_cast<int>(rng.NextBounded(4)));

    IdSet sa(a.begin(), a.end());
    IdSet sb(b.begin(), b.end());
    IdSet inter_ref, union_ref, diff_ref;
    for (uint32_t x : sa) {
      if (sb.count(x)) inter_ref.insert(x);
      if (!sb.count(x)) diff_ref.insert(x);
      union_ref.insert(x);
    }
    union_ref.insert(sb.begin(), sb.end());

    DenseBitset ba(ua);
    ba.AssignSorted(a);
    DenseBitset bb(ub);
    bb.AssignSorted(b);

    // Round-trip and population.
    EXPECT_EQ(ba.ToSorted(), a);
    EXPECT_EQ(ba.Count(), a.size());

    // Word kernels.
    DenseBitset t = ba;
    t.IntersectWith(bb);
    EXPECT_EQ(t.ToSorted(), ToVec(inter_ref));
    t = ba;
    t.UnionWith(bb);
    EXPECT_EQ(t.ToSorted(), ToVec(union_ref));
    t = ba;
    t.SubtractWith(bb);
    EXPECT_EQ(t.ToSorted(), ToVec(diff_ref));
    EXPECT_EQ(ba.IsSubsetOf(bb), diff_ref.empty());
    EXPECT_EQ(ba.Intersects(bb), !inter_ref.empty());
    EXPECT_EQ(ba.IntersectCount(bb), inter_ref.size());

    // Sparse probe kernels against the sorted-merge reference.
    IdVec out;
    IntersectInto(a, bb, &out);
    EXPECT_EQ(out, SortedIntersect(a, b));
    EXPECT_EQ(IntersectCountWith(a, bb), inter_ref.size());
    EXPECT_EQ(IntersectsWith(a, bb), !inter_ref.empty());

    // Incremental clear matches subtraction.
    t = ba;
    t.ClearSparse(SortedIntersect(a, b));
    EXPECT_EQ(t.ToSorted(), ToVec(diff_ref));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseBitsetOracleTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

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
