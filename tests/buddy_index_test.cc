#include "core/buddy_index.h"

#include <gtest/gtest.h>

namespace tcomp {
namespace {

/// Fixed object→buddy oracle for the algebra tests.
BuddyOfFn OracleFrom(std::vector<std::pair<ObjectId, BuddyId>> pairs) {
  return [pairs = std::move(pairs)](ObjectId o) -> BuddyId {
    for (const auto& [oid, bid] : pairs) {
      if (oid == o) return bid;
    }
    return kNoLiveBuddy;
  };
}

TEST(BuddyIndexTest, RegisterAndExpand) {
  BuddyIndex index;
  index.Register(1, {10, 11});
  index.Register(2, {20});
  EXPECT_TRUE(index.Contains(1));
  EXPECT_FALSE(index.Contains(3));
  EXPECT_EQ(index.stored_objects(), 3);

  AtomSet set;
  set.buddy_ids = {1, 2};
  set.objects = {5};
  EXPECT_EQ(index.Expand(set), (ObjectSet{5, 10, 11, 20}));
}

TEST(BuddyIndexTest, ReRegisterReplacesMembership) {
  BuddyIndex index;
  index.Register(1, {10, 11});
  index.Register(1, {10, 11, 12});
  EXPECT_EQ(index.stored_objects(), 3);
  EXPECT_EQ(index.MembersOf(1), (ObjectSet{10, 11, 12}));
}

TEST(BuddyIndexTest, ExpandRetiredReplacesTokens) {
  BuddyIndex index;
  index.Register(1, {10, 11});
  index.Register(2, {20, 21});
  AtomSet set;
  set.buddy_ids = {1, 2};
  set.objects = {5};
  set.size = 5;
  index.ExpandRetired({1}, &set);
  EXPECT_EQ(set.buddy_ids, (std::vector<BuddyId>{2}));
  EXPECT_EQ(set.objects, (ObjectSet{5, 10, 11}));
  EXPECT_EQ(set.size, 5u);  // object count is unchanged by expansion
}

TEST(BuddyIndexTest, PruneExceptDropsUnreferenced) {
  BuddyIndex index;
  index.Register(1, {10});
  index.Register(2, {20});
  index.Register(3, {30, 31});
  index.PruneExcept({2});
  EXPECT_FALSE(index.Contains(1));
  EXPECT_TRUE(index.Contains(2));
  EXPECT_FALSE(index.Contains(3));
  EXPECT_EQ(index.stored_objects(), 1);
}

TEST(AtomIntersectTest, SharedBuddyTokensMatchWhole) {
  BuddyIndex index;
  index.Register(1, {10, 11});
  index.Register(2, {20, 21});
  auto oracle = OracleFrom({{10, 1}, {11, 1}, {20, 2}, {21, 2}});

  AtomSet r;
  r.buddy_ids = {1, 2};
  r.size = 4;
  AtomSet c;
  c.buddy_ids = {1};
  c.size = 2;

  r.signature = index.ComposeSignature(r);
  c.signature = index.ComposeSignature(c);
  AtomIntersection out = IntersectAtomSets(r, c, index, oracle);
  EXPECT_EQ(out.result.buddy_ids, (std::vector<BuddyId>{1}));
  EXPECT_TRUE(out.result.objects.empty());
  EXPECT_EQ(out.result.size, 2u);
  EXPECT_EQ(out.remaining.buddy_ids, (std::vector<BuddyId>{2}));
  EXPECT_EQ(out.remaining.size, 2u);
}

TEST(AtomIntersectTest, StraddlingBuddyDissolves) {
  // Candidate holds buddy 1 = {10,11,12}; the cluster contains only 10,11
  // as loose objects (the buddy straddles the cluster boundary).
  BuddyIndex index;
  index.Register(1, {10, 11, 12});
  auto oracle = OracleFrom({{10, 1}, {11, 1}, {12, 1}});

  AtomSet r;
  r.buddy_ids = {1};
  r.size = 3;
  AtomSet c;
  c.objects = {10, 11};
  c.size = 2;

  r.signature = index.ComposeSignature(r);
  c.signature = index.ComposeSignature(c);
  AtomIntersection out = IntersectAtomSets(r, c, index, oracle);
  EXPECT_TRUE(out.result.buddy_ids.empty());
  EXPECT_EQ(out.result.objects, (ObjectSet{10, 11}));
  EXPECT_EQ(out.result.size, 2u);
  // The unmatched member stays behind as a loose object.
  EXPECT_EQ(out.remaining.objects, (ObjectSet{12}));
  EXPECT_EQ(out.remaining.size, 1u);
}

TEST(AtomIntersectTest, LooseObjectInsideClusterToken) {
  // Candidate has loose object 10 whose live buddy 1 is wholly inside the
  // cluster (stored there as a token).
  BuddyIndex index;
  index.Register(1, {10, 11});
  auto oracle = OracleFrom({{10, 1}, {11, 1}});

  AtomSet r;
  r.objects = {10, 99};
  r.size = 2;
  AtomSet c;
  c.buddy_ids = {1};
  c.size = 2;

  r.signature = index.ComposeSignature(r);
  c.signature = index.ComposeSignature(c);
  AtomIntersection out = IntersectAtomSets(r, c, index, oracle);
  EXPECT_EQ(out.result.objects, (ObjectSet{10}));
  EXPECT_EQ(out.remaining.objects, (ObjectSet{99}));
}

TEST(AtomIntersectTest, DisjointPairFastPath) {
  BuddyIndex index;
  index.Register(1, {10, 11});
  index.Register(2, {20, 21});
  auto oracle = OracleFrom({{10, 1}, {11, 1}, {20, 2}, {21, 2}});
  AtomSet r;
  r.buddy_ids = {1};
  r.objects = {5};
  r.size = 3;
  AtomSet c;
  c.buddy_ids = {2};
  c.objects = {6};
  c.size = 3;
  r.signature = index.ComposeSignature(r);
  c.signature = index.ComposeSignature(c);
  AtomIntersection out = IntersectAtomSets(r, c, index, oracle);
  EXPECT_FALSE(out.any_overlap);
  EXPECT_TRUE(out.result.buddy_ids.empty());
  EXPECT_TRUE(out.result.objects.empty());
  EXPECT_TRUE(out.remaining.buddy_ids.empty());  // caller keeps its set
}

TEST(AtomIntersectTest, LooseObjectsMatchLooseObjects) {
  BuddyIndex index;
  auto oracle = OracleFrom({});
  AtomSet r;
  r.objects = {1, 2, 3};
  r.size = 3;
  AtomSet c;
  c.objects = {2, 3, 4};
  c.size = 3;
  r.signature = index.ComposeSignature(r);
  c.signature = index.ComposeSignature(c);
  AtomIntersection out = IntersectAtomSets(r, c, index, oracle);
  EXPECT_EQ(out.result.objects, (ObjectSet{2, 3}));
  EXPECT_EQ(out.remaining.objects, (ObjectSet{1}));
}

TEST(AtomSubsetTest, TokenAndLooseCombinations) {
  BuddyIndex index;
  index.Register(1, {10, 11});
  index.Register(2, {20, 21});
  auto oracle = OracleFrom({{10, 1}, {11, 1}, {20, 2}, {21, 2}});

  AtomSet inner;
  inner.buddy_ids = {1};
  inner.size = 2;

  AtomSet outer_token;
  outer_token.buddy_ids = {1, 2};
  outer_token.size = 4;
  EXPECT_TRUE(AtomSetIsSubset(inner, outer_token, index, oracle));

  AtomSet outer_loose;
  outer_loose.objects = {10, 11, 30};
  outer_loose.size = 3;
  EXPECT_TRUE(AtomSetIsSubset(inner, outer_loose, index, oracle));

  AtomSet outer_partial;
  outer_partial.objects = {10};
  outer_partial.size = 1;
  EXPECT_FALSE(AtomSetIsSubset(inner, outer_partial, index, oracle));

  // Loose inner object covered by an outer token.
  AtomSet inner_loose;
  inner_loose.objects = {20};
  inner_loose.size = 1;
  EXPECT_TRUE(AtomSetIsSubset(inner_loose, outer_token, index, oracle));
  AtomSet inner_miss;
  inner_miss.objects = {40};
  inner_miss.size = 1;
  EXPECT_FALSE(AtomSetIsSubset(inner_miss, outer_token, index, oracle));
}

}  // namespace
}  // namespace tcomp
