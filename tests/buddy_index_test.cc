#include "core/buddy_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "util/random.h"
#include "util/sorted_ops.h"

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

void ExpectSameAtoms(const AtomSet& want, const AtomSet& got,
                     const char* what) {
  EXPECT_EQ(want.buddy_ids, got.buddy_ids) << what;
  EXPECT_EQ(want.objects, got.objects) << what;
  EXPECT_EQ(want.size, got.size) << what;
  EXPECT_TRUE(want.signature == got.signature) << what;
}

/// IntersectAtomSets on both membership paths: the merge path, and the
/// label table of a snapshot with ids `snapshot_ids` whose cluster 1 is
/// `c` expanded (every other snapshot id in cluster 0). The results must
/// be identical; returns the table path's.
AtomIntersection IntersectBothPaths(const AtomSet& r, const AtomSet& c,
                                    const BuddyIndex& index,
                                    const BuddyOfFn& buddy_of,
                                    const ObjectSet& snapshot_ids) {
  const AtomIntersection merged = IntersectAtomSets(r, c, index, buddy_of);
  const ObjectSet inside = index.Expand(c);
  ObjectSet outside;
  for (ObjectId o : snapshot_ids) {
    if (!std::binary_search(inside.begin(), inside.end(), o)) {
      outside.push_back(o);
    }
  }
  LabelTable labels;
  EXPECT_TRUE(labels.Assign(snapshot_ids, {outside, inside}));
  AtomIntersection tabled =
      IntersectAtomSets(r, c, index, buddy_of, &labels, 1);
  EXPECT_EQ(merged.any_overlap, tabled.any_overlap);
  ExpectSameAtoms(merged.result, tabled.result, "result");
  ExpectSameAtoms(merged.remaining, tabled.remaining, "remaining");
  return tabled;
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
  AtomIntersection out =
      IntersectBothPaths(r, c, index, oracle, ObjectSet{10, 11, 20, 21});
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
  AtomIntersection out =
      IntersectBothPaths(r, c, index, oracle, ObjectSet{10, 11, 12});
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
  AtomIntersection out =
      IntersectBothPaths(r, c, index, oracle, ObjectSet{10, 11, 99});
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
  AtomIntersection out = IntersectBothPaths(r, c, index, oracle,
                                            ObjectSet{5, 6, 10, 11, 20, 21});
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
  AtomIntersection out =
      IntersectBothPaths(r, c, index, oracle, ObjectSet{1, 2, 3, 4});
  EXPECT_EQ(out.result.objects, (ObjectSet{2, 3}));
  EXPECT_EQ(out.remaining.objects, (ObjectSet{1}));
}

TEST(AtomIntersectTest, MemberAbsentFromSnapshot) {
  // Buddy 1 = {10, 11, 12} carries member 12 forward while it is absent
  // from the snapshot, so the cluster holds only 10 and 11 (loose); the
  // candidate's loose object 15 is absent too.
  BuddyIndex index;
  index.Register(1, {10, 11, 12});
  auto oracle = OracleFrom({{10, 1}, {11, 1}, {12, 1}});

  AtomSet r;
  r.buddy_ids = {1};
  r.objects = {15};
  r.size = 4;
  AtomSet c;
  c.objects = {10, 11};
  c.size = 2;

  r.signature = index.ComposeSignature(r);
  c.signature = index.ComposeSignature(c);
  AtomIntersection out =
      IntersectBothPaths(r, c, index, oracle, ObjectSet{10, 11, 13, 14});
  EXPECT_TRUE(out.any_overlap);
  EXPECT_EQ(out.result.objects, (ObjectSet{10, 11}));
  EXPECT_EQ(out.remaining.objects, (ObjectSet{12, 15}));
  EXPECT_EQ(out.remaining.size, 2u);
}

TEST(AtomIntersectTest, IdBeyondLabelUniverse) {
  // The snapshot's ids end at 4 (a 5-slot table); buddy 1's member 400
  // and the loose object 500 lie beyond it and match no cluster.
  BuddyIndex index;
  index.Register(1, {3, 400});
  auto oracle = OracleFrom({{3, 1}, {400, 1}});

  AtomSet r;
  r.buddy_ids = {1};
  r.objects = {2, 500};
  r.size = 4;
  AtomSet c;
  c.objects = {2, 3};
  c.size = 2;

  r.signature = index.ComposeSignature(r);
  c.signature = index.ComposeSignature(c);
  AtomIntersection out =
      IntersectBothPaths(r, c, index, oracle, ObjectSet{1, 2, 3, 4});
  EXPECT_EQ(out.result.objects, (ObjectSet{2, 3}));
  EXPECT_EQ(out.result.size, 2u);
  EXPECT_EQ(out.remaining.objects, (ObjectSet{400, 500}));
  EXPECT_TRUE(out.remaining.buddy_ids.empty());
}

/// Random buddies, clusterings and candidates, atomized the way BU's
/// I-step atomizes them: both membership paths must agree with each
/// other and with the plain set intersection, including tokens whose
/// members straddle two clusters, members absent from the snapshot and
/// loose ids beyond the table's universe.
TEST(AtomIntersectTest, RandomSetsAgreeOnBothPaths) {
  constexpr ObjectId kIds = 60;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Pcg32 rng(seed);
    // Buddies: consecutive runs of 1-4 ids; 80% of ids in the snapshot,
    // each labeled with one of three clusters or noise.
    BuddyIndex index;
    std::map<ObjectId, BuddyId> buddy_of_id;
    std::vector<ObjectSet> buddy_members;
    for (ObjectId id = 0; id < kIds;) {
      ObjectSet members;
      for (uint32_t k = 1 + rng.NextBounded(4); k > 0 && id < kIds; --k) {
        buddy_of_id[id] = static_cast<BuddyId>(buddy_members.size());
        members.push_back(id++);
      }
      index.Register(static_cast<BuddyId>(buddy_members.size()), members);
      buddy_members.push_back(members);
    }
    const BuddyOfFn oracle = [&](ObjectId o) {
      auto it = buddy_of_id.find(o);
      return it == buddy_of_id.end() ? kNoLiveBuddy : it->second;
    };
    ObjectSet snapshot_ids;
    std::vector<ObjectSet> clusters(3);
    for (ObjectId id = 0; id < kIds; ++id) {
      if (!rng.NextBernoulli(0.8)) continue;
      snapshot_ids.push_back(id);
      const uint32_t label = rng.NextBounded(4);
      if (label < 3) clusters[label].push_back(id);
    }
    LabelTable labels;
    ASSERT_TRUE(labels.Assign(snapshot_ids, clusters));

    for (int round = 0; round < 20; ++round) {
      AtomSet r;
      for (BuddyId b = 0; b < buddy_members.size(); ++b) {
        if (rng.NextBernoulli(0.3)) r.buddy_ids.push_back(b);
      }
      for (ObjectId id = 0; id < kIds + 10; ++id) {
        const bool in_token = id < kIds && SortedContains(
                                               r.buddy_ids, buddy_of_id[id]);
        if (!in_token && rng.NextBernoulli(0.2)) r.objects.push_back(id);
      }
      r.objects.push_back(100 + rng.NextBounded(50));  // beyond the table
      r.size = index.Expand(r).size();
      r.signature = index.ComposeSignature(r);

      for (int32_t k = 0; k < 3; ++k) {
        // Atomize cluster k: buddies wholly inside are tokens.
        const ObjectSet& cluster = clusters[static_cast<size_t>(k)];
        AtomSet c;
        c.size = cluster.size();
        for (ObjectId o : cluster) {
          const BuddyId b = buddy_of_id[o];
          if (SortedIsSubset(buddy_members[b], cluster)) {
            c.buddy_ids.push_back(b);
          } else {
            c.objects.push_back(o);
          }
        }
        SortUnique(&c.buddy_ids);
        c.signature = index.ComposeSignature(c);

        const AtomIntersection merged =
            IntersectAtomSets(r, c, index, oracle);
        const AtomIntersection tabled =
            IntersectAtomSets(r, c, index, oracle, &labels, k);
        const ObjectSet want = SortedIntersect(index.Expand(r), cluster);
        EXPECT_EQ(merged.any_overlap, !want.empty());
        EXPECT_EQ(tabled.any_overlap, !want.empty());
        if (want.empty()) continue;
        EXPECT_EQ(index.Expand(tabled.result), want);
        EXPECT_EQ(index.Expand(tabled.remaining),
                  SortedDifference(index.Expand(r), cluster));
        ExpectSameAtoms(merged.result, tabled.result, "result");
        ExpectSameAtoms(merged.remaining, tabled.remaining, "remaining");
      }
    }
  }
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
