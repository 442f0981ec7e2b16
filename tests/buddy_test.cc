#include "core/buddy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "tests/test_util.h"
#include "util/random.h"

namespace tcomp {
namespace {

using testing_util::ClusteredSnapshot;
using testing_util::MakeSnapshot;
using testing_util::RandomSnapshot;

/// Every object in exactly one buddy; centers and radii consistent with
/// member coordinates (center = mean; radius ≥ exact max distance is
/// allowed right after merges, but never smaller).
void CheckInvariants(const BuddySet& buddies, const Snapshot& snapshot) {
  std::map<ObjectId, int> seen;
  for (const Buddy& b : buddies.buddies()) {
    ASSERT_FALSE(b.members.empty());
    Point sum{};
    for (ObjectId o : b.members) {
      ++seen[o];
      size_t idx = snapshot.IndexOf(o);
      ASSERT_NE(idx, Snapshot::kNpos);
      sum = sum + snapshot.pos(idx);
    }
    Point center = b.center();
    EXPECT_NEAR(center.x, sum.x / b.members.size(), 1e-6);
    EXPECT_NEAR(center.y, sum.y / b.members.size(), 1e-6);
    for (ObjectId o : b.members) {
      double d = Distance(snapshot.pos(snapshot.IndexOf(o)), center);
      EXPECT_LE(d, b.radius + 1e-6)
          << "member " << o << " outside stored radius";
    }
  }
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(seen[snapshot.id(i)], 1)
        << "object " << snapshot.id(i) << " not in exactly one buddy";
  }
}

/// CheckInvariants plus the merge fixpoint Update must reach: no two
/// buddies left that satisfy Algorithm 3's d + γi + γj ≤ 2δγ.
void CheckInvariantsAfterUpdate(const BuddySet& buddies,
                                const Snapshot& snapshot) {
  CheckInvariants(buddies, snapshot);
  const std::vector<Buddy>& list = buddies.buddies();
  const double reach = 2.0 * buddies.radius_threshold();
  for (size_t a = 0; a < list.size(); ++a) {
    for (size_t b = a + 1; b < list.size(); ++b) {
      EXPECT_GT(Distance(list[a].center(), list[b].center()) +
                    list[a].radius + list[b].radius,
                reach)
          << "buddies " << list[a].id << " and " << list[b].id
          << " are still mergeable";
    }
  }
}

/// Section IV-A's greedy written out over all-pairs candidates: seeds in
/// index order, every unassigned object a candidate, nearest first (ties
/// by index), growth stopping at the first candidate that would put a
/// member beyond δγ. BuddySet::Initialize takes its candidates from a
/// 2δγ sweep instead and must build exactly these buddies.
std::vector<Buddy> GreedyOracle(const Snapshot& s, double delta) {
  const uint32_t n = static_cast<uint32_t>(s.size());
  std::vector<bool> assigned(n, false);
  std::vector<Buddy> out;
  for (uint32_t i = 0; i < n; ++i) {
    if (assigned[i]) continue;
    assigned[i] = true;
    Buddy b;
    b.id = static_cast<BuddyId>(out.size());
    b.members = {s.id(i)};
    b.coord_sum = s.pos(i);
    std::vector<uint32_t> candidates;
    for (uint32_t j = 0; j < n; ++j) {
      if (!assigned[j]) candidates.push_back(j);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](uint32_t a, uint32_t c) {
                const double da = SquaredDistance(s.pos(a), s.pos(i));
                const double dc = SquaredDistance(s.pos(c), s.pos(i));
                return da != dc ? da < dc : a < c;
              });
    std::vector<uint32_t> in = {i};
    for (uint32_t j : candidates) {
      const Point sum = b.coord_sum + s.pos(j);
      const Point center = sum / static_cast<double>(in.size() + 1);
      double radius = Distance(s.pos(j), center);
      for (uint32_t m : in) {
        radius = std::max(radius, Distance(s.pos(m), center));
      }
      if (radius > delta) break;
      assigned[j] = true;
      in.push_back(j);
      b.coord_sum = sum;
      b.members.push_back(s.id(j));
      b.radius = radius;
    }
    std::sort(b.members.begin(), b.members.end());
    out.push_back(std::move(b));
  }
  return out;
}

void ExpectInitializeMatchesOracle(const Snapshot& s, double delta,
                                   const std::string& what) {
  BuddySet buddies(delta);
  buddies.Initialize(s);
  const std::vector<Buddy> want = GreedyOracle(s, delta);
  const std::vector<Buddy>& got = buddies.buddies();
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].id, want[k].id) << what << " buddy " << k;
    EXPECT_EQ(got[k].members, want[k].members) << what << " buddy " << k;
    EXPECT_EQ(got[k].radius, want[k].radius) << what << " buddy " << k;
    EXPECT_EQ(got[k].coord_sum.x, want[k].coord_sum.x)
        << what << " buddy " << k;
    EXPECT_EQ(got[k].coord_sum.y, want[k].coord_sum.y)
        << what << " buddy " << k;
  }
}

Snapshot Shifted(const Snapshot& s, double offset) {
  std::vector<ObjectPosition> positions;
  for (size_t i = 0; i < s.size(); ++i) {
    positions.push_back(ObjectPosition{
        s.id(i), Point{s.pos(i).x + offset, s.pos(i).y + offset}});
  }
  return Snapshot(std::move(positions), s.duration());
}

TEST(BuddySetTest, InitializeMatchesAllPairsGreedy) {
  std::vector<std::pair<std::string, Snapshot>> inputs;
  for (uint64_t seed = 31; seed < 35; ++seed) {
    Pcg32 rng(seed);
    inputs.emplace_back("random " + std::to_string(seed),
                        RandomSnapshot(160, 25.0, rng));
    inputs.emplace_back("clustered " + std::to_string(seed),
                        ClusteredSnapshot(6, 15, 20, 60.0, 0.8, rng));
  }
  // Collocated objects: every candidate distance ties, so the index
  // tie-break alone orders them.
  std::vector<std::tuple<ObjectId, double, double>> stacked;
  for (ObjectId id = 0; id < 30; ++id) {
    stacked.emplace_back(id, 3.0 * (id % 3), 0.0);
  }
  inputs.emplace_back("collocated", MakeSnapshot(stacked));
  // A lattice of pitch exactly 2δγ (δγ = 0.5): every neighbor pair sits
  // on the sweep radius, and its midpoint exactly δγ from both.
  std::vector<std::tuple<ObjectId, double, double>> lattice;
  for (ObjectId id = 0; id < 64; ++id) {
    lattice.emplace_back(id, static_cast<double>(id % 8),
                         static_cast<double>(id / 8));
  }
  inputs.emplace_back("lattice", MakeSnapshot(lattice));

  for (const auto& [name, s] : inputs) {
    ExpectInitializeMatchesOracle(s, 0.5, name);
    ExpectInitializeMatchesOracle(s, 1.5, name);
    for (double offset : {1e12, -1e12}) {
      const std::string shifted = name + " offset " + std::to_string(offset);
      ExpectInitializeMatchesOracle(Shifted(s, offset), 0.5, shifted);
      ExpectInitializeMatchesOracle(Shifted(s, offset), 1.5, shifted);
    }
  }
}

TEST(BuddySetTest, InitializeCoversAllObjects) {
  Pcg32 rng(3);
  Snapshot s = ClusteredSnapshot(5, 10, 10, 100.0, 1.0, rng);
  BuddySet buddies(2.0);
  buddies.Initialize(s);
  CheckInvariants(buddies, s);
}

TEST(BuddySetTest, InitializeRespectsRadiusThreshold) {
  Pcg32 rng(4);
  Snapshot s = RandomSnapshot(100, 50.0, rng);
  BuddySet buddies(1.5);
  buddies.Initialize(s);
  for (const Buddy& b : buddies.buddies()) {
    EXPECT_LE(b.radius, 1.5 + 1e-9);
  }
}

TEST(BuddySetTest, TightPairBecomesOneBuddy) {
  Snapshot s = MakeSnapshot({{0, 0.0, 0.0}, {1, 0.5, 0.0}});
  BuddySet buddies(1.0);
  buddies.Initialize(s);
  ASSERT_EQ(buddies.buddies().size(), 1u);
  EXPECT_EQ(buddies.buddies()[0].members, (ObjectSet{0, 1}));
  EXPECT_NEAR(buddies.buddies()[0].radius, 0.25, 1e-9);
}

TEST(BuddySetTest, DistantObjectsStaySingletons) {
  Snapshot s = MakeSnapshot({{0, 0.0, 0.0}, {1, 10.0, 0.0}});
  BuddySet buddies(1.0);
  buddies.Initialize(s);
  EXPECT_EQ(buddies.buddies().size(), 2u);
}

TEST(BuddySetTest, SplitWhenMemberDrifts) {
  Snapshot s1 = MakeSnapshot({{0, 0.0, 0.0}, {1, 0.5, 0.0}, {2, 1.0, 0.0}});
  BuddySet buddies(1.0);
  buddies.Initialize(s1);
  ASSERT_EQ(buddies.buddies().size(), 1u);
  BuddyId original = buddies.buddies()[0].id;

  // Object 2 drifts far away. The drift drags the stale center with it,
  // so objects 0 and 1 split out first (in id order) and re-merge in the
  // merge phase — two split operations total, ending with buddies
  // {0,1} and {2}.
  Snapshot s2 = MakeSnapshot({{0, 0.0, 0.0}, {1, 0.5, 0.0}, {2, 8.0, 0.0}});
  BuddyMaintenanceStats stats;
  buddies.Update(s2, &stats);
  CheckInvariantsAfterUpdate(buddies, s2);
  EXPECT_EQ(stats.splits, 2);
  ASSERT_EQ(buddies.buddies().size(), 2u);
  // The original id retired (its membership changed).
  for (const Buddy& b : buddies.buddies()) {
    EXPECT_NE(b.id, original);
  }
  EXPECT_EQ(buddies.retired_ids(), (std::vector<BuddyId>{original}));
}

TEST(BuddySetTest, MergeWhenBuddiesApproach) {
  Snapshot s1 = MakeSnapshot({{0, 0.0, 0.0}, {1, 10.0, 0.0}});
  BuddySet buddies(1.0);
  buddies.Initialize(s1);
  ASSERT_EQ(buddies.buddies().size(), 2u);

  Snapshot s2 = MakeSnapshot({{0, 0.0, 0.0}, {1, 0.8, 0.0}});
  BuddyMaintenanceStats stats;
  buddies.Update(s2, &stats);
  EXPECT_EQ(stats.merges, 1);
  ASSERT_EQ(buddies.buddies().size(), 1u);
  EXPECT_EQ(buddies.buddies()[0].members, (ObjectSet{0, 1}));
  EXPECT_EQ(buddies.retired_ids().size(), 2u);
}

TEST(BuddySetTest, UnchangedBuddyKeepsId) {
  Snapshot s1 = MakeSnapshot({{0, 0.0, 0.0}, {1, 0.5, 0.0}});
  BuddySet buddies(1.0);
  buddies.Initialize(s1);
  BuddyId id = buddies.buddies()[0].id;

  // The pair moves together: same membership, same id.
  Snapshot s2 = MakeSnapshot({{0, 5.0, 5.0}, {1, 5.5, 5.0}});
  BuddyMaintenanceStats stats;
  buddies.Update(s2, &stats);
  ASSERT_EQ(buddies.buddies().size(), 1u);
  EXPECT_EQ(buddies.buddies()[0].id, id);
  EXPECT_EQ(stats.unchanged, 1);
  EXPECT_TRUE(buddies.retired_ids().empty());
  Point c = buddies.buddies()[0].center();
  EXPECT_NEAR(c.x, 5.25, 1e-9);
  EXPECT_NEAR(c.y, 5.0, 1e-9);
}

TEST(BuddySetTest, NewObjectBecomesSingleton) {
  Snapshot s1 = MakeSnapshot({{0, 0.0, 0.0}});
  BuddySet buddies(1.0);
  buddies.Initialize(s1);
  Snapshot s2 = MakeSnapshot({{0, 0.0, 0.0}, {5, 30.0, 30.0}});
  buddies.Update(s2, nullptr);
  CheckInvariantsAfterUpdate(buddies, s2);
  EXPECT_NE(buddies.FindBuddyOfObject(5), nullptr);
}

TEST(BuddySetTest, FindBuddyLookups) {
  Snapshot s = MakeSnapshot({{0, 0.0, 0.0}, {1, 0.5, 0.0}, {7, 9.0, 9.0}});
  BuddySet buddies(1.0);
  buddies.Initialize(s);
  const Buddy* b0 = buddies.FindBuddyOfObject(0);
  ASSERT_NE(b0, nullptr);
  EXPECT_EQ(b0, buddies.FindBuddyOfObject(1));
  EXPECT_EQ(buddies.FindBuddyOfObject(42), nullptr);
  EXPECT_EQ(buddies.FindBuddyById(b0->id), b0);
  EXPECT_EQ(buddies.FindBuddyById(9999), nullptr);
}

TEST(BuddySetTest, MergeBoundIsConservative) {
  // After a merge the stored radius may overestimate but never
  // underestimate the true radius (the lemmas depend on it).
  Snapshot s1 = MakeSnapshot(
      {{0, 0.0, 0.0}, {1, 0.4, 0.0}, {2, 3.0, 0.0}, {3, 3.4, 0.0}});
  BuddySet buddies(1.0);
  buddies.Initialize(s1);
  ASSERT_EQ(buddies.buddies().size(), 2u);
  Snapshot s2 = MakeSnapshot(
      {{0, 0.0, 0.0}, {1, 0.4, 0.0}, {2, 1.2, 0.0}, {3, 1.6, 0.0}});
  buddies.Update(s2, nullptr);
  ASSERT_EQ(buddies.buddies().size(), 1u);
  const Buddy& merged = buddies.buddies()[0];
  double true_radius = 0.0;
  for (ObjectId o : merged.members) {
    true_radius = std::max(
        true_radius, Distance(s2.pos(s2.IndexOf(o)), merged.center()));
  }
  EXPECT_GE(merged.radius + 1e-9, true_radius);
}

/// Long-run property sweep: invariants hold while a clustered population
/// drifts randomly across many snapshots.
class BuddyMaintenanceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuddyMaintenanceSweep, InvariantsHoldOverTime) {
  Pcg32 rng(GetParam());
  const int n = 80;
  std::vector<Point> pos(n);
  for (int i = 0; i < n; ++i) {
    // Four loose herds.
    Point base{(i % 4) * 20.0, (i / 4 % 4) * 20.0};
    pos[i] = Point{base.x + rng.NextDouble(-3, 3),
                   base.y + rng.NextDouble(-3, 3)};
  }
  auto snap = [&]() {
    std::vector<ObjectPosition> p;
    for (int i = 0; i < n; ++i) {
      p.push_back(ObjectPosition{static_cast<ObjectId>(i), pos[i]});
    }
    return Snapshot(std::move(p), 1.0);
  };

  BuddySet buddies(2.0);
  Snapshot s = snap();
  buddies.Initialize(s);
  CheckInvariants(buddies, s);
  BuddyMaintenanceStats stats;
  for (int t = 0; t < 30; ++t) {
    for (int i = 0; i < n; ++i) {
      pos[i].x += rng.NextDouble(-1.0, 1.0);
      pos[i].y += rng.NextDouble(-1.0, 1.0);
    }
    s = snap();
    buddies.Update(s, &stats);
    CheckInvariantsAfterUpdate(buddies, s);
  }
  EXPECT_GT(stats.total, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyMaintenanceSweep,
                         ::testing::Values(21, 22, 23, 24));

}  // namespace
}  // namespace tcomp
