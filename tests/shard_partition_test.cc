// Unit tests of the sharded C-step building blocks (src/shard/): the
// stripe partitioner's ownership/halo invariants, the per-shard
// neighborhood computation, and the merge stage's byte-identity to the
// reference Dbscan(). The end-to-end serve-vs-batch differentials live in
// shard_differential_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/dbscan.h"
#include "core/snapshot.h"
#include "shard/merge.h"
#include "shard/partition.h"
#include "shard/shard_worker.h"
#include "shard/sharded_engine.h"
#include "util/random.h"

namespace tcomp {
namespace {

/// Clumpy random snapshot: a few dense blobs plus uniform background,
/// with some exact duplicate positions (the tie-break paths) mixed in.
Snapshot RandomSnapshot(uint64_t seed, size_t n, double area) {
  Pcg32 rng(seed);
  std::vector<ObjectPosition> positions;
  positions.reserve(n);
  const int blobs = 4;
  std::vector<Point> centers;
  for (int b = 0; b < blobs; ++b) {
    centers.push_back(Point{rng.NextDouble(0.0, area),
                            rng.NextDouble(0.0, area)});
  }
  for (size_t i = 0; i < n; ++i) {
    Point p;
    if (rng.NextBernoulli(0.7)) {
      const Point& c = centers[rng.NextBounded(blobs)];
      p = Point{c.x + rng.NextGaussian() * 15.0,
                c.y + rng.NextGaussian() * 15.0};
    } else {
      p = Point{rng.NextDouble(0.0, area), rng.NextDouble(0.0, area)};
    }
    if (i > 0 && rng.NextBernoulli(0.05)) p = positions[i - 1].pos;
    positions.push_back(ObjectPosition{static_cast<ObjectId>(i * 3), p});
  }
  return Snapshot(std::move(positions), 1.0);
}

bool SameClustering(const Clustering& a, const Clustering& b) {
  return a.labels == b.labels && a.core == b.core && a.clusters == b.clusters;
}

TEST(EffectiveShardCountTest, ClampsToMinOwnedPerShard) {
  EXPECT_EQ(EffectiveShardCount(1, 1000), 1);
  EXPECT_EQ(EffectiveShardCount(8, 1000), 8);
  EXPECT_EQ(EffectiveShardCount(8, 8 * kMinOwnedPerShard), 8);
  EXPECT_EQ(EffectiveShardCount(8, 8 * kMinOwnedPerShard - 1), 7);
  EXPECT_EQ(EffectiveShardCount(8, kMinOwnedPerShard - 1), 1);
  EXPECT_EQ(EffectiveShardCount(8, 0), 1);
  EXPECT_EQ(EffectiveShardCount(0, 1000), 1);
}

TEST(PartitionTest, OwnedSlicesPartitionTheIndexSpace) {
  Snapshot snapshot = RandomSnapshot(1, 700, 2000.0);
  ShardPlan plan = PartitionSnapshot(snapshot, 8, 18.0);
  ASSERT_EQ(plan.slices.size(), 8u);
  std::vector<uint32_t> all;
  int64_t halo_total = 0;
  for (const ShardSlice& slice : plan.slices) {
    EXPECT_TRUE(std::is_sorted(slice.owned.begin(), slice.owned.end()));
    EXPECT_TRUE(std::is_sorted(slice.halo.begin(), slice.halo.end()));
    EXPECT_GE(slice.owned.size(), kMinOwnedPerShard);
    all.insert(all.end(), slice.owned.begin(), slice.owned.end());
    halo_total += static_cast<int64_t>(slice.halo.size());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), snapshot.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<uint32_t>(i));
  }
  EXPECT_EQ(plan.halo_objects, halo_total);
}

TEST(PartitionTest, HaloCoversEveryCrossStripeEpsNeighbor) {
  const double eps = 18.0;
  const double eps2 = eps * eps;
  for (uint64_t seed = 2; seed < 5; ++seed) {
    Snapshot snapshot = RandomSnapshot(seed, 400, 900.0);
    for (int shards : {2, 3, 8}) {
      ShardPlan plan = PartitionSnapshot(snapshot, shards, eps);
      for (const ShardSlice& slice : plan.slices) {
        // local = owned ∪ halo must contain every ε-neighbor of every
        // owned index (brute force over the whole snapshot).
        std::vector<bool> local(snapshot.size(), false);
        for (uint32_t i : slice.owned) local[i] = true;
        for (uint32_t i : slice.halo) local[i] = true;
        for (uint32_t i : slice.owned) {
          for (size_t j = 0; j < snapshot.size(); ++j) {
            if (WithinEps(snapshot.pos(i), snapshot.pos(j), eps2)) {
              EXPECT_TRUE(local[j])
                  << "shard missing eps-neighbor " << j << " of owned "
                  << i << " (seed " << seed << ", shards " << shards << ")";
            }
          }
        }
      }
    }
  }
}

TEST(PartitionTest, ExactBoundaryPairsStayCovered) {
  // Points exactly ε apart along the split axis, placed so stripe cuts
  // land between them — the closed-ball boundary case the FP-padded halo
  // radius exists for.
  const double eps = 10.0;
  std::vector<ObjectPosition> positions;
  for (int i = 0; i < 128; ++i) {
    positions.push_back(ObjectPosition{
        static_cast<ObjectId>(i), Point{i * eps, 0.0}});
  }
  Snapshot snapshot(std::move(positions), 1.0);
  ShardPlan plan = PartitionSnapshot(snapshot, 4, eps);
  const double eps2 = eps * eps;
  for (const ShardSlice& slice : plan.slices) {
    std::vector<bool> local(snapshot.size(), false);
    for (uint32_t i : slice.owned) local[i] = true;
    for (uint32_t i : slice.halo) local[i] = true;
    for (uint32_t i : slice.owned) {
      for (size_t j = 0; j < snapshot.size(); ++j) {
        if (WithinEps(snapshot.pos(i), snapshot.pos(j), eps2)) {
          EXPECT_TRUE(local[j]);
        }
      }
    }
  }
}

TEST(PartitionTest, DeterministicAcrossCalls) {
  Snapshot snapshot = RandomSnapshot(7, 500, 1200.0);
  ShardPlan a = PartitionSnapshot(snapshot, 4, 18.0);
  ShardPlan b = PartitionSnapshot(snapshot, 4, 18.0);
  ASSERT_EQ(a.slices.size(), b.slices.size());
  for (size_t k = 0; k < a.slices.size(); ++k) {
    EXPECT_EQ(a.slices[k].owned, b.slices[k].owned);
    EXPECT_EQ(a.slices[k].halo, b.slices[k].halo);
  }
  EXPECT_EQ(a.halo_objects, b.halo_objects);
  EXPECT_EQ(a.split_by_x, b.split_by_x);
}

TEST(PartitionTest, EmptyAndTinySnapshots) {
  Snapshot empty;
  ShardPlan plan = PartitionSnapshot(empty, 8, 18.0);
  ASSERT_EQ(plan.slices.size(), 1u);
  EXPECT_TRUE(plan.slices[0].owned.empty());
  EXPECT_TRUE(plan.slices[0].halo.empty());

  Snapshot tiny = RandomSnapshot(9, 5, 100.0);
  plan = PartitionSnapshot(tiny, 8, 18.0);
  ASSERT_EQ(plan.slices.size(), 1u);  // collapses below kMinOwnedPerShard
  EXPECT_EQ(plan.slices[0].owned.size(), tiny.size());
  EXPECT_TRUE(plan.slices[0].halo.empty());
}

/// Runs every stripe of `plan` into one table, serially, with one
/// scratch slot per stripe as the engine keeps them.
std::vector<std::unique_ptr<StripeScratch>> SweepAllStripes(
    const Snapshot& snapshot, const ShardPlan& plan,
    const DbscanParams& params, internal::NeighborTableBuilder* table) {
  std::vector<std::unique_ptr<StripeScratch>> stripes;
  for (const ShardSlice& slice : plan.slices) {
    stripes.push_back(std::make_unique<StripeScratch>());
    SweepStripe(snapshot, slice, params, table, stripes.back().get());
  }
  return stripes;
}

TEST(ShardWorkerTest, NeighborListsMatchBruteForce) {
  DbscanParams params;
  params.epsilon = 18.0;
  params.mu = 3;
  const double eps2 = params.epsilon * params.epsilon;
  Snapshot snapshot = RandomSnapshot(11, 300, 800.0);
  ShardPlan plan = PartitionSnapshot(snapshot, 3, params.epsilon);
  ASSERT_GT(plan.slices.size(), 1u);
  Arena arena;
  internal::NeighborTableBuilder builder(snapshot.size(), &arena);
  std::vector<std::unique_ptr<StripeScratch>> stripes =
      SweepAllStripes(snapshot, plan, params, &builder);
  builder.Seal();
  for (const std::unique_ptr<StripeScratch>& stripe : stripes) {
    FillStripeRows(*stripe, &builder);
  }
  // Every row is filled by exactly the stripe that owns it.
  const NeighborTable table = builder.table();
  for (const ShardSlice& slice : plan.slices) {
    for (uint32_t g : slice.owned) {
      std::vector<uint32_t> want;
      for (size_t j = 0; j < snapshot.size(); ++j) {
        if (WithinEps(snapshot.pos(g), snapshot.pos(j), eps2)) {
          want.push_back(static_cast<uint32_t>(j));
        }
      }
      std::vector<uint32_t> got(table.entries + table.offsets[g],
                                table.entries + table.offsets[g + 1]);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "owned index " << g;
    }
  }
}

TEST(MergeTest, ByteIdenticalToDbscanAcrossShardCounts) {
  DbscanParams params;
  params.epsilon = 18.0;
  params.mu = 4;
  for (uint64_t seed = 21; seed < 24; ++seed) {
    Snapshot snapshot = RandomSnapshot(seed, 450, 1000.0);
    Clustering want = Dbscan(snapshot, params);
    for (int shards : {1, 2, 3, 8}) {
      ShardPlan plan = PartitionSnapshot(snapshot, shards, params.epsilon);
      Arena arena;
      internal::NeighborTableBuilder table(snapshot.size(), &arena);
      std::vector<std::unique_ptr<StripeScratch>> stripes =
          SweepAllStripes(snapshot, plan, params, &table);
      int64_t ops = 0;
      Clustering got = MergeShardResults(snapshot, plan, stripes, &table,
                                         params.mu, &ops);
      EXPECT_TRUE(SameClustering(got, want))
          << "seed " << seed << ", shards " << shards;
      EXPECT_GT(ops, 0);
    }
  }
}

TEST(ShardedEngineTest, MatchesDbscanAndIsDeterministic) {
  DbscanParams params;
  params.epsilon = 18.0;
  params.mu = 3;
  for (int shards : {1, 2, 8}) {
    ShardedClusterEngine engine(params, shards);
    EXPECT_EQ(engine.num_shards(), shards);
    int64_t ops_first = 0, ops_second = 0;
    for (uint64_t seed = 31; seed < 34; ++seed) {
      Snapshot snapshot = RandomSnapshot(seed, 400, 1100.0);
      Clustering want = Dbscan(snapshot, params);
      Clustering got = engine.Cluster(snapshot, &ops_first);
      EXPECT_TRUE(SameClustering(got, want))
          << "seed " << seed << ", shards " << shards;
      // Same snapshot again: identical products AND identical op count
      // (determinism of the sharded path at a fixed shard count).
      Clustering again = engine.Cluster(snapshot, &ops_second);
      EXPECT_TRUE(SameClustering(again, want));
    }
    EXPECT_EQ(ops_first, ops_second);
    ShardEngineStats stats = engine.stats();
    EXPECT_EQ(stats.snapshots, 6);
    EXPECT_GT(stats.routed_objects, 0);
    if (shards > 1) {
      EXPECT_GT(stats.halo_objects, 0);
      EXPECT_GE(stats.halo_peak, 1);
    } else {
      EXPECT_EQ(stats.halo_objects, 0);
    }
    EXPECT_EQ(stats.merge_fanin_last, shards);
  }
}

TEST(ShardedEngineTest, ExportMetricsHasStableNameSetPerShardCount) {
  DbscanParams params;
  params.epsilon = 18.0;
  params.mu = 3;
  ShardedClusterEngine engine(params, 4);
  MetricsRegistry registry;
  engine.ExportMetrics(&registry);
  std::string before = registry.ExpositionText();
  Snapshot snapshot = RandomSnapshot(41, 300, 900.0);
  engine.Cluster(snapshot, nullptr);
  engine.ExportMetrics(&registry);
  std::string after = registry.ExpositionText();
  // Same series set before and after traffic (values may differ): the
  // QUERY metrics name-set stability check in cli_smoke.sh depends on it.
  auto names_of = [](const std::string& text) {
    std::vector<std::string> names;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t end = text.find('\n', pos);
      if (end == std::string::npos) end = text.size();
      std::string line = text.substr(pos, end - pos);
      size_t space = line.rfind(' ');
      if (!line.empty() && line[0] != '#' && space != std::string::npos) {
        names.push_back(line.substr(0, space));
      }
      pos = end + 1;
    }
    return names;
  };
  EXPECT_EQ(names_of(before), names_of(after));
  EXPECT_NE(after.find("\ntcomp_shards 4\n"), std::string::npos);
  EXPECT_NE(after.find("\ntcomp_shard_merge_fanin "), std::string::npos);
}

}  // namespace
}  // namespace tcomp
