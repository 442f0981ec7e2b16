#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include "core/buddy_discovery.h"
#include "core/dbscan.h"
#include "core/smart_closed.h"
#include "data/group_model.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace tcomp {
namespace {

// ---------------------------------------------------------------------------
// Thread-pool mechanics.

TEST(ThreadPoolTest, EveryShardRunsExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  for (int num_shards = 1; num_shards <= 4; ++num_shards) {
    std::vector<std::atomic<int>> hits(num_shards);
    for (auto& h : hits) h = 0;
    pool.RunShards(num_shards, [&](int shard, int total) {
      EXPECT_EQ(total, num_shards);
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, num_shards);
      ++hits[shard];
    });
    for (int s = 0; s < num_shards; ++s) EXPECT_EQ(hits[s], 1) << s;
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyRegions) {
  ThreadPool pool(2);
  int64_t sum = 0;
  std::mutex mu;
  for (int round = 0; round < 100; ++round) {
    pool.RunShards(3, [&](int shard, int) {
      std::lock_guard<std::mutex> lock(mu);
      sum += shard;
    });
  }
  EXPECT_EQ(sum, 100 * (0 + 1 + 2));
}

TEST(ThreadPoolTest, ParallelForShardsInlineWhenSingleThreaded) {
  // threads <= 1 must run on the calling thread (the pool is bypassed).
  std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelForShards(1, [&](int shard, int total) {
    EXPECT_EQ(shard, 0);
    EXPECT_EQ(total, 1);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Differential: striped clustering ≡ the reference, bit for bit.

void ExpectSameClustering(const Clustering& a, const Clustering& b,
                          const char* what) {
  EXPECT_EQ(a.labels, b.labels) << what;
  EXPECT_EQ(a.core, b.core) << what;
  EXPECT_EQ(a.clusters, b.clusters) << what;
}

class ParallelDbscanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDbscanTest, GridStillMatchesReferenceWhenParallel) {
  // 400 points: enough for 8 stripes of kMinPointsPerStripe.
  Pcg32 rng(GetParam() + 41);
  Snapshot snap =
      testing_util::ClusteredSnapshot(8, 40, 80, 1200.0, 5.0, rng);
  const DbscanParams reference_params{/*epsilon=*/14.0, /*mu=*/4};
  const Clustering reference = Dbscan(snap, reference_params);
  int64_t serial_ops = 0;
  DbscanGrid(snap, reference_params, &serial_ops);
  for (int stripes : {2, 4, 8}) {
    DbscanParams params = reference_params;
    params.threads = stripes;
    int64_t ops = 0;
    ExpectSameClustering(DbscanGrid(snap, params, &ops), reference,
                         "DbscanGrid vs Dbscan");
    EXPECT_EQ(ops, serial_ops) << "stripes=" << stripes;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDbscanTest,
                         ::testing::Values(501, 502, 503));

// ---------------------------------------------------------------------------
// Differential: full discovery runs with threads=4 ≡ threads=1 (the ε
// sweeps' stripe count) — identical companion logs (objects, duration,
// snapshot index, order) and identical cost counters.

GroupDataset ChurnyStream(uint64_t seed) {
  GroupModelOptions options;
  options.num_objects = 90;
  options.num_snapshots = 32;
  options.area_size = 1600.0;
  options.min_group_size = 6;
  options.max_group_size = 12;
  options.split_probability = 0.015;
  options.leave_probability = 0.008;
  options.seed = seed;
  return GenerateGroupStream(options);
}

DiscoveryParams BaseParams(int threads) {
  DiscoveryParams params;
  params.cluster.epsilon = 18.0;
  params.cluster.mu = 3;
  params.cluster.threads = threads;
  params.size_threshold = 5;
  params.duration_threshold = 7;
  return params;
}

void ExpectSameRun(const CompanionDiscoverer& serial,
                   const CompanionDiscoverer& parallel) {
  const std::vector<Companion>& a = serial.log().companions();
  const std::vector<Companion>& b = parallel.log().companions();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty()) << "test wants companions";
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objects, b[i].objects) << "companion " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "companion " << i;
    EXPECT_EQ(a[i].snapshot_index, b[i].snapshot_index) << "companion " << i;
  }

  const DiscoveryStats& s = serial.stats();
  const DiscoveryStats& p = parallel.stats();
  EXPECT_EQ(s.snapshots, p.snapshots);
  EXPECT_EQ(s.intersections, p.intersections);
  EXPECT_EQ(s.distance_ops, p.distance_ops);
  EXPECT_EQ(s.candidate_objects_peak, p.candidate_objects_peak);
  EXPECT_EQ(s.candidate_objects_last, p.candidate_objects_last);
  EXPECT_EQ(s.companions_reported, p.companions_reported);
  EXPECT_EQ(s.buddy_pairs_checked, p.buddy_pairs_checked);
  EXPECT_EQ(s.buddy_pairs_pruned, p.buddy_pairs_pruned);
  EXPECT_EQ(s.buddies_total, p.buddies_total);
  EXPECT_EQ(s.buddies_unchanged, p.buddies_unchanged);
  EXPECT_EQ(s.buddy_member_sum, p.buddy_member_sum);
  // The stripe count may never move the C-step's counters either.
  EXPECT_EQ(s.cluster_reuse, p.cluster_reuse);
  EXPECT_EQ(s.cluster_dirty, p.cluster_dirty);
  EXPECT_EQ(s.cluster_full_rebuilds, p.cluster_full_rebuilds);
}

class ParallelDiscoveryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDiscoveryTest, BuddyDiscoveryIdenticalAcrossThreadCounts) {
  GroupDataset data = ChurnyStream(GetParam());
  BuddyDiscoverer serial(BaseParams(1));
  BuddyDiscoverer parallel(BaseParams(4));
  // The per-event report sequence (pre-dedup) must match too, not just the
  // deduplicated log.
  std::vector<std::pair<ObjectSet, int64_t>> serial_events, parallel_events;
  serial.set_report_sink([&](const ObjectSet& o, double, int64_t idx) {
    serial_events.emplace_back(o, idx);
  });
  parallel.set_report_sink([&](const ObjectSet& o, double, int64_t idx) {
    parallel_events.emplace_back(o, idx);
  });
  for (const Snapshot& s : data.stream) {
    serial.ProcessSnapshot(s, nullptr);
    parallel.ProcessSnapshot(s, nullptr);
  }
  ExpectSameRun(serial, parallel);
  EXPECT_EQ(serial_events, parallel_events);
}

TEST_P(ParallelDiscoveryTest, SmartClosedIdenticalAcrossThreadCounts) {
  GroupDataset data = ChurnyStream(GetParam() + 7);
  SmartClosedDiscoverer serial(BaseParams(1));
  SmartClosedDiscoverer parallel(BaseParams(4));
  for (const Snapshot& s : data.stream) {
    serial.ProcessSnapshot(s, nullptr);
    parallel.ProcessSnapshot(s, nullptr);
  }
  ExpectSameRun(serial, parallel);
}

TEST_P(ParallelDiscoveryTest, ParallelBuddyStillEqualsSmartClosed) {
  // The cross-algorithm equivalence (SC ≡ BU) must survive threading.
  GroupDataset data = ChurnyStream(GetParam() + 13);
  SmartClosedDiscoverer sc(BaseParams(4));
  BuddyDiscoverer bu(BaseParams(4));
  for (const Snapshot& s : data.stream) {
    sc.ProcessSnapshot(s, nullptr);
    bu.ProcessSnapshot(s, nullptr);
  }
  std::set<ObjectSet> sc_sets, bu_sets;
  for (const Companion& c : sc.log().companions()) sc_sets.insert(c.objects);
  for (const Companion& c : bu.log().companions()) bu_sets.insert(c.objects);
  EXPECT_FALSE(sc_sets.empty());
  EXPECT_EQ(sc_sets, bu_sets);
}

TEST_P(ParallelDiscoveryTest, CoherentStreamIdenticalAcrossThreads) {
  // A slow, coherent stream across stripe counts: the whole run
  // (products, distance_ops, the C-step counters) must be
  // stripe-count-invariant.
  GroupModelOptions options;
  options.num_objects = 120;
  options.num_snapshots = 40;
  options.area_size = 1800.0;
  options.min_group_size = 6;
  options.max_group_size = 12;
  options.group_speed = 1.0;  // well under ε/2 per snapshot
  options.free_speed = 1.5;
  options.member_jitter = 0.8;
  options.seed = GetParam() + 19;
  GroupDataset data = GenerateGroupStream(options);

  SmartClosedDiscoverer serial(BaseParams(1));
  SmartClosedDiscoverer parallel(BaseParams(8));
  for (const Snapshot& s : data.stream) {
    serial.ProcessSnapshot(s, nullptr);
    parallel.ProcessSnapshot(s, nullptr);
  }
  ExpectSameRun(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDiscoveryTest,
                         ::testing::Values(601, 602, 603, 604));

}  // namespace
}  // namespace tcomp
