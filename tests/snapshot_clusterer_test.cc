/// Differential proof that clustering a stream snapshot by snapshot is
/// exact: DbscanGrid, and one SnapshotClusterer fed the whole stream on
/// its reused scratch, must produce byte-identical clusterings to the
/// reference per-snapshot Dbscan on every stream we can throw at them —
/// smooth motion, dropout/reappearance, whole-cluster teleports, stale
/// (out-of-order) position reverts and exact-ε pairs. Whatever one
/// snapshot leaves in the scratch must not reach the next. CI, SC, and the
/// convoy baseline built on it must match the same runs with the
/// reference Dbscan injected as their cluster provider, across stripe
/// counts and id densities. Also pins the shared eps-boundary convention
/// (flat, grid, and per-stream backends must agree on pairs at exactly ε,
/// including pairs straddling grid cell borders at large coordinates).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/convoy.h"
#include "core/dbscan.h"
#include "core/discoverer.h"
#include "core/snapshot.h"
#include "data/group_model.h"
#include "tests/test_util.h"

namespace tcomp {
namespace {

using testing_util::MakeSnapshot;
using testing_util::NormalizedState;
using testing_util::ReferenceDbscanProvider;
using testing_util::SparsifyIds;

/// Fast, churny stream (same shape as kernel_differential_test).
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

/// Low-speed variant: per-snapshot movement stays well under ε/2 = 9, so
/// consecutive snapshots are nearly the same point set.
GroupDataset CoherentStream(uint64_t seed) {
  GroupModelOptions options;
  options.num_objects = 120;
  options.num_snapshots = 40;
  options.area_size = 1800.0;
  options.min_group_size = 6;
  options.max_group_size = 12;
  options.group_speed = 1.0;
  options.free_speed = 1.5;
  options.member_jitter = 0.8;
  options.seed = seed;
  return GenerateGroupStream(options);
}

/// Coherent stream where objects blink out for a window of snapshots and
/// come back — having kept moving while dark. Deterministic per (id, t)
/// so the stream is reproducible.
SnapshotStream DropoutStream(uint64_t seed) {
  GroupDataset data = CoherentStream(seed);
  SnapshotStream stream;
  for (size_t t = 0; t < data.stream.size(); ++t) {
    const Snapshot& s = data.stream[t];
    std::vector<ObjectPosition> kept;
    for (size_t i = 0; i < s.size(); ++i) {
      uint64_t h = (static_cast<uint64_t>(s.id(i)) * 2654435761u +
                    static_cast<uint64_t>(t) * 40503u) %
                   11;
      if (t >= 8 && t < 14 && h < 3) continue;  // dark window
      kept.push_back(ObjectPosition{s.id(i), s.pos(i)});
    }
    stream.push_back(Snapshot(std::move(kept), s.duration()));
  }
  return stream;
}

/// Coherent stream where at t=12 a third of the population teleports far
/// away (GPS re-fix, ferry hop) and at t=20 *everything* shifts.
SnapshotStream TeleportStream(uint64_t seed) {
  GroupDataset data = CoherentStream(seed);
  SnapshotStream stream;
  for (size_t t = 0; t < data.stream.size(); ++t) {
    const Snapshot& s = data.stream[t];
    std::vector<ObjectPosition> moved;
    for (size_t i = 0; i < s.size(); ++i) {
      Point p = s.pos(i);
      if (t >= 12 && s.id(i) % 3 == 0) {
        p.x += 5e6;
        p.y += 5e6;
      }
      if (t >= 20) {
        p.x -= 3e6;
        p.y += 2e6;
      }
      moved.push_back(ObjectPosition{s.id(i), p});
    }
    stream.push_back(Snapshot(std::move(moved), s.duration()));
  }
  return stream;
}

/// "Plus" shapes with every arm at *exactly* ε = 18 from the centre, on
/// grid cell borders and at a large magnitude (6·2⁴⁰ has ulp 2⁻¹⁰, so
/// every coordinate below is exact). On odd snapshots one arm moves out
/// to ε + 1/16, a move far smaller than ε, and only the exact compare
/// decides membership.
SnapshotStream ExactEpsStream() {
  const double eps = 18.0;
  const double bases[] = {0.0, 5 * eps, 1048576.0,
                          6.0 * 1099511627776.0 /* 2^40 */};
  SnapshotStream stream;
  for (int t = 0; t < 16; ++t) {
    const double gap = (t % 2 == 0) ? eps : eps + 0.0625;
    std::vector<ObjectPosition> pos;
    ObjectId next = 0;
    for (double b : bases) {
      pos.push_back(ObjectPosition{next++, Point{b, b}});
      pos.push_back(ObjectPosition{next++, Point{b + eps, b}});
      pos.push_back(ObjectPosition{next++, Point{b - eps, b}});
      pos.push_back(ObjectPosition{next++, Point{b, b + eps}});
      pos.push_back(ObjectPosition{next++, Point{b, b - gap}});
    }
    stream.push_back(Snapshot(std::move(pos), 1.0));
  }
  return stream;
}

DbscanParams ClusterParams() {
  DbscanParams params;
  params.epsilon = 18.0;
  params.mu = 3;
  return params;
}

DiscoveryParams BaseParams() {
  DiscoveryParams params;
  params.cluster = ClusterParams();
  params.size_threshold = 5;
  params.duration_threshold = 7;
  return params;
}

void ExpectSameClustering(const Clustering& want, const Clustering& got,
                          size_t t) {
  EXPECT_EQ(want.labels, got.labels) << "labels diverge at snapshot " << t;
  EXPECT_EQ(want.core, got.core) << "core flags diverge at snapshot " << t;
  ASSERT_EQ(want.clusters.size(), got.clusters.size())
      << "cluster count diverges at snapshot " << t;
  for (size_t k = 0; k < want.clusters.size(); ++k) {
    EXPECT_EQ(want.clusters[k], got.clusters[k])
        << "cluster " << k << " diverges at snapshot " << t;
  }
}

/// Feeds `stream` through DbscanGrid and through one SnapshotClusterer
/// for the whole stream, and asserts every snapshot's clustering is
/// identical to the reference Dbscan's. The clusterer's distance_ops
/// must equal DbscanGrid's snapshot by snapshot: a count that depended
/// on earlier snapshots would mean state leaked through the scratch.
void ExpectStreamMatchesDbscan(const SnapshotStream& stream,
                               const DbscanParams& params) {
  SnapshotClusterer clusterer(params);
  for (size_t t = 0; t < stream.size(); ++t) {
    int64_t stream_ops = 0;
    int64_t grid_ops = 0;
    const Clustering want = Dbscan(stream[t], params);
    ExpectSameClustering(want, clusterer.Cluster(stream[t], &stream_ops), t);
    ExpectSameClustering(want, DbscanGrid(stream[t], params, &grid_ops), t);
    EXPECT_EQ(stream_ops, grid_ops) << "snapshot " << t;
  }
}

// ---------------------------------------------------------------------------
// Clusterer-level differential coverage.

class IncrementalClusterTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalClusterTest, MatchesFullDbscanOnChurnyStream) {
  ExpectStreamMatchesDbscan(ChurnyStream(GetParam()).stream,
                            ClusterParams());
}

TEST_P(IncrementalClusterTest, MatchesFullDbscanOnCoherentStream) {
  ExpectStreamMatchesDbscan(CoherentStream(GetParam()).stream,
                            ClusterParams());
}

TEST_P(IncrementalClusterTest, DropoutAndReappearance) {
  ExpectStreamMatchesDbscan(DropoutStream(GetParam()), ClusterParams());
}

TEST_P(IncrementalClusterTest, WholeClusterTeleport) {
  ExpectStreamMatchesDbscan(TeleportStream(GetParam()), ClusterParams());
}

TEST_P(IncrementalClusterTest, StalePositionReverts) {
  GroupDataset data = CoherentStream(GetParam());
  // Out-of-order arrival as seen below the sliding window: a subset of
  // objects report stale positions on odd snapshots (the previous
  // snapshot's fix), so their tracks jump back and forth instead of
  // progressing monotonically.
  SnapshotStream stream;
  stream.push_back(data.stream[0]);
  for (size_t t = 1; t < data.stream.size(); ++t) {
    const Snapshot& s = data.stream[t];
    const Snapshot& prev = data.stream[t - 1];
    std::vector<ObjectPosition> pos;
    for (size_t i = 0; i < s.size(); ++i) {
      Point p = s.pos(i);
      if (t % 2 == 1 && s.id(i) % 4 == 0) {
        size_t back = prev.IndexOf(s.id(i));
        if (back != Snapshot::kNpos) p = prev.pos(back);
      }
      pos.push_back(ObjectPosition{s.id(i), p});
    }
    stream.push_back(Snapshot(std::move(pos), s.duration()));
  }
  ExpectStreamMatchesDbscan(stream, ClusterParams());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalClusterTest,
                         ::testing::Values(701, 702, 703));

// ---------------------------------------------------------------------------
// Eps-boundary agreement (the shared WithinEps convention, satellite 1).

/// Builds a snapshot of triples A=(b,b), B=(b+ε,b), C=(b,b+ε) for each
/// base b: A–B and A–C are at *exactly* ε (the bases are chosen so b+ε is
/// exactly representable), B–C is at ε·√2. With mu=2 each triple must
/// come out as one all-core cluster — iff both exact-ε pairs count as
/// neighbors, the closed-ball convention every backend now shares.
Snapshot ExactEpsTriples(const std::vector<double>& bases, double eps) {
  std::vector<ObjectPosition> positions;
  ObjectId next = 0;
  for (double base : bases) {
    positions.push_back(ObjectPosition{next++, Point{base, base}});
    positions.push_back(ObjectPosition{next++, Point{base + eps, base}});
    positions.push_back(ObjectPosition{next++, Point{base, base + eps}});
  }
  return Snapshot(std::move(positions), 1.0);
}

void ExpectTriplesAgreeAcrossBackends(const std::vector<double>& bases) {
  const double eps = 18.0;
  DbscanParams params;
  params.epsilon = eps;
  params.mu = 2;  // a single exact-ε pair is already core+core
  Snapshot snapshot = ExactEpsTriples(bases, eps);

  Clustering flat = Dbscan(snapshot, params);
  Clustering grid = DbscanGrid(snapshot, params);
  ExpectSameClustering(flat, grid, 0);

  SnapshotClusterer clusterer(params);
  ExpectSameClustering(flat, clusterer.Cluster(snapshot, nullptr), 0);

  // Every triple is exactly one cluster: both exact-ε pairs are
  // neighbors, and triples never bleed into each other.
  ASSERT_EQ(flat.clusters.size(), bases.size());
  for (const ObjectSet& c : flat.clusters) EXPECT_EQ(c.size(), 3u);
  for (size_t i = 0; i < flat.core.size(); ++i) {
    EXPECT_TRUE(flat.core[i]) << "object " << i << " must be core";
  }
}

TEST(EpsBoundaryTest, ExactEpsOnCellBordersAgreesAcrossBackends) {
  // Bases are multiples of ε, so the pair coordinates sit exactly on grid
  // cell borders. Triples are spaced far apart so they cannot merge.
  ExpectTriplesAgreeAcrossBackends({0.0, 5 * 18.0, 1048576.0});
}

TEST(EpsBoundaryTest, ExactEpsAtLargeMagnitudesAgreesAcrossBackends) {
  // Large-coordinate regime, where a naive floor(x/eps) bucketing once
  // risked splitting an exact-ε pair two cells apart. 6·2⁴⁰ has ulp 2⁻¹⁰
  // and 9·2⁴⁹ has ulp 1, so base+ε stays exactly representable and the
  // pair distance is exactly ε.
  ExpectTriplesAgreeAcrossBackends(
      {6.0 * 1099511627776.0 /* 2^40 */, 9.0 * 562949953421312.0 /* 2^49 */});
}

TEST(EpsBoundaryTest, ExactEpsPairsUnderStreamMotion) {
  // A pair oscillating across the exact-ε boundary in one stream: the gap
  // alternates ε (neighbors) and just-over-ε (noise), a move of 1/16, so
  // the same clusterer must flip the result every snapshot.
  const double eps = 4.0;
  DbscanParams params;
  params.epsilon = eps;
  params.mu = 2;
  SnapshotClusterer clusterer(params);
  for (int t = 0; t < 10; ++t) {
    const double gap = (t % 2 == 0) ? eps : eps + 0.0625;
    Snapshot s = MakeSnapshot({{1, 0.0, 0.0}, {2, gap, 0.0}});
    Clustering got = clusterer.Cluster(s, nullptr);
    ExpectSameClustering(Dbscan(s, params), got, static_cast<size_t>(t));
    if (t % 2 == 0) {
      EXPECT_EQ(got.clusters.size(), 1u) << "exact eps must be neighbors";
    } else {
      EXPECT_TRUE(got.clusters.empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Discoverer-level: the built-in clustering against the same run with the
// reference Dbscan injected as cluster provider, across id densities and
// stripe counts — companions, candidate sets, and intersection counts
// must be identical.

struct ProductRun {
  std::string state;
  size_t companions = 0;
};

ProductRun RunDiscovererProducts(Algorithm algorithm,
                                 const SnapshotStream& stream,
                                 const DiscoveryParams& params,
                                 bool oracle_clustering) {
  std::unique_ptr<CompanionDiscoverer> d = MakeDiscoverer(algorithm, params);
  if (oracle_clustering) {
    EXPECT_TRUE(d->SetClusterProvider(ReferenceDbscanProvider(params.cluster)));
  }
  for (const Snapshot& s : stream) d->ProcessSnapshot(s, nullptr);
  return ProductRun{NormalizedState(*d, /*products_only=*/true),
                    d->log().companions().size()};
}

class IncrementalDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool, int>> {};

TEST_P(IncrementalDifferentialTest, DiscovererProductsIdenticalToFull) {
  // dense_ids picks the kernel mode: dense ids take the label-row path,
  // SparsifyIds forces the sorted-merge path.
  const auto [seed, dense_ids, threads] = GetParam();
  DiscoveryParams params = BaseParams();
  params.cluster.threads = threads;
  DiscoveryParams exact_params = params;
  exact_params.size_threshold = 4;
  exact_params.duration_threshold = 3;
  // Fast and slow motion, then the adversarial fixtures.
  const struct {
    const char* name;
    SnapshotStream stream;
    const DiscoveryParams& params;
  } cases[] = {
      {"churny", ChurnyStream(seed).stream, params},
      {"coherent", CoherentStream(seed + 5).stream, params},
      {"dropout", DropoutStream(seed + 5), params},
      {"teleport", TeleportStream(seed + 5), params},
      {"exact_eps", ExactEpsStream(), exact_params},
  };
  for (const auto& c : cases) {
    const SnapshotStream stream =
        dense_ids ? c.stream : SparsifyIds(c.stream, 120'001);
    for (Algorithm algorithm :
         {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed}) {
      ProductRun built_in =
          RunDiscovererProducts(algorithm, stream, c.params, false);
      ProductRun oracle =
          RunDiscovererProducts(algorithm, stream, c.params, true);
      EXPECT_GT(oracle.companions, 0u) << c.name << ": test wants companions";
      EXPECT_EQ(built_in.state, oracle.state)
          << c.name << " " << AlgorithmName(algorithm)
          << " dense_ids=" << dense_ids << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, IncrementalDifferentialTest,
    ::testing::Combine(::testing::Values(711, 712),
                       ::testing::Bool(),          // dense ids (label-row path)
                       ::testing::Values(1, 4)));  // sweep stripes

TEST(IncrementalDifferentialTest, ConvoyBaselineIdenticalToFull) {
  ConvoyParams params;
  params.cluster.epsilon = 18.0;
  params.cluster.mu = 3;
  params.min_objects = 5;
  params.min_lifetime = 7;
  ConvoyParams oracle_params = params;
  oracle_params.cluster_provider = ReferenceDbscanProvider(params.cluster);

  const SnapshotStream streams[] = {ChurnyStream(713).stream,
                                    CoherentStream(713).stream,
                                    DropoutStream(713), TeleportStream(713)};
  for (const SnapshotStream& stream : streams) {
    ConvoyStats built_in_stats;
    ConvoyStats oracle_stats;
    std::vector<Convoy> built_in =
        DiscoverConvoys(stream, params, &built_in_stats);
    std::vector<Convoy> oracle =
        DiscoverConvoys(stream, oracle_params, &oracle_stats);
    EXPECT_FALSE(oracle.empty()) << "test stream should contain convoys";
    ASSERT_EQ(built_in.size(), oracle.size());
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ(built_in[i].objects, oracle[i].objects) << "convoy " << i;
      EXPECT_EQ(built_in[i].begin, oracle[i].begin) << "convoy " << i;
      EXPECT_EQ(built_in[i].end, oracle[i].end) << "convoy " << i;
    }
    EXPECT_EQ(built_in_stats.intersections, oracle_stats.intersections);
    EXPECT_EQ(built_in_stats.peak_candidates, oracle_stats.peak_candidates);
  }
}

}  // namespace
}  // namespace tcomp
