/// Differential proof that the incremental clustering layer is exact:
/// IncrementalClusterer must produce byte-identical clusterings to the
/// reference per-snapshot Dbscan on every stream we can throw at it —
/// smooth motion, dropout/reappearance, whole-cluster teleports, stale
/// (out-of-order) position reverts, exact-ε pairs, and mid-stream
/// checkpoint kill+resume. CI, SC, and the convoy baseline built on it
/// must match the same runs with the reference Dbscan injected as their
/// cluster provider, across thread counts and kernel modes. Also pins the
/// shared eps-boundary convention (flat, grid, and incremental backends
/// must agree on pairs at exactly ε, including pairs straddling grid cell
/// borders at large coordinates).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/convoy.h"
#include "core/clustering_intersection.h"
#include "core/dbscan.h"
#include "core/discoverer.h"
#include "core/incremental_cluster.h"
#include "core/snapshot.h"
#include "data/group_model.h"
#include "tests/test_util.h"

namespace tcomp {
namespace {

using testing_util::MakeSnapshot;
using testing_util::NormalizedState;
using testing_util::ReferenceDbscanProvider;
using testing_util::SparsifyIds;

/// Fast, churny stream (same shape as kernel_differential_test): objects
/// move far beyond the stability slack every snapshot, so this exercises
/// the fallback path of the incremental layer.
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

/// Low-speed variant: per-snapshot movement stays well under the
/// clusterer's Δ = ε/2 = 9 slack, so carried state is actually reusable
/// (the default group streams move too fast for that).
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
/// away (GPS re-fix, ferry hop) and at t=20 *everything* shifts, which
/// must trip the churn fallback.
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
/// to ε + 1/16: the motion stays under the stability slack, so carried
/// state is reused and only the exact filter decides membership.
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

/// Coherent stream whose churn alternates around the 30% rebuild
/// threshold: 40% of the population (one whole set of groups' ids)
/// teleports at every 4th snapshot and at t = 9, so the clusterer walks
/// rebuild → first repair (lists built) → repair → rebuild, and once
/// (t = 8, 9) rebuild → rebuild.
SnapshotStream TransitionStream(uint64_t seed) {
  GroupDataset data = CoherentStream(seed);
  SnapshotStream stream;
  int jumps = 0;
  for (size_t t = 0; t < data.stream.size(); ++t) {
    if (t > 0 && (t % 4 == 0 || t == 9)) ++jumps;
    const Snapshot& s = data.stream[t];
    std::vector<ObjectPosition> moved;
    for (size_t i = 0; i < s.size(); ++i) {
      Point p = s.pos(i);
      if (s.id(i) % 5 < 2) {
        p.x += 1e5 * jumps;
        p.y += 7e4 * jumps;
      }
      moved.push_back(ObjectPosition{s.id(i), p});
    }
    stream.push_back(Snapshot(std::move(moved), s.duration()));
  }
  return stream;
}

/// Whether the clusterer's rₑ lists exist, read from its checkpoint
/// section ("clusterer <has> <lists> <count>").
bool ListsBuilt(const IncrementalClusterer& clusterer) {
  std::ostringstream out;
  clusterer.SaveState(out);
  std::istringstream in(out.str());
  std::string tag;
  int has = 0;
  int lists = 0;
  in >> tag >> has >> lists;
  return lists == 1;
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

/// Feeds `stream` through an IncrementalClusterer and asserts every
/// snapshot's clustering is identical to full Dbscan. Returns the
/// accumulated delta counters.
ClusterDeltaStats ExpectIncrementalMatchesFull(const SnapshotStream& stream,
                                               const DbscanParams& params) {
  IncrementalClusterer clusterer(params);
  ClusterDeltaStats delta;
  int64_t inc_ops = 0;
  for (size_t t = 0; t < stream.size(); ++t) {
    Clustering got = clusterer.Cluster(stream[t], &inc_ops, &delta);
    Clustering want = Dbscan(stream[t], params);
    ExpectSameClustering(want, got, t);
  }
  // Every object-snapshot is accounted exactly once, as reused or dirty.
  EXPECT_EQ(delta.reuse + delta.dirty, TotalRecords(stream));
  return delta;
}

// ---------------------------------------------------------------------------
// Clusterer-level differential coverage.

class IncrementalClusterTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalClusterTest, MatchesFullDbscanOnChurnyStream) {
  ExpectIncrementalMatchesFull(ChurnyStream(GetParam()).stream,
                               ClusterParams());
}

TEST_P(IncrementalClusterTest, MatchesFullDbscanOnCoherentStream) {
  GroupDataset data = CoherentStream(GetParam());
  ClusterDeltaStats delta =
      ExpectIncrementalMatchesFull(data.stream, ClusterParams());
  // The whole point of the layer: on low-speed streams most
  // object-snapshots must be carried over, not re-probed.
  EXPECT_GT(delta.reuse, delta.dirty)
      << "coherent stream should mostly reuse carried state";
  EXPECT_LT(delta.full_rebuilds,
            static_cast<int64_t>(data.stream.size()) / 4);
}

TEST_P(IncrementalClusterTest, DropoutAndReappearance) {
  ExpectIncrementalMatchesFull(DropoutStream(GetParam()), ClusterParams());
}

TEST_P(IncrementalClusterTest, WholeClusterTeleport) {
  const SnapshotStream stream = TeleportStream(GetParam());
  IncrementalClusterer clusterer(ClusterParams());
  ClusterDeltaStats delta;
  for (size_t t = 0; t < stream.size(); ++t) {
    Clustering got = clusterer.Cluster(stream[t], nullptr, &delta);
    ExpectSameClustering(Dbscan(stream[t], ClusterParams()), got, t);
  }
  // t=0 (no state), the partial teleport, and the all-hands shift each
  // force a full re-probe.
  EXPECT_GE(delta.full_rebuilds, 3);
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
  ExpectIncrementalMatchesFull(stream, ClusterParams());
}

TEST_P(IncrementalClusterTest, RebuildRepairTransitions) {
  const SnapshotStream stream = TransitionStream(GetParam());
  IncrementalClusterer clusterer(ClusterParams());
  ClusterDeltaStats delta;
  bool prev_rebuilt = false;
  bool prev_lists = false;
  int rebuild_to_repair = 0;
  int repair_to_repair = 0;
  int repair_to_rebuild = 0;
  int rebuild_to_rebuild = 0;
  for (size_t t = 0; t < stream.size(); ++t) {
    const int64_t rebuilds_before = delta.full_rebuilds;
    Clustering got = clusterer.Cluster(stream[t], nullptr, &delta);
    ExpectSameClustering(Dbscan(stream[t], ClusterParams()), got, t);
    const bool rebuilt = delta.full_rebuilds > rebuilds_before;
    const bool lists = ListsBuilt(clusterer);
    // A rebuild builds no rₑ list; every repair leaves them built.
    EXPECT_EQ(lists, !rebuilt) << "snapshot " << t;
    if (t > 0) {
      if (prev_rebuilt && !rebuilt) {
        ++rebuild_to_repair;
        EXPECT_FALSE(prev_lists) << "first repair at " << t;
      }
      if (!prev_rebuilt && !rebuilt) ++repair_to_repair;
      if (!prev_rebuilt && rebuilt) ++repair_to_rebuild;
      if (prev_rebuilt && rebuilt) ++rebuild_to_rebuild;
    }
    prev_rebuilt = rebuilt;
    prev_lists = lists;
  }
  EXPECT_GE(rebuild_to_repair, 5);
  EXPECT_GE(repair_to_repair, 5);
  EXPECT_GE(repair_to_rebuild, 5);
  EXPECT_GE(rebuild_to_rebuild, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalClusterTest,
                         ::testing::Values(701, 702, 703));

// ---------------------------------------------------------------------------
// A rebuild is one ε sweep: on a stream that rebuilds every snapshot the
// clusterer spends exactly DbscanGrid's distance ops, plus one stability
// test per surviving object.

TEST(IncrementalRebuildTest, AllRebuildStreamCostsOneEpsSweep) {
  const GroupDataset data = ChurnyStream(731);
  const DbscanParams params = ClusterParams();
  // Fresh ids every snapshot: nothing survives, so no stability test runs.
  SnapshotStream fresh;
  // Same ids, everyone jumps far beyond Δ every snapshot.
  SnapshotStream jumping;
  for (size_t t = 0; t < data.stream.size(); ++t) {
    const Snapshot& s = data.stream[t];
    std::vector<ObjectPosition> renamed;
    std::vector<ObjectPosition> moved;
    for (size_t i = 0; i < s.size(); ++i) {
      renamed.push_back(ObjectPosition{
          s.id(i) + static_cast<ObjectId>(1000 * t), s.pos(i)});
      moved.push_back(ObjectPosition{
          s.id(i), s.pos(i) + Point{5000.0 * static_cast<double>(t), 0.0}});
    }
    fresh.push_back(Snapshot(std::move(renamed), s.duration()));
    jumping.push_back(Snapshot(std::move(moved), s.duration()));
  }
  for (const SnapshotStream* stream : {&fresh, &jumping}) {
    IncrementalClusterer clusterer(params);
    ClusterDeltaStats delta;
    int64_t ops = 0;
    int64_t grid_ops = 0;
    int64_t survivors = 0;
    for (size_t t = 0; t < stream->size(); ++t) {
      const Snapshot& s = (*stream)[t];
      Clustering got = clusterer.Cluster(s, &ops, &delta);
      ExpectSameClustering(DbscanGrid(s, params, &grid_ops), got, t);
      if (t > 0) {
        for (const IdMergeItem& m :
             MergeIdSequences((*stream)[t - 1].ids(), s.ids())) {
          if (m.index_a != Snapshot::kNpos && m.index_b != Snapshot::kNpos) {
            ++survivors;
          }
        }
      }
    }
    EXPECT_EQ(delta.full_rebuilds, static_cast<int64_t>(stream->size()));
    EXPECT_EQ(ops, grid_ops + survivors);
    EXPECT_EQ(delta.soa_lanes, grid_ops);
    EXPECT_GT(delta.soa_batches, 0);
    EXPECT_EQ(delta.reuse, 0);
    EXPECT_FALSE(ListsBuilt(clusterer));
  }
}

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

  IncrementalClusterer clusterer(params);
  ExpectSameClustering(flat, clusterer.Cluster(snapshot, nullptr, nullptr),
                       0);

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
  // A pair oscillating across the exact-ε boundary while carried state is
  // live: the gap alternates ε (neighbors) and just-over-ε (noise), but
  // the motion stays under the stability slack, so the carried list is
  // reused and the exact filter alone must flip the result each snapshot.
  const double eps = 4.0;
  DbscanParams params;
  params.epsilon = eps;
  params.mu = 2;
  IncrementalClusterer clusterer(params);
  for (int t = 0; t < 10; ++t) {
    const double gap = (t % 2 == 0) ? eps : eps + 0.0625;
    Snapshot s = MakeSnapshot({{1, 0.0, 0.0}, {2, gap, 0.0}});
    Clustering got = clusterer.Cluster(s, nullptr, nullptr);
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
// reference Dbscan injected as cluster provider, across kernel modes and
// thread counts — companions, candidate sets, and intersection counts
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
  // Churny exercises the fallback path, coherent the carried-state path,
  // and the adversarial fixtures the repair and exact-filter edges.
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
                       ::testing::Values(1, 4)));  // clustering threads

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

// ---------------------------------------------------------------------------
// Mid-stream checkpoint kill+resume with carried clusterer state.

TEST(IncrementalCheckpointTest, MidStreamKillResumeReplaysExactly) {
  GroupDataset data = CoherentStream(721);
  DiscoveryParams params = BaseParams();

  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed}) {
    std::unique_ptr<CompanionDiscoverer> first =
        MakeDiscoverer(algorithm, params);
    const size_t half = data.stream.size() / 2;
    for (size_t t = 0; t < half; ++t) {
      first->ProcessSnapshot(data.stream[t], nullptr);
    }
    // Default-precision stream on purpose: anchors must survive the round
    // trip bit-exactly without the caller opting into setprecision(17).
    std::stringstream checkpoint;
    ASSERT_TRUE(first->SaveState(checkpoint).ok());
    for (size_t t = half; t < data.stream.size(); ++t) {
      first->ProcessSnapshot(data.stream[t], nullptr);
    }

    std::unique_ptr<CompanionDiscoverer> resumed =
        MakeDiscoverer(algorithm, params);
    ASSERT_TRUE(resumed->LoadState(checkpoint).ok());
    for (size_t t = half; t < data.stream.size(); ++t) {
      resumed->ProcessSnapshot(data.stream[t], nullptr);
    }

    // Not just same products: same distance_ops, same reuse/dirty
    // counters, same carried anchors — the resumed run is byte-for-byte
    // the run that never stopped.
    EXPECT_EQ(NormalizedState(*first), NormalizedState(*resumed))
        << AlgorithmName(algorithm);
    EXPECT_GT(first->stats().cluster_reuse, 0)
        << "stream should exercise carried state, not just fallbacks";
  }
}

/// Kill+resume at every snapshot index of the transition stream,
/// including right after each rebuild (lists not built yet) and right
/// after each first repair: the resumed run is the uninterrupted run, its
/// state and counters included, and it streams the same SoA lanes over
/// the resumed suffix.
TEST(IncrementalCheckpointTest, KillResumeAtEverySnapshotReplaysExactly) {
  const SnapshotStream stream = TransitionStream(722);
  const DiscoveryParams params = BaseParams();
  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed}) {
    std::unique_ptr<CompanionDiscoverer> full =
        MakeDiscoverer(algorithm, params);
    std::vector<std::string> checkpoints;
    std::vector<int64_t> lanes_at;
    for (size_t t = 0; t <= stream.size(); ++t) {
      std::ostringstream saved;
      ASSERT_TRUE(full->SaveState(saved).ok());
      checkpoints.push_back(saved.str());
      lanes_at.push_back(full->stats().soa_lanes);
      if (t < stream.size()) full->ProcessSnapshot(stream[t], nullptr);
    }
    const std::string want = NormalizedState(*full);
    int unbuilt_kills = 0;
    for (size_t kill = 0; kill <= stream.size(); ++kill) {
      if (checkpoints[kill].find("clusterer 1 0 ") != std::string::npos) {
        ++unbuilt_kills;
      }
      std::unique_ptr<CompanionDiscoverer> resumed =
          MakeDiscoverer(algorithm, params);
      std::istringstream in(checkpoints[kill]);
      ASSERT_TRUE(resumed->LoadState(in).ok()) << "kill " << kill;
      for (size_t t = kill; t < stream.size(); ++t) {
        resumed->ProcessSnapshot(stream[t], nullptr);
      }
      EXPECT_EQ(NormalizedState(*resumed), want)
          << AlgorithmName(algorithm) << " killed at " << kill;
      EXPECT_EQ(resumed->stats().soa_lanes,
                full->stats().soa_lanes - lanes_at[kill])
          << AlgorithmName(algorithm) << " killed at " << kill;
    }
    EXPECT_GE(unbuilt_kills, 5) << "kill points right after rebuilds";
    EXPECT_GT(full->stats().cluster_reuse, 0);
  }
}

TEST(IncrementalCheckpointTest, RejectsCorruptClustererState) {
  DiscoveryParams params = BaseParams();
  GroupDataset data = CoherentStream(723);
  ClusteringIntersectionDiscoverer d(params);
  for (size_t t = 0; t < 4; ++t) d.ProcessSnapshot(data.stream[t], nullptr);
  std::ostringstream saved;
  ASSERT_TRUE(d.SaveState(saved).ok());
  const std::string good = saved.str();
  ASSERT_NE(good.find("clusterer 1 "), std::string::npos);

  const std::string bad_cases[] = {
      // Section tag destroyed.
      [&] {
        std::string s = good;
        s.replace(s.find("clusterer"), 9, "clustererX");
        return s;
      }(),
      // Implausible anchor count (and truncated records).
      [&] {
        size_t at = good.find("clusterer 1 ");
        return good.substr(0, at) + "clusterer 1 999999999\n";
      }(),
      // Anchor coordinate that is not a parsable hex float.
      [&] {
        std::string s = good;
        size_t at = s.find("0x", s.find("clusterer 1 "));
        s.replace(at, 2, "zz");
        return s;
      }(),
  };
  for (const std::string& bad : bad_cases) {
    ClusteringIntersectionDiscoverer fresh(params);
    std::istringstream in(bad);
    Status st = fresh.LoadState(in);
    EXPECT_FALSE(st.ok()) << "corrupt state must be rejected";
  }
}

}  // namespace
}  // namespace tcomp
