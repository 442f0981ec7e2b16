/// Differential proof that the SoA snapshot layout and the batched
/// ε-filter kernels (util/eps_filter.h) are a pure optimization. The two
/// "SoA modes" compared are the kernel paths and the scalar reference:
/// the kernels accept exactly the lanes the scalar WithinEps walk accepts
/// (exact-ε boundary coordinates included), DbscanGrid's plane sweep
/// produces the identical Clustering to the O(n²) Dbscan, and CI, SC,
/// and the convoy baseline produce the same companions, candidates, and
/// intersection counts through the kernels as with Dbscan injected as
/// their cluster provider. The shared ε-neighborhood sweep is compared
/// with a brute-force all-pairs oracle under every source-mask shape.
/// The sweep's stripes must reproduce the one-stripe pair list, op count
/// and batch count exactly. Also pins SnapshotClusterer's steady-state
/// no-heap-growth invariant, at one and two stripes, on a coherent stream
/// and on one whose objects jump every snapshot: the scratch it reuses
/// across snapshots stops growing once the workload's high-water mark has
/// been seen.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/convoy.h"
#include "core/dbscan.h"
#include "core/discoverer.h"
#include "core/snapshot.h"
#include "data/group_model.h"
#include "test_util.h"
#include "util/arena.h"
#include "util/eps_filter.h"
#include "util/random.h"

namespace tcomp {
namespace {

using testing_util::ClusteredSnapshot;
using testing_util::NormalizedState;
using testing_util::ReferenceDbscanProvider;

// ---------------------------------------------------------------------
// Kernel-level differentials: EpsFilterGather against the scalar
// WithinEps walk, lane for lane.

std::vector<uint32_t> ScalarRange(const std::vector<double>& xs,
                                  const std::vector<double>& ys,
                                  uint32_t begin, uint32_t end, double qx,
                                  double qy, double eps2) {
  std::vector<uint32_t> out;
  for (uint32_t i = begin; i < end; ++i) {
    if (WithinEps(Point{xs[i], ys[i]}, Point{qx, qy}, eps2)) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<uint32_t> ScalarGather(const std::vector<double>& xs,
                                   const std::vector<double>& ys,
                                   const std::vector<uint32_t>& cand,
                                   double qx, double qy, double eps2) {
  std::vector<uint32_t> out;
  for (uint32_t i : cand) {
    if (WithinEps(Point{xs[i], ys[i]}, Point{qx, qy}, eps2)) {
      out.push_back(i);
    }
  }
  return out;
}

/// Sizes straddling both kernel structure boundaries: the scalar cutover
/// (16) and the chunk width (256).
const uint32_t kSizes[] = {0, 1, 3, 8, 15, 16, 17, 64, 255, 256, 257, 777};

TEST(EpsFilterKernelTest, GatherMatchesScalarWalkAcrossSizes) {
  Pcg32 rng(902);
  const uint32_t kUniverse = 1024;
  std::vector<double> xs(kUniverse), ys(kUniverse);
  for (uint32_t i = 0; i < kUniverse; ++i) {
    xs[i] = rng.NextDouble(0.0, 200.0);
    ys[i] = rng.NextDouble(0.0, 200.0);
  }
  for (uint32_t n : kSizes) {
    // Scattered, unordered, duplicate-bearing candidate lists — the
    // carried-neighbor shape the incremental clusterer feeds the kernel.
    std::vector<uint32_t> cand(n);
    for (uint32_t& c : cand) c = rng.NextBounded(kUniverse);
    std::vector<uint32_t> out(n);
    for (int trial = 0; trial < 8; ++trial) {
      const double qx = rng.NextDouble(0.0, 200.0);
      const double qy = rng.NextDouble(0.0, 200.0);
      const double eps2 = rng.NextDouble(1.0, 1600.0);
      const size_t got =
          EpsFilterGather(xs.data(), ys.data(), cand.data(), cand.size(),
                          qx, qy, eps2, out.data());
      const std::vector<uint32_t> want =
          ScalarGather(xs, ys, cand, qx, qy, eps2);
      ASSERT_EQ(got, want.size()) << "n=" << n << " trial=" << trial;
      for (size_t k = 0; k < got; ++k) {
        EXPECT_EQ(out[k], want[k]) << "n=" << n << " lane " << k;
      }
    }
  }
}

/// Exact-ε boundary coordinates. The contract says the kernel evaluates
/// literally `dx*dx + dy*dy <= eps2` with scalar IEEE rounding — a lost
/// -ffp-contract=off on the kernel TU (which would let the AVX2 clones
/// fuse the expression) shows up here as a boundary lane flipping.
TEST(EpsFilterKernelTest, ExactBoundaryCoordinatesMatchScalarWalk) {
  const double eps = 5.0;
  const double eps2 = eps * eps;
  const double qx = 1000.0;
  const double qy = -250.0;
  std::vector<double> xs, ys;
  auto add = [&](double dx, double dy) {
    xs.push_back(qx + dx);
    ys.push_back(qy + dy);
  };
  // Exactly on the closed ball's boundary: axis-aligned and the 3-4-5
  // triangle (both exact in binary floating point — must be accepted).
  add(5.0, 0.0);
  add(0.0, -5.0);
  add(3.0, 4.0);
  add(-4.0, 3.0);
  // Just outside along each axis (must be rejected). The nudge is well
  // above ulp(qx + 5) ≈ 1.1e-13, so it survives the coordinate addition
  // — a bare nextafter(5.0, 6.0) would be rounded away at this magnitude
  // and land back on the boundary.
  add(5.0 + 1e-11, 0.0);
  add(0.0, -(5.0 + 1e-11));
  // Just inside (must be accepted).
  add(5.0 - 1e-11, 0.0);
  // Large-magnitude offsets where the subtraction qx+dx-qx is inexact and
  // the sum-of-squares rounding decides membership either way; the point
  // is lane-for-lane agreement with the scalar walk, whatever it decides.
  for (double mag : {1e8, 1e12, 1e15}) {
    xs.push_back(mag + 3.0);
    ys.push_back(mag + 4.0);
    xs.push_back(mag);
    ys.push_back(mag);
  }
  // Tile the adversarial set past the chunk width so the vectorized path
  // (not just the small-range scalar cutover) sees every case.
  const size_t pattern = xs.size();
  while (xs.size() < 3 * 256 + 7) {
    xs.push_back(xs[xs.size() % pattern]);
    ys.push_back(ys[ys.size() % pattern]);
  }
  const uint32_t n = static_cast<uint32_t>(xs.size());

  std::vector<uint32_t> out(n);
  for (auto [qpx, qpy] : {std::pair{qx, qy}, std::pair{1e8, 1e8},
                          std::pair{1e12, 1e12}, std::pair{1e15, 1e15}}) {
    // Every lane (chunked path) and a leading 8-lane window (scalar
    // cutover path) must both agree with the reference walk.
    for (uint32_t end : {n, std::min<uint32_t>(8, n)}) {
      const std::vector<uint32_t> want =
          ScalarRange(xs, ys, 0, end, qpx, qpy, eps2);
      std::vector<uint32_t> cand(end);
      for (uint32_t i = 0; i < end; ++i) cand[i] = i;
      const size_t got =
          EpsFilterGather(xs.data(), ys.data(), cand.data(), cand.size(),
                          qpx, qpy, eps2, out.data());
      ASSERT_EQ(got, want.size()) << "query (" << qpx << ", " << qpy << ")";
      for (size_t k = 0; k < got; ++k) EXPECT_EQ(out[k], want[k]);
    }
  }
  // The boundary rows themselves: exact-distance points accepted, one-ulp
  // outside rejected (sanity that the fixture tests what it claims).
  const std::vector<uint32_t> accepted =
      ScalarRange(xs, ys, 0, static_cast<uint32_t>(pattern), qx, qy, eps2);
  EXPECT_GE(accepted.size(), 5u);
  for (uint32_t k : accepted) EXPECT_NE(k, 4u) << "ulp-outside accepted";
}

// ---------------------------------------------------------------------
// The ε-neighborhood sweep (internal::SweepNeighborPairs) against a
// brute-force all-pairs oracle: every within-radius pair that involves a
// source, exactly once, reported from the side the contract names — the
// smaller index for two sources, the source for a source–non-source pair.

using SweptPair = std::pair<uint32_t, uint32_t>;  // (source side, partner)

std::vector<SweptPair> BruteForcePairs(const std::vector<double>& xs,
                                       const std::vector<double>& ys,
                                       double r, const uint8_t* source) {
  const auto is_source = [source](uint32_t i) {
    return source == nullptr || source[i] != 0;
  };
  std::vector<SweptPair> out;
  const uint32_t n = static_cast<uint32_t>(xs.size());
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (!WithinEps(Point{xs[i], ys[i]}, Point{xs[j], ys[j]}, r * r)) {
        continue;
      }
      if (is_source(i)) {
        out.emplace_back(i, j);
      } else if (is_source(j)) {
        out.emplace_back(j, i);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SweptPair> SweptPairs(const std::vector<double>& xs,
                                  const std::vector<double>& ys, double r,
                                  const uint8_t* source, int64_t* ops) {
  Arena arena;
  internal::SweepPairs packed;
  *ops = internal::SweepNeighborPairs(xs.data(), ys.data(), xs.size(), r,
                                      source, 1, &arena, &packed);
  std::vector<SweptPair> out;
  for (uint64_t p : packed.pairs) {
    out.emplace_back(static_cast<uint32_t>(p >> 32),
                     static_cast<uint32_t>(p));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs the sweep under the four source masks — none (null), all,
/// sparse random, alternating — and compares each with the oracle. The
/// null and all-ones masks must agree pair for pair and op for op, and
/// with every point a source no unordered pair is evaluated twice.
void ExpectSweepMatchesBruteForce(const std::vector<double>& xs,
                                  const std::vector<double>& ys, double r,
                                  const std::string& name) {
  const size_t n = xs.size();
  Pcg32 rng(907);
  std::vector<uint8_t> all(n, 1), sparse(n, 0), alternating(n, 0);
  for (size_t i = 0; i < n; ++i) {
    sparse[i] = rng.NextBounded(7) == 0 ? 1 : 0;
    alternating[i] = i % 2 == 0 ? 1 : 0;
  }
  int64_t none_ops = 0;
  const std::vector<SweptPair> none =
      SweptPairs(xs, ys, r, nullptr, &none_ops);
  EXPECT_EQ(none, BruteForcePairs(xs, ys, r, nullptr)) << name << " none";
  const int64_t nn = static_cast<int64_t>(n);
  EXPECT_LE(none_ops, nn * (nn - 1) / 2) << name;
  EXPECT_GE(none_ops, static_cast<int64_t>(none.size())) << name;
  const std::pair<const char*, const std::vector<uint8_t>*> masks[] = {
      {"all", &all}, {"sparse", &sparse}, {"alternating", &alternating}};
  for (const auto& [mask_name, mask] : masks) {
    int64_t ops = 0;
    const std::vector<SweptPair> got =
        SweptPairs(xs, ys, r, mask->data(), &ops);
    EXPECT_EQ(got, BruteForcePairs(xs, ys, r, mask->data()))
        << name << " " << mask_name;
    EXPECT_GE(ops, static_cast<int64_t>(got.size())) << name << mask_name;
    if (mask == &all) {
      EXPECT_EQ(ops, none_ops) << name;
    }
  }
}

TEST(NeighborSweepTest, RandomPointsMatchBruteForce) {
  Pcg32 rng(908);
  std::vector<double> xs, ys;
  for (int i = 0; i < 400; ++i) {
    xs.push_back(rng.NextDouble(0.0, 240.0));
    ys.push_back(rng.NextDouble(0.0, 240.0));
  }
  ExpectSweepMatchesBruteForce(xs, ys, 9.0, "uniform");
}

TEST(NeighborSweepTest, ExactRadiusPairsOnColumnAndBandEdges) {
  // A lattice of spacing exactly r: every axis neighbor sits at distance
  // exactly r, straddling a column border along x and lying on the band
  // edge along y; the 3-4-5 offsets add exact-r diagonals. A second
  // lattice shifted by just over r along x must not pair with the first
  // across that gap.
  const double r = 5.0;
  std::vector<double> xs, ys;
  for (int k = -6; k <= 6; ++k) {
    for (int l = -6; l <= 6; ++l) {
      xs.push_back(k * r);
      ys.push_back(l * r);
      xs.push_back(k * r + 3.0);
      ys.push_back(l * r + 4.0);
      xs.push_back(200.0 + k * (r + 1e-9));
      ys.push_back(l * r);
    }
  }
  ExpectSweepMatchesBruteForce(xs, ys, r, "lattice");
}

TEST(NeighborSweepTest, LargeMagnitudeCoordinates) {
  // Around 1e12 one ulp of a coordinate is ~1.2e-4, so x / w and the
  // y ± w band bounds round by far more than an unpadded grid absorbs;
  // GridCellWidth's pad must still keep exact-r pairs one column apart
  // and inside the band.
  Pcg32 rng(909);
  const double base = 1e12;
  const double r = 5.0;
  std::vector<double> xs, ys;
  for (int k = 0; k < 40; ++k) {
    xs.push_back(base + k * r);
    ys.push_back(-base + (k % 3) * r);
    xs.push_back(base + rng.NextDouble(0.0, 200.0));
    ys.push_back(-base + rng.NextDouble(0.0, 30.0));
  }
  ExpectSweepMatchesBruteForce(xs, ys, r, "1e12");
}

TEST(NeighborSweepTest, CollocatedBandPastChunkWidth) {
  // More than 256 collocated points: one band spans several of the
  // kernel's 256-lane chunks, and every pair among them is at distance 0.
  std::vector<double> xs(300, 50.0), ys(300, 50.0);
  Pcg32 rng(910);
  for (int i = 0; i < 60; ++i) {
    xs.push_back(rng.NextDouble(40.0, 60.0));
    ys.push_back(rng.NextDouble(40.0, 60.0));
  }
  ExpectSweepMatchesBruteForce(xs, ys, 4.0, "collocated");
}

TEST(NeighborSweepTest, EmptyAndSinglePoint) {
  ExpectSweepMatchesBruteForce({}, {}, 3.0, "empty");
  ExpectSweepMatchesBruteForce({1.0}, {2.0}, 3.0, "single");
  int64_t ops = -1;
  EXPECT_TRUE(SweptPairs({}, {}, 3.0, nullptr, &ops).empty());
  EXPECT_EQ(ops, 0);
  EXPECT_TRUE(SweptPairs({1.0}, {2.0}, 3.0, nullptr, &ops).empty());
  EXPECT_EQ(ops, 0);
}

// ---------------------------------------------------------------------
// The sweep's stripes: at every stripe count the packed pair list — in
// order, not just as a set — the op count and the batch count must be the
// one-stripe sweep's, with and without a source mask. One SweepPairs is
// reused across the counts, as a stream's clusterer reuses it.

struct SweepRun {
  std::vector<uint64_t> pairs;
  int64_t ops = 0;
  int64_t batches = 0;
};

SweepRun RunSweep(const std::vector<double>& xs,
                  const std::vector<double>& ys, double r,
                  const uint8_t* source, int stripes,
                  internal::SweepPairs* reused) {
  Arena arena;
  SweepRun run;
  run.ops = internal::SweepNeighborPairs(xs.data(), ys.data(), xs.size(), r,
                                         source, stripes, &arena, reused,
                                         &run.batches);
  run.pairs = reused->pairs;
  return run;
}

void ExpectStripesMatchSerial(const std::vector<double>& xs,
                              const std::vector<double>& ys, double r,
                              const std::string& name) {
  Pcg32 rng(913);
  std::vector<uint8_t> sparse(xs.size(), 0);
  for (uint8_t& s : sparse) s = rng.NextBounded(5) == 0 ? 1 : 0;
  for (const uint8_t* source : {static_cast<const uint8_t*>(nullptr),
                                static_cast<const uint8_t*>(sparse.data())}) {
    const std::string what = name + (source == nullptr ? " none" : " sparse");
    internal::SweepPairs reused;
    const SweepRun serial = RunSweep(xs, ys, r, source, 1, &reused);
    for (int stripes : {2, 3, 8}) {
      const SweepRun got = RunSweep(xs, ys, r, source, stripes, &reused);
      EXPECT_EQ(got.pairs, serial.pairs) << what << " stripes " << stripes;
      EXPECT_EQ(got.ops, serial.ops) << what << " stripes " << stripes;
      EXPECT_EQ(got.batches, serial.batches)
          << what << " stripes " << stripes;
    }
  }
}

TEST(SweepStripeTest, RandomAndClusteredPoints) {
  Pcg32 rng(914);
  std::vector<double> xs, ys;
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(rng.NextDouble(0.0, 600.0));
    ys.push_back(rng.NextDouble(0.0, 600.0));
  }
  ExpectStripesMatchSerial(xs, ys, 9.0, "uniform");
  const Snapshot clustered = ClusteredSnapshot(
      /*clusters=*/12, /*per_cluster=*/80, /*noise=*/300, /*extent=*/900.0,
      /*spread=*/8.0, rng);
  xs.clear();
  ys.clear();
  for (size_t i = 0; i < clustered.size(); ++i) {
    xs.push_back(clustered.pos(i).x);
    ys.push_back(clustered.pos(i).y);
  }
  ExpectStripesMatchSerial(xs, ys, 14.0, "clustered");
}

TEST(SweepStripeTest, ExactRadiusLatticeStraddlingStripeBorders) {
  // Axis neighbors at exactly r straddle every column border, so every
  // stripe border cuts exact-r pairs, which the stripe on the left must
  // emit just as the serial sweep does.
  const double r = 5.0;
  std::vector<double> xs, ys;
  for (int k = -20; k <= 20; ++k) {
    for (int l = -8; l <= 8; ++l) {
      xs.push_back(k * r);
      ys.push_back(l * r);
      xs.push_back(k * r + 3.0);
      ys.push_back(l * r + 4.0);
    }
  }
  ExpectStripesMatchSerial(xs, ys, r, "lattice");
}

TEST(SweepStripeTest, LargeMagnitudeOffsets) {
  Pcg32 rng(915);
  const double r = 5.0;
  std::vector<double> xs, ys;
  for (const double base : {1e12, -1e12}) {
    for (int k = 0; k < 300; ++k) {
      xs.push_back(base + k * r);
      ys.push_back(-base + (k % 3) * r);
      xs.push_back(base + rng.NextDouble(0.0, 1500.0));
      ys.push_back(-base + rng.NextDouble(0.0, 30.0));
    }
  }
  ExpectStripesMatchSerial(xs, ys, r, "1e12");
}

TEST(SweepStripeTest, DuplicatePoints) {
  // Whole stacks of collocated points: every stripe border falls between
  // columns, never inside a stack.
  Pcg32 rng(916);
  std::vector<double> xs, ys;
  for (int stack = 0; stack < 40; ++stack) {
    const double x = rng.NextDouble(0.0, 400.0);
    const double y = rng.NextDouble(0.0, 400.0);
    for (int k = 0; k < 20; ++k) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
  ExpectStripesMatchSerial(xs, ys, 6.0, "duplicates");
}

TEST(SweepStripeTest, FewerColumnsThanStripes) {
  // Two columns of 300 points each: at most two stripes can run.
  Pcg32 rng(917);
  std::vector<double> xs, ys;
  for (int i = 0; i < 600; ++i) {
    xs.push_back(i % 2 == 0 ? 1.0 : 11.0);
    ys.push_back(rng.NextDouble(0.0, 3000.0));
  }
  ExpectStripesMatchSerial(xs, ys, 10.0, "two columns");
}

TEST(SweepStripeTest, EmptyAndSinglePoint) {
  ExpectStripesMatchSerial({}, {}, 3.0, "empty");
  ExpectStripesMatchSerial({1.0}, {2.0}, 3.0, "single");
}

// ---------------------------------------------------------------------
// DbscanGrid: the sweep over every point must reproduce the reference
// Dbscan exactly — labels, core flags, and cluster sets. Its distance_ops
// counts each evaluated unordered pair once, so it never exceeds
// n(n-1)/2.

void ExpectSameClustering(const Clustering& a, const Clustering& b,
                          const char* what) {
  EXPECT_EQ(a.labels, b.labels) << what;
  EXPECT_EQ(a.core, b.core) << what;
  ASSERT_EQ(a.clusters.size(), b.clusters.size()) << what;
  for (size_t k = 0; k < a.clusters.size(); ++k) {
    EXPECT_EQ(a.clusters[k], b.clusters[k]) << what << " cluster " << k;
  }
}

TEST(DbscanGridTest, MatchesDbscanAcrossSnapshotShapes) {
  Pcg32 rng(903);
  DbscanParams params;
  params.epsilon = 18.0;
  params.mu = 3;

  std::vector<std::pair<std::string, Snapshot>> cases;
  cases.emplace_back("clustered",
                     ClusteredSnapshot(5, 40, 30, 800.0, 10.0, rng));
  cases.emplace_back("dense_blobs",
                     ClusteredSnapshot(2, 150, 0, 400.0, 12.0, rng));
  cases.emplace_back("sparse",
                     testing_util::RandomSnapshot(120, 5000.0, rng));
  cases.emplace_back("empty", Snapshot({}, 1.0));
  cases.emplace_back("single",
                     testing_util::MakeSnapshot({{7, 10.0, 10.0}}));
  {
    // Collocated points: one grid cell holding everything — the sweep's
    // own-cell tail does all the work, spanning multiple 256-lane chunks.
    std::vector<ObjectPosition> pos;
    for (ObjectId i = 0; i < 600; ++i) {
      pos.push_back(ObjectPosition{i, Point{50.0, 50.0}});
    }
    cases.emplace_back("collocated", Snapshot(std::move(pos), 1.0));
  }

  for (const auto& [name, snapshot] : cases) {
    int64_t grid_ops = 0;
    Clustering grid = DbscanGrid(snapshot, params, &grid_ops);
    Clustering reference = Dbscan(snapshot, params);
    ExpectSameClustering(reference, grid, name.c_str());
    const int64_t n = static_cast<int64_t>(snapshot.size());
    EXPECT_LE(grid_ops, n * (n - 1) / 2) << name;
  }
}

// ---------------------------------------------------------------------
// End-to-end differentials: full discoverer runs through the kernels
// against the same runs clustered by the reference Dbscan.

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

DiscoveryParams BaseParams() {
  DiscoveryParams params;
  params.cluster.epsilon = 18.0;
  params.cluster.mu = 3;
  params.size_threshold = 5;
  params.duration_threshold = 7;
  return params;
}

enum class Clusterer { kBuiltIn, kGrid, kReference };

struct RunResult {
  std::string state;  // NormalizedState, products only
  int64_t soa_lanes = 0;
  size_t log_size = 0;
};

RunResult RunDiscoverer(Algorithm algorithm, const SnapshotStream& stream,
                        const DiscoveryParams& params, Clusterer clusterer) {
  std::unique_ptr<CompanionDiscoverer> d = MakeDiscoverer(algorithm, params);
  if (clusterer == Clusterer::kGrid) {
    d->SetClusterProvider(
        [params](const Snapshot& s, int64_t* distance_ops) {
          return DbscanGrid(s, params.cluster, distance_ops);
        });
  } else if (clusterer == Clusterer::kReference) {
    d->SetClusterProvider(ReferenceDbscanProvider(params.cluster));
  }
  for (const Snapshot& s : stream) d->ProcessSnapshot(s, nullptr);
  RunResult r;
  r.state = NormalizedState(*d, /*products_only=*/true);
  r.soa_lanes = d->stats().soa_lanes;
  r.log_size = d->log().companions().size();
  return r;
}

class SoADifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoADifferentialTest, DiscoverersByteIdenticalAcrossSoAModes) {
  GroupDataset data = ChurnyStream(GetParam());
  DiscoveryParams params = BaseParams();

  // The built-in SnapshotClusterer's sweep runs EpsFilterGather.
  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed}) {
    RunResult soa =
        RunDiscoverer(algorithm, data.stream, params, Clusterer::kBuiltIn);
    RunResult reference =
        RunDiscoverer(algorithm, data.stream, params, Clusterer::kReference);
    EXPECT_GT(reference.log_size, 0u) << "test wants companions";
    EXPECT_GT(soa.soa_lanes, 0) << "kernels never ran";
    EXPECT_EQ(soa.state, reference.state) << AlgorithmName(algorithm);
  }
}

TEST_P(SoADifferentialTest, GridProviderByteIdenticalAcrossSoAModes) {
  GroupDataset data = ChurnyStream(GetParam());
  DiscoveryParams params = BaseParams();

  // DbscanGrid injected as the cluster provider: this is the shared
  // ε-neighborhood sweep inside a full pipeline.
  RunResult grid = RunDiscoverer(Algorithm::kSmartClosed, data.stream, params,
                                 Clusterer::kGrid);
  RunResult reference = RunDiscoverer(Algorithm::kSmartClosed, data.stream,
                                      params, Clusterer::kReference);
  EXPECT_GT(reference.log_size, 0u) << "test wants companions";
  EXPECT_EQ(grid.state, reference.state);
}

TEST_P(SoADifferentialTest, ConvoyBaselineIdenticalAcrossSoAModes) {
  GroupDataset data = ChurnyStream(GetParam());
  ConvoyParams params;
  params.cluster.epsilon = 18.0;
  params.cluster.mu = 3;
  params.min_objects = 5;
  params.min_lifetime = 7;
  ConvoyParams grid_params = params;
  grid_params.cluster_provider = [&params](const Snapshot& s,
                                           int64_t* distance_ops) {
    return DbscanGrid(s, params.cluster, distance_ops);
  };
  ConvoyParams reference_params = params;
  reference_params.cluster_provider = ReferenceDbscanProvider(params.cluster);

  ConvoyStats stats_grid;
  std::vector<Convoy> grid =
      DiscoverConvoys(data.stream, grid_params, &stats_grid);
  ConvoyStats stats_reference;
  std::vector<Convoy> reference =
      DiscoverConvoys(data.stream, reference_params, &stats_reference);

  EXPECT_FALSE(reference.empty()) << "test wants convoys";
  ASSERT_EQ(grid.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(grid[i].objects, reference[i].objects) << "convoy " << i;
    EXPECT_EQ(grid[i].begin, reference[i].begin) << "convoy " << i;
    EXPECT_EQ(grid[i].end, reference[i].end) << "convoy " << i;
  }
  EXPECT_EQ(stats_grid.intersections, stats_reference.intersections);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoADifferentialTest,
                         ::testing::Values(901, 902, 903));

// ---------------------------------------------------------------------
// Scratch steady state: once a SnapshotClusterer has seen the workload's
// high-water snapshot, further snapshots of the same population must not
// grow its scratch — the per-snapshot SoA views, sweep grid, pair buffer
// and neighbor table all come out of recycled capacity.

TEST(ScratchArenaTest, SteadyStateStopsGrowingHeap) {
  GroupModelOptions options;
  options.num_objects = 120;
  options.num_snapshots = 48;
  options.area_size = 1800.0;
  options.min_group_size = 8;
  options.max_group_size = 14;
  options.split_probability = 0.0;
  options.leave_probability = 0.0;
  options.seed = 906;
  GroupDataset data = GenerateGroupStream(options);

  // One stripe, and two: the stripes' pair buffers are scratch too.
  for (int stripes : {1, 2}) {
    DbscanParams params;
    params.epsilon = 18.0;
    params.mu = 3;
    params.threads = stripes;
    SnapshotClusterer clusterer(params);

    // Warm-up pass: play the entire stream once, so the high-water
    // snapshot — wherever in the stream it falls — has been seen.
    for (const Snapshot& s : data.stream) clusterer.Cluster(s, nullptr);
    const size_t steady = clusterer.ScratchBytes();
    EXPECT_GT(steady, 0u) << "scratch is not being used at all";
    // Second pass over the same snapshots: every byte must come out of
    // recycled capacity.
    for (size_t t = 0; t < data.stream.size(); ++t) {
      clusterer.Cluster(data.stream[t], nullptr);
      EXPECT_EQ(clusterer.ScratchBytes(), steady)
          << "scratch grew at snapshot " << t << " at " << stripes
          << " stripes — per-snapshot scratch is leaking into fresh "
             "allocations";
    }
  }
}

TEST(ScratchArenaTest, RebuildPathStopsGrowingHeap) {
  // Every object jumps to a fresh uniform position each snapshot, so no
  // two consecutive snapshots share any geometry.
  Pcg32 rng(912);
  SnapshotStream stream;
  for (int t = 0; t < 24; ++t) {
    stream.push_back(testing_util::RandomSnapshot(150, 500.0, rng));
  }
  for (int stripes : {1, 2}) {
    DbscanParams params;
    params.epsilon = 18.0;
    params.mu = 3;
    params.threads = stripes;
    SnapshotClusterer clusterer(params);
    SweepCost cost;
    for (const Snapshot& s : stream) clusterer.Cluster(s, nullptr, &cost);
    EXPECT_GT(cost.batches, 0);
    const size_t steady = clusterer.ScratchBytes();
    EXPECT_GT(steady, 0u) << "scratch is not being used at all";
    for (size_t t = 0; t < stream.size(); ++t) {
      clusterer.Cluster(stream[t], nullptr);
      EXPECT_EQ(clusterer.ScratchBytes(), steady)
          << "scratch grew at snapshot " << t << " at " << stripes
          << " stripes";
    }
  }
}

}  // namespace
}  // namespace tcomp
