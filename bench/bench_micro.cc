// Google-benchmark microbenchmarks for the hot kernels: snapshot
// clustering (plain O(n²) DBSCAN vs grid DBSCAN vs buddy-based), buddy
// maintenance, and the sorted-set intersection primitives.

#include <benchmark/benchmark.h>

#include "core/buddy.h"
#include "core/buddy_clustering.h"
#include "core/dbscan.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/set_signature.h"
#include "util/sorted_ops.h"

namespace tcomp {
namespace {

Snapshot MakeClusteredSnapshot(int n) {
  Pcg32 rng(7);
  int clusters = n / 25;
  return testing_util::ClusteredSnapshot(clusters, 20, n - clusters * 20,
                                         std::sqrt(n) * 40.0, 1.5, rng);
}

void BM_Dbscan(benchmark::State& state) {
  Snapshot s = MakeClusteredSnapshot(static_cast<int>(state.range(0)));
  DbscanParams params{6.0, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dbscan(s, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dbscan)->Range(100, 4000)->Complexity(benchmark::oNSquared);

void BM_DbscanGrid(benchmark::State& state) {
  Snapshot s = MakeClusteredSnapshot(static_cast<int>(state.range(0)));
  DbscanParams params{6.0, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(DbscanGrid(s, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DbscanGrid)->Range(100, 4000);

void BM_BuddyClustering(benchmark::State& state) {
  Snapshot s = MakeClusteredSnapshot(static_cast<int>(state.range(0)));
  DbscanParams params{6.0, 4};
  BuddySet buddies(3.0);
  buddies.Initialize(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuddyBasedClustering(s, buddies, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuddyClustering)->Range(100, 4000);

void BM_BuddyMaintenance(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Snapshot s = MakeClusteredSnapshot(n);
  BuddySet buddies(3.0);
  buddies.Initialize(s);
  // Drift the population a little between updates.
  Pcg32 rng(13);
  std::vector<ObjectPosition> positions;
  for (size_t i = 0; i < s.size(); ++i) {
    positions.push_back(ObjectPosition{s.id(i), s.pos(i)});
  }
  for (auto _ : state) {
    for (ObjectPosition& p : positions) {
      p.pos.x += rng.NextDouble(-0.5, 0.5);
      p.pos.y += rng.NextDouble(-0.5, 0.5);
    }
    Snapshot next(positions, 1.0);
    buddies.Update(next, nullptr);
    benchmark::DoNotOptimize(buddies.buddies().size());
  }
}
BENCHMARK(BM_BuddyMaintenance)->Range(100, 4000);

void BM_SortedIntersect(benchmark::State& state) {
  Pcg32 rng(3);
  std::vector<ObjectId> a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back(rng.NextBounded(100000));
    b.push_back(rng.NextBounded(100000));
  }
  SortUnique(&a);
  SortUnique(&b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersect(a, b));
  }
}
BENCHMARK(BM_SortedIntersect)->Range(16, 4096);

void BM_SignaturePrefilter(benchmark::State& state) {
  Pcg32 rng(9);
  std::vector<ObjectId> outer, inner;
  for (int i = 0; i < state.range(0); ++i) {
    outer.push_back(rng.NextBounded(100000));
    inner.push_back(rng.NextBounded(100000));
  }
  SortUnique(&outer);
  SortUnique(&inner);
  const SetSignature outer_sig = SetSignature::Of(outer);
  const SetSignature inner_sig = SetSignature::Of(inner);
  for (auto _ : state) {
    benchmark::DoNotOptimize(inner_sig.MaybeSubsetOf(outer_sig));
  }
}
BENCHMARK(BM_SignaturePrefilter)->Range(16, 4096);

void BM_BuddyInitialize(benchmark::State& state) {
  Snapshot s = MakeClusteredSnapshot(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    BuddySet buddies(3.0);
    buddies.Initialize(s);
    benchmark::DoNotOptimize(buddies.buddies().size());
  }
}
BENCHMARK(BM_BuddyInitialize)->Range(100, 4000);

}  // namespace
}  // namespace tcomp

BENCHMARK_MAIN();
