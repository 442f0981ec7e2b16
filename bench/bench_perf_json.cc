// Perf-trajectory harness: times the striped ε sweep against the serial
// one and emits one JSON record on stdout (tools/bench_json.py wraps
// this into BENCH_PR<n>.json).
//
//   sharded — SC end-to-end at shards ∈ {1, 2, 4, 8}, the stripe count
//     of the C-step's ε sweep (DbscanParams::threads, `--shards`).
//     Products (digest over the companion log) and distance_ops must be
//     identical at every count. The recorded provenance
//     (tools/bench_json.py) says which machine produced the numbers.
//   stage_metrics — one instrumented CI/SC/BU pass with the per-stage
//     latency histograms.
//
// Every timed comparison is preceded by warmup_iters untimed passes.
// Flags: --quick (small smoke workload), --objects N, --snapshots N,
//        --reps N, --warmup N.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/dbscan.h"
#include "core/discoverer.h"
#include "obs/discovery_metrics.h"
#include "data/group_model.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "util/flags.h"
#include "util/timer.h"

namespace tcomp {
namespace {

struct HarnessConfig {
  int objects = 800;
  int snapshots = 96;
  int e2e_reps = 3;
  /// Untimed full passes (per mode) before the timed reps: fills the page
  /// cache, warms the branch predictors and the allocator, and gets CPU
  /// frequency scaling out of its idle state so rep 0 is not
  /// systematically slower than the rest.
  int warmup_iters = 1;
};

double SafeRatio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Order-sensitive digest over the full companion log — object sets,
/// durations (exact bits), and first-qualification indices. Two runs with
/// equal digests produced byte-identical discovery products.
uint64_t CompanionDigest(const CompanionLog& log) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const Companion& c : log.companions()) {
    mix(c.objects.size());
    for (ObjectId o : c.objects) mix(static_cast<uint64_t>(o));
    uint64_t duration_bits = 0;
    std::memcpy(&duration_bits, &c.duration, sizeof(duration_bits));
    mix(duration_bits);
    mix(static_cast<uint64_t>(c.snapshot_index));
  }
  return h;
}

struct ShardedResult {
  std::string scenario;
  int shards = 1;
  int objects = 0;
  double seconds = 0.0;          // best-of-reps full ProcessSnapshot loop
  double cluster_seconds = 0.0;  // best-of-reps C-step stage time
  int64_t distance_ops = 0;
  size_t companions = 0;
  uint64_t digest = 0;
  // Companions and distance_ops equal the scenario's shards=1 entry's.
  bool identical_products = false;
};

/// One scenario across every shard count, with the shard counts
/// alternating *within* each rep (paired measurement): machine drift
/// spanning seconds hits every shard count alike instead of biasing the
/// speedup ratios.
std::vector<ShardedResult> BenchShardedScenario(
    const std::string& scenario, const DiscoveryParams& params,
    const SnapshotStream& stream, int objects,
    const std::vector<int>& shard_counts, int reps, int warmup) {
  std::vector<ShardedResult> out(shard_counts.size());
  for (size_t i = 0; i < shard_counts.size(); ++i) {
    out[i].scenario = scenario;
    out[i].shards = shard_counts[i];
    out[i].objects = objects;
  }
  auto run = [&](size_t ci, bool timed, int rep) {
    ShardedResult& r = out[ci];
    DiscoveryParams striped = params;
    striped.cluster.threads = r.shards;
    std::unique_ptr<CompanionDiscoverer> d =
        MakeDiscoverer(Algorithm::kSmartClosed, striped);
    Timer t;
    t.Start();
    for (const Snapshot& s : stream) d->ProcessSnapshot(s, nullptr);
    t.Stop();
    if (!timed) return;
    if (rep == 0 || t.Seconds() < r.seconds) r.seconds = t.Seconds();
    const double cluster = d->stats().cluster_seconds;
    if (rep == 0 || cluster < r.cluster_seconds) r.cluster_seconds = cluster;
    if (rep == 0) {
      r.distance_ops = d->stats().distance_ops;
      r.companions = d->log().companions().size();
      r.digest = CompanionDigest(d->log());
    }
  };
  for (int w = 0; w < warmup; ++w) {
    for (size_t ci = 0; ci < out.size(); ++ci) run(ci, /*timed=*/false, 0);
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t ci = 0; ci < out.size(); ++ci) run(ci, /*timed=*/true, rep);
  }
  for (ShardedResult& r : out) {
    r.identical_products = r.digest == out[0].digest &&
                           r.companions == out[0].companions &&
                           r.distance_ops == out[0].distance_ops;
  }
  return out;
}

/// One instrumented pass per algorithm with the obs stage sink attached:
/// the BENCH JSON carries the full per-stage latency histogram snapshot
/// (registry JSON), so a perf regression can be localized to a stage
/// straight from the recorded file. Runs after the timed comparisons —
/// instrumentation overhead (nanoseconds per stage) never touches them.
std::string StageMetricsJson(const DiscoveryParams& params,
                             const SnapshotStream& stream) {
  MetricsRegistry registry;
  MetricsStageSink sink(&registry);
  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed,
        Algorithm::kBuddy}) {
    std::unique_ptr<CompanionDiscoverer> d = MakeDiscoverer(algorithm, params);
    d->set_stage_sink(&sink);
    for (const Snapshot& s : stream) d->ProcessSnapshot(s, nullptr);
    if (algorithm == Algorithm::kBuddy) {
      ExportDiscoveryMetrics(d->stats(),
                             static_cast<int64_t>(d->log().size()),
                             &registry);
    }
  }
  return registry.JsonText();
}

int Main(int argc, char** argv) {
  FlagParser flags;
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  HarnessConfig config;
  if (flags.GetBool("quick", false)) {
    config.objects = 240;
    config.snapshots = 24;
    config.e2e_reps = 1;
  }
  config.objects = flags.GetInt("objects", config.objects);
  config.snapshots = flags.GetInt("snapshots", config.snapshots);
  config.e2e_reps = flags.GetInt("reps", config.e2e_reps);
  config.warmup_iters = flags.GetInt("warmup", config.warmup_iters);

  GroupModelOptions options;
  options.num_objects = config.objects;
  options.num_snapshots = config.snapshots;
  // Group density comparable to the differential-test stream (90 objects
  // on a 1600-unit square) at any population.
  options.area_size = 170.0 * std::sqrt(static_cast<double>(config.objects));
  options.min_group_size = flags.GetInt("group-min", 16);
  options.max_group_size = flags.GetInt("group-max", 32);
  options.split_probability = 0.015;
  options.leave_probability = 0.008;
  options.seed = 404;
  GroupDataset data = GenerateGroupStream(options);

  DiscoveryParams params;
  params.cluster.epsilon = 18.0;
  params.cluster.mu = 3;
  params.size_threshold = 5;
  params.duration_threshold = 7;

  // Striped C-step scenarios, at 3x the base population (density fixed
  // via the sqrt-area rule) — at small populations the sweep clamps to
  // few stripes and the per-snapshot fixed costs drown the comparison.
  // `coherent_multi_tile` keeps the base stream's dynamics: coherent
  // groups sweeping a world hundreds of ε-cells wide. `transit_burst` adds
  // heavy group splits/departures on top (terminal-transit bursts:
  // companions keep dissolving and reforming), so cluster structure is
  // unstable snapshot to snapshot.
  GroupModelOptions tile_options = options;
  tile_options.num_objects = config.objects * 3;
  tile_options.area_size =
      170.0 * std::sqrt(static_cast<double>(tile_options.num_objects));
  GroupDataset tile = GenerateGroupStream(tile_options);
  GroupModelOptions burst_options = tile_options;
  burst_options.split_probability = 0.10;
  burst_options.leave_probability = 0.05;
  burst_options.seed = 406;
  GroupDataset burst = GenerateGroupStream(burst_options);
  const std::vector<int> shard_counts = {1, 2, 4, 8};
  std::vector<ShardedResult> sharded = BenchShardedScenario(
      "coherent_multi_tile", params, tile.stream, tile_options.num_objects,
      shard_counts, config.e2e_reps, config.warmup_iters);
  {
    std::vector<ShardedResult> more = BenchShardedScenario(
        "transit_burst", params, burst.stream, burst_options.num_objects,
        shard_counts, config.e2e_reps, config.warmup_iters);
    sharded.insert(sharded.end(), more.begin(), more.end());
  }

  std::ostream& out = std::cout;
  out << "{\n";
  out << "  \"config\": {\"objects\": " << config.objects
      << ", \"snapshots\": " << config.snapshots
      << ", \"e2e_reps\": " << config.e2e_reps
      << ", \"warmup_iters\": " << config.warmup_iters << "},\n";
  out << "  \"sharded\": [\n";
  for (size_t i = 0; i < sharded.size(); ++i) {
    const ShardedResult& r = sharded[i];
    const ShardedResult& base = sharded[i / 4 * 4];  // scenario's shards=1
    out << "    {\"scenario\": \"" << r.scenario << "\""
        << ", \"algorithm\": \"SC\""
        << ", \"shards\": " << r.shards
        << ", \"objects\": " << r.objects
        << ", \"snapshots\": " << config.snapshots
        << ", \"seconds\": " << r.seconds
        << ", \"snapshots_per_sec\": " << SafeRatio(config.snapshots, r.seconds)
        << ", \"speedup_vs_1\": " << SafeRatio(base.seconds, r.seconds)
        << ", \"cluster_seconds\": " << r.cluster_seconds
        << ", \"cluster_speedup_vs_1\": "
        << SafeRatio(base.cluster_seconds, r.cluster_seconds)
        << ", \"distance_ops\": " << r.distance_ops
        << ", \"companions\": " << r.companions
        << ", \"identical_products\": "
        << (r.identical_products ? "true" : "false") << "}"
        << (i + 1 < sharded.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  // Registry JSON is itself a complete object ending in '\n'; embed it as
  // the final member.
  out << "  \"stage_metrics\": " << StageMetricsJson(params, data.stream);
  out << "}\n";

  // Smoke contract: the stripe count may change neither a product nor
  // the distance_ops count.
  bool ok = true;
  for (const ShardedResult& r : sharded) ok = ok && r.identical_products;
  if (!ok) {
    std::cerr << "FAIL: striped and serial runs disagree on products or "
                 "distance_ops\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tcomp

int main(int argc, char** argv) { return tcomp::Main(argc, argv); }
