// tcomp — command-line interface to the traveling-companion library.
//
// Subcommands:
//   generate  write a synthetic dataset as record CSV (+ ground truth)
//   discover  run companion discovery over a record CSV
//   help      usage
//
// Examples:
//   tcomp generate --dataset d2 --snapshots 60 --out d2.csv --truth d2.truth
//   tcomp discover --csv d2.csv --algo bu --epsilon 24 --mu 5
//       --min-size 10 --min-duration 10 --window-seconds 60
//       --truth d2.truth --timeline
//   tcomp discover --csv d2.csv --algo bu ... --save-state s.ckpt
//   tcomp discover --csv d2_rest.csv --algo bu ... --load-state s.ckpt

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "core/checkpoint.h"
#include "core/discoverer.h"
#include "obs/discovery_metrics.h"
#include "core/timeline.h"
#include "data/synthetic_gen.h"
#include "data/trajectory_io.h"
#include "eval/export.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "eval/tuning.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "service/binary_protocol.h"
#include "service/lifecycle.h"
#include "service/pipeline.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "stream/inactive_period.h"
#include "stream/sliding_window.h"
#include "tools/blast.h"
#include "util/flags.h"
#include "util/timer.h"

namespace tcomp {
namespace {

int Usage() {
  std::printf(
      "tcomp — traveling companion discovery (ICDE 2012 reproduction)\n"
      "\n"
      "  tcomp generate --dataset d1|d2|d3|d4 [--snapshots N]\n"
      "      --out records.csv [--truth truth.txt] [--seconds-per-snapshot S]\n"
      "  tcomp discover --csv records.csv [--algo ci|sc|bu]\n"
      "      --epsilon E --mu M --min-size S --min-duration T\n"
      "      [--threads N]  (BU fans its maintenance, core-flag and\n"
      "                      intersection loops out over N threads; CI and\n"
      "                      SC ignore it; results are identical at every\n"
      "                      N, 1 = serial, default 1)\n"
      "      [--window-seconds W | --window-objects N]\n"
      "      [--inactive K] [--truth truth.txt] [--timeline]\n"
      "      [--out-json FILE] [--out-csv FILE]\n"
      "      [--stats-json FILE]  (per-stage latency histograms + counters)\n"
      "      [--slow-snapshot-ms MS]  (warn with stage breakdown when a\n"
      "                                snapshot exceeds MS; 0 = off)\n"
      "      [--save-state FILE] [--load-state FILE] [--quiet]\n"
      "  tcomp suggest --csv records.csv [--k K] [--window-seconds W]\n"
      "  tcomp serve [--port P] [--port-file FILE] [--algo ci|sc|bu]\n"
      "      --epsilon E --mu M --min-size S --min-duration T [--threads N]\n"
      "      [--shards N]  (sharded snapshot clustering; products are\n"
      "                     byte-identical at every N, 1 = single worker,\n"
      "                     default 1; BU falls back to 1 with a warning)\n"
      "      [--window-seconds W | --window-objects N] [--inactive K]\n"
      "      [--queue-capacity C] [--backpressure block|shed|reject]\n"
      "      [--lateness SECONDS] [--checkpoint FILE]\n"
      "      [--checkpoint-every SNAPSHOTS] [--read-timeout-ms MS]\n"
      "      [--write-timeout-ms MS] [--write-window-bytes B]\n"
      "      [--max-connections N] [--slow-snapshot-ms MS]\n"
      "      [--admission-max-shed-rate F] [--admission-max-p99-ms MS]\n"
      "      [--admission-policy reject|shed]  (new connections are\n"
      "                     turned away while the pipeline is overloaded)\n"
      "  tcomp feed --csv records.csv --port P [--rate RECORDS_PER_SEC]\n"
      "      [--binary] [--batch N]  (length-prefixed INGEST batches over\n"
      "                     the binary protocol; N records per frame)\n"
      "      [--flush] [--query companions|stats|buddies|metrics]\n"
      "      [--out FILE] [--shutdown] [--quiet]\n"
      "  tcomp blast [--clients N] [--curve RPS,RPS,...] [--seconds S]\n"
      "      [--protocol text|binary|both] [--batch N] [--objects N]\n"
      "      [--snapshots N] [--seed N] [--no-verify] [--json FILE]\n"
      "      [--algo ci|sc|bu] [--epsilon E] [--mu M] [--min-size S]\n"
      "      [--min-duration T] [--threads N] [--queue-capacity C]\n"
      "      [--window-seconds W | --window-objects N] [--inactive K]\n"
      "      (self-hosted saturation benchmark: N paced clients per\n"
      "       offered-load point; reports records/sec, ack latency\n"
      "       percentiles, and shed fraction, plus a serve-vs-batch\n"
      "       product identity check per protocol)\n");
  return 2;
}

/// Strict flag validation: a flag the subcommand does not understand is
/// reported by name and fails the run — identically for every subcommand
/// (a typo like --epsilom must never silently run with defaults).
bool RejectUnknownFlags(const char* command, const FlagParser& flags,
                        std::initializer_list<const char*> allowed) {
  bool ok = true;
  for (const std::string& name : flags.names()) {
    bool known = false;
    for (const char* candidate : allowed) {
      if (name == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", command,
                   name.c_str());
      ok = false;
    }
  }
  return ok;
}

/// Reads a flag through the strict parser; a malformed value is reported
/// by name and fails the subcommand — same contract as unknown-flag
/// rejection (`--mu abc` must never silently run with the default).
template <typename T>
bool ReadFlag(const char* command, const FlagParser& flags,
              const char* name, T default_value, T* out) {
  Status s = flags.GetStrict(name, default_value, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", command, s.ToString().c_str());
    return false;
  }
  return true;
}

Status WriteTruth(const std::string& path,
                  const std::vector<ObjectSet>& truth) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  for (const ObjectSet& group : truth) {
    for (size_t i = 0; i < group.size(); ++i) {
      out << (i ? " " : "") << group[i];
    }
    out << "\n";
  }
  return Status::OK();
}

Status ReadTruth(const std::string& path, std::vector<ObjectSet>* truth) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ObjectSet group;
    std::istringstream row(line);
    ObjectId id;
    while (row >> id) group.push_back(id);
    if (!group.empty()) {
      std::sort(group.begin(), group.end());
      truth->push_back(std::move(group));
    }
  }
  if (in.bad()) {
    // A hard read error also ends the getline loop; only EOF is success.
    return Status::IoError("read error before end of " + path);
  }
  return Status::OK();
}

int Generate(const FlagParser& flags) {
  if (!RejectUnknownFlags("generate", flags,
                          {"dataset", "out", "truth", "snapshots", "seed",
                           "seconds-per-snapshot"})) {
    return Usage();
  }
  std::string which = flags.GetString("dataset", "d3");
  std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return Usage();
  }
  int snapshots = 0;
  int64_t seed_raw = 0;
  if (!ReadFlag("generate", flags, "snapshots", 0, &snapshots) ||
      !ReadFlag("generate", flags, "seed", int64_t{0}, &seed_raw)) {
    return Usage();
  }
  uint64_t seed = static_cast<uint64_t>(seed_raw);

  Dataset dataset;
  if (which == "d1") {
    dataset = MakeTaxiD1(snapshots > 0 ? snapshots : kD1Snapshots,
                         seed ? seed : 11);
  } else if (which == "d2") {
    dataset = MakeMilitaryD2(snapshots > 0 ? snapshots : kD2Snapshots,
                             seed ? seed : 7);
  } else if (which == "d3") {
    dataset = MakeSyntheticD3(snapshots > 0 ? snapshots : 240,
                              seed ? seed : 42);
  } else if (which == "d4") {
    dataset = MakeSyntheticD4(snapshots > 0 ? snapshots : 60,
                              seed ? seed : 43);
  } else {
    std::fprintf(stderr, "generate: unknown --dataset %s\n", which.c_str());
    return Usage();
  }

  double spacing = 60.0;
  if (!ReadFlag("generate", flags, "seconds-per-snapshot", 60.0, &spacing)) {
    return Usage();
  }
  std::vector<TrajectoryRecord> records =
      StreamToRecords(dataset.stream, spacing);
  Status s = WriteRecordCsv(out_path, records);
  if (!s.ok()) {
    std::fprintf(stderr, "generate: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu records (%zu snapshots, %zu objects) to %s\n",
              records.size(), dataset.stream.size(),
              dataset.stream.empty() ? 0 : dataset.stream[0].size(),
              out_path.c_str());

  std::string truth_path = flags.GetString("truth", "");
  if (!truth_path.empty()) {
    if (dataset.ground_truth.empty()) {
      std::fprintf(stderr,
                   "generate: dataset %s has no ground truth; skipping\n",
                   which.c_str());
    } else {
      Status ts = WriteTruth(truth_path, dataset.ground_truth);
      if (!ts.ok()) {
        std::fprintf(stderr, "generate: %s\n", ts.ToString().c_str());
        return 1;
      }
      std::printf("wrote %zu ground-truth groups to %s\n",
                  dataset.ground_truth.size(), truth_path.c_str());
    }
  }
  std::printf("suggested thresholds: --epsilon %.1f --mu %d\n",
              dataset.default_params.cluster.epsilon,
              dataset.default_params.cluster.mu);
  return 0;
}

int Discover(const FlagParser& flags) {
  if (!RejectUnknownFlags(
          "discover", flags,
          {"csv", "algo", "epsilon", "mu", "min-size", "min-duration",
           "threads", "window-seconds", "window-objects", "inactive",
           "truth", "timeline", "out-json", "out-csv", "stats-json",
           "slow-snapshot-ms", "save-state", "load-state", "quiet"})) {
    return Usage();
  }
  std::string csv = flags.GetString("csv", "");
  if (csv.empty()) {
    std::fprintf(stderr, "discover: --csv is required\n");
    return Usage();
  }
  std::vector<TrajectoryRecord> records;
  Status s = ReadRecordCsv(csv, &records);
  if (!s.ok()) {
    std::fprintf(stderr, "discover: %s\n", s.ToString().c_str());
    return 1;
  }

  DiscoveryParams params;
  int threads = 1;
  if (!ReadFlag("discover", flags, "epsilon", 20.0,
                &params.cluster.epsilon) ||
      !ReadFlag("discover", flags, "mu", 4, &params.cluster.mu) ||
      !ReadFlag("discover", flags, "min-size", 10,
                &params.size_threshold) ||
      !ReadFlag("discover", flags, "min-duration", 10.0,
                &params.duration_threshold) ||
      !ReadFlag("discover", flags, "threads", 1, &threads)) {
    return Usage();
  }
  if (threads < 1) {
    std::fprintf(stderr, "discover: --threads must be >= 1\n");
    return Usage();
  }
  params.cluster.threads = threads;

  std::string algo_name = flags.GetString("algo", "bu");
  Algorithm algorithm;
  if (algo_name == "ci") {
    algorithm = Algorithm::kClusteringIntersection;
  } else if (algo_name == "sc") {
    algorithm = Algorithm::kSmartClosed;
  } else if (algo_name == "bu") {
    algorithm = Algorithm::kBuddy;
  } else {
    std::fprintf(stderr, "discover: unknown --algo %s\n",
                 algo_name.c_str());
    return Usage();
  }
  auto discoverer = MakeDiscoverer(algorithm, params);

  CompanionTimeline timeline;
  bool want_timeline = false;
  bool quiet = false;
  int window_objects = 100;
  double window_seconds = 60.0;
  int inactive = 0;
  if (!ReadFlag("discover", flags, "timeline", false, &want_timeline) ||
      !ReadFlag("discover", flags, "quiet", false, &quiet) ||
      !ReadFlag("discover", flags, "window-objects", 100,
                &window_objects) ||
      !ReadFlag("discover", flags, "window-seconds", 60.0,
                &window_seconds) ||
      !ReadFlag("discover", flags, "inactive", 0, &inactive)) {
    return Usage();
  }
  // The filler's last sightings are stream state: they ride in the
  // checkpoint beside the discoverer's.
  InactivePeriodFiller filler(inactive);

  std::string load_state = flags.GetString("load-state", "");
  if (!load_state.empty()) {
    Status ls = LoadDiscovererFromFile(discoverer.get(), load_state, &filler);
    if (!ls.ok()) {
      std::fprintf(stderr, "discover: %s\n", ls.ToString().c_str());
      return 1;
    }
    std::printf("resumed from %s (%lld snapshots processed so far)\n",
                load_state.c_str(),
                static_cast<long long>(discoverer->stats().snapshots));
  }
  if (want_timeline) timeline.Track(discoverer.get());

  // Observability mirrors the daemon path: the stage sink is always
  // attached (timing only — products are differential-tested to be
  // byte-identical with it on), --stats-json dumps the registry at the
  // end, and --slow-snapshot-ms mirrors the serve-side warning log.
  double slow_snapshot_ms = 0.0;
  if (!ReadFlag("discover", flags, "slow-snapshot-ms", 0.0,
                &slow_snapshot_ms)) {
    return Usage();
  }
  std::string stats_json = flags.GetString("stats-json", "");
  MetricsRegistry registry;
  MetricsStageSink stage_sink(&registry);
  discoverer->set_stage_sink(&stage_sink);

  SlidingWindowOptions wopts;
  if (flags.Has("window-objects")) {
    wopts.mode = WindowMode::kEqualWidth;
    wopts.min_objects = static_cast<size_t>(window_objects);
  } else {
    wopts.mode = WindowMode::kEqualLength;
    wopts.window_length = window_seconds;
  }
  SlidingWindowSnapshotter window(wopts);
  int64_t snapshots = 0;
  std::vector<Snapshot> ready;
  auto process = [&](const Snapshot& snap) {
    std::vector<Companion> newly;
    Timer close_timer;
    close_timer.Start();
    discoverer->ProcessSnapshot(filler.Fill(snap), &newly);
    close_timer.Stop();
    stage_sink.RecordStage(Stage::kSnapshotClose, close_timer.Seconds());
    ++snapshots;
    double wall_ms = close_timer.Seconds() * 1e3;
    if (slow_snapshot_ms > 0.0 && wall_ms > slow_snapshot_ms) {
      std::fprintf(
          stderr,
          "discover: slow snapshot: index=%lld wall_ms=%.3f "
          "maintain_ms=%.3f cluster_ms=%.3f intersect_ms=%.3f "
          "closure_ms=%.3f objects=%zu\n",
          static_cast<long long>(snapshots), wall_ms,
          stage_sink.last_seconds(Stage::kMaintain) * 1e3,
          stage_sink.last_seconds(Stage::kCluster) * 1e3,
          stage_sink.last_seconds(Stage::kIntersect) * 1e3,
          stage_sink.last_seconds(Stage::kClosure) * 1e3, snap.size());
    }
    if (!quiet) {
      for (const Companion& c : newly) {
        std::printf("[snapshot %lld] companion of %zu objects, together "
                    "%.1f units:",
                    static_cast<long long>(snapshots), c.objects.size(),
                    c.duration);
        for (size_t i = 0; i < std::min<size_t>(8, c.objects.size());
             ++i) {
          std::printf(" %u", c.objects[i]);
        }
        if (c.objects.size() > 8) std::printf(" ...");
        std::printf("\n");
      }
    }
  };
  for (const TrajectoryRecord& r : records) {
    Status ps = window.Push(r, &ready);
    if (!ps.ok()) {
      std::fprintf(stderr, "discover: %s\n", ps.ToString().c_str());
      return 1;
    }
    for (const Snapshot& snap : ready) process(snap);
    ready.clear();
  }
  window.Flush(&ready);
  for (const Snapshot& snap : ready) process(snap);

  const DiscoveryStats& stats = discoverer->stats();
  std::printf("\n%s over %lld snapshots: %zu distinct companions, "
              "%lld intersections, peak candidate size %lld\n",
              discoverer->name().c_str(),
              static_cast<long long>(stats.snapshots),
              discoverer->log().size(),
              static_cast<long long>(stats.intersections),
              static_cast<long long>(stats.candidate_objects_peak));

  std::string truth_path = flags.GetString("truth", "");
  if (!truth_path.empty()) {
    std::vector<ObjectSet> truth;
    Status ts = ReadTruth(truth_path, &truth);
    if (!ts.ok()) {
      std::fprintf(stderr, "discover: %s\n", ts.ToString().c_str());
      return 1;
    }
    std::vector<ObjectSet> retrieved;
    for (const Companion& c : discoverer->log().companions()) {
      retrieved.push_back(c.objects);
    }
    EffectivenessResult strict = ScoreCompanions(retrieved, truth);
    EffectivenessResult coverage =
        ScoreCompanionsCoverage(retrieved, truth, 0.35);
    std::printf("vs ground truth (%zu groups): one-to-one precision "
                "%.1f%% recall %.1f%%; coverage precision %.1f%%\n",
                truth.size(), 100.0 * strict.precision,
                100.0 * strict.recall, 100.0 * coverage.precision);
  }

  if (want_timeline) {
    std::printf("\ncompanion timeline (%zu distinct sets):\n",
                timeline.distinct_sets());
    int shown = 0;
    for (const CompanionEpisode& e : timeline.Episodes()) {
      if (shown++ >= 15) {
        std::printf("  ...\n");
        break;
      }
      std::printf("  %zu objects, snapshots %lld..%lld (%lld long)\n",
                  e.objects.size(), static_cast<long long>(e.begin),
                  static_cast<long long>(e.end),
                  static_cast<long long>(e.length()));
    }
  }

  std::string out_json = flags.GetString("out-json", "");
  if (!out_json.empty()) {
    Status os = WriteCompanionsJsonFile(discoverer->log().companions(),
                                        out_json);
    if (!os.ok()) {
      std::fprintf(stderr, "discover: %s\n", os.ToString().c_str());
      return 1;
    }
    std::printf("companions written to %s\n", out_json.c_str());
  }
  std::string out_csv = flags.GetString("out-csv", "");
  if (!out_csv.empty()) {
    Status os = WriteCompanionsCsvFile(discoverer->log().companions(),
                                       out_csv);
    if (!os.ok()) {
      std::fprintf(stderr, "discover: %s\n", os.ToString().c_str());
      return 1;
    }
    std::printf("companions written to %s\n", out_csv.c_str());
  }

  if (!stats_json.empty()) {
    ExportDiscoveryMetrics(discoverer->stats(),
                           static_cast<int64_t>(discoverer->log().size()),
                           &registry);
    std::ofstream out(stats_json);
    out << registry.JsonText();
    out.flush();  // the error check must see buffered write failures
    if (!out) {
      std::fprintf(stderr, "discover: cannot write %s\n",
                   stats_json.c_str());
      return 1;
    }
    std::printf("stage metrics written to %s\n", stats_json.c_str());
  }

  std::string save_state = flags.GetString("save-state", "");
  if (!save_state.empty()) {
    Status ss = SaveDiscovererToFile(*discoverer, save_state, &filler);
    if (!ss.ok()) {
      std::fprintf(stderr, "discover: %s\n", ss.ToString().c_str());
      return 1;
    }
    std::printf("state saved to %s\n", save_state.c_str());
  }
  return 0;
}

int Suggest(const FlagParser& flags) {
  if (!RejectUnknownFlags("suggest", flags,
                          {"csv", "k", "window-seconds"})) {
    return Usage();
  }
  std::string csv = flags.GetString("csv", "");
  if (csv.empty()) {
    std::fprintf(stderr, "suggest: --csv is required\n");
    return Usage();
  }
  std::vector<TrajectoryRecord> records;
  Status s = ReadRecordCsv(csv, &records);
  if (!s.ok()) {
    std::fprintf(stderr, "suggest: %s\n", s.ToString().c_str());
    return 1;
  }
  SlidingWindowOptions wopts;
  int k = 4;
  if (!ReadFlag("suggest", flags, "window-seconds", 60.0,
                &wopts.window_length) ||
      !ReadFlag("suggest", flags, "k", 4, &k)) {
    return Usage();
  }
  SlidingWindowSnapshotter window(wopts);
  SnapshotStream stream;
  for (const TrajectoryRecord& r : records) {
    Status ps = window.Push(r, &stream);
    if (!ps.ok()) {
      std::fprintf(stderr, "suggest: %s\n", ps.ToString().c_str());
      return 1;
    }
  }
  window.Flush(&stream);
  TuningSuggestion suggestion = SuggestClusterParams(stream, k);
  std::printf("suggested thresholds from %zu snapshots: --epsilon %.2f "
              "--mu %d  (k-distance knee; ~%.1f%% of objects beyond it)\n",
              stream.size(), suggestion.params.epsilon,
              suggestion.params.mu, 100.0 * suggestion.noise_fraction);
  return 0;
}

/// Shared by serve: parse the discovery/window options exactly as
/// Discover does, so the daemon and batch paths agree flag for flag.
bool ParseDiscoveryOptions(const char* command, const FlagParser& flags,
                           ServicePipelineOptions* opts) {
  int threads = 1;
  if (!ReadFlag(command, flags, "epsilon", 20.0,
                &opts->params.cluster.epsilon) ||
      !ReadFlag(command, flags, "mu", 4, &opts->params.cluster.mu) ||
      !ReadFlag(command, flags, "min-size", 10,
                &opts->params.size_threshold) ||
      !ReadFlag(command, flags, "min-duration", 10.0,
                &opts->params.duration_threshold) ||
      !ReadFlag(command, flags, "threads", 1, &threads)) {
    return false;
  }
  if (threads < 1) {
    std::fprintf(stderr, "%s: --threads must be >= 1\n", command);
    return false;
  }
  opts->params.cluster.threads = threads;

  std::string algo_name = flags.GetString("algo", "bu");
  if (algo_name == "ci") {
    opts->algorithm = Algorithm::kClusteringIntersection;
  } else if (algo_name == "sc") {
    opts->algorithm = Algorithm::kSmartClosed;
  } else if (algo_name == "bu") {
    opts->algorithm = Algorithm::kBuddy;
  } else {
    std::fprintf(stderr, "%s: unknown --algo %s\n", command,
                 algo_name.c_str());
    return false;
  }

  int window_objects = 100;
  double window_seconds = 60.0;
  if (!ReadFlag(command, flags, "window-objects", 100, &window_objects) ||
      !ReadFlag(command, flags, "window-seconds", 60.0, &window_seconds) ||
      !ReadFlag(command, flags, "inactive", 0, &opts->inactive_fill)) {
    return false;
  }
  if (flags.Has("window-objects")) {
    opts->window.mode = WindowMode::kEqualWidth;
    opts->window.min_objects = static_cast<size_t>(window_objects);
  } else {
    opts->window.mode = WindowMode::kEqualLength;
    opts->window.window_length = window_seconds;
  }
  return true;
}

int Serve(const FlagParser& flags) {
  if (!RejectUnknownFlags(
          "serve", flags,
          {"port", "port-file", "algo", "epsilon", "mu", "min-size",
           "min-duration", "threads", "shards", "window-seconds",
           "window-objects", "inactive", "queue-capacity", "backpressure",
           "lateness", "checkpoint", "checkpoint-every", "read-timeout-ms",
           "write-timeout-ms", "write-window-bytes", "max-connections",
           "admission-max-shed-rate", "admission-max-p99-ms",
           "admission-policy", "slow-snapshot-ms"})) {
    return Usage();
  }
  ServicePipelineOptions popts;
  if (!ParseDiscoveryOptions("serve", flags, &popts)) return Usage();

  int shards = 1;
  if (!ReadFlag("serve", flags, "shards", 1, &shards)) return Usage();
  if (shards < 1 || shards > 64) {
    std::fprintf(stderr, "serve: --shards must be in [1, 64]\n");
    return Usage();
  }
  popts.shards = shards;

  int capacity = 4096;
  if (!ReadFlag("serve", flags, "queue-capacity", 4096, &capacity)) {
    return Usage();
  }
  if (capacity < 1) {
    std::fprintf(stderr, "serve: --queue-capacity must be >= 1\n");
    return Usage();
  }
  popts.queue_capacity = static_cast<size_t>(capacity);
  Status ms = ParseBackpressureMode(
      flags.GetString("backpressure", "block"), &popts.backpressure);
  if (!ms.ok()) {
    std::fprintf(stderr, "serve: %s\n", ms.ToString().c_str());
    return Usage();
  }
  if (!ReadFlag("serve", flags, "lateness", 0.0,
                &popts.allowed_lateness) ||
      !ReadFlag("serve", flags, "checkpoint-every", int64_t{0},
                &popts.checkpoint_every) ||
      !ReadFlag("serve", flags, "slow-snapshot-ms", 0.0,
                &popts.slow_snapshot_ms)) {
    return Usage();
  }
  popts.checkpoint_path = flags.GetString("checkpoint", "");

  ServicePipeline pipeline(popts);
  Status ps = pipeline.Start();
  if (!ps.ok()) {
    std::fprintf(stderr, "serve: %s\n", ps.ToString().c_str());
    return 1;
  }
  if (pipeline.Stats().resumed) {
    std::printf("serve: resumed from %s (%lld snapshots processed)\n",
                popts.checkpoint_path.c_str(),
                static_cast<long long>(
                    pipeline.Stats().discovery.snapshots));
  }

  ServerOptions sopts;
  int serve_port = 0;
  int64_t write_window = static_cast<int64_t>(sopts.write_backpressure_bytes);
  if (!ReadFlag("serve", flags, "port", 0, &serve_port) ||
      !ReadFlag("serve", flags, "read-timeout-ms", 60000,
                &sopts.read_timeout_ms) ||
      !ReadFlag("serve", flags, "write-timeout-ms", sopts.write_timeout_ms,
                &sopts.write_timeout_ms) ||
      !ReadFlag("serve", flags, "write-window-bytes", write_window,
                &write_window) ||
      !ReadFlag("serve", flags, "max-connections", 0,
                &sopts.max_connections) ||
      !ReadFlag("serve", flags, "admission-max-shed-rate", 0.0,
                &sopts.admission.max_shed_rate) ||
      !ReadFlag("serve", flags, "admission-max-p99-ms", 0.0,
                &sopts.admission.max_p99_ms)) {
    return Usage();
  }
  if (serve_port < 0 || serve_port > 65535) {
    std::fprintf(stderr, "serve: --port must be in [0, 65535]\n");
    return Usage();
  }
  if (write_window < 4096) {
    std::fprintf(stderr, "serve: --write-window-bytes must be >= 4096\n");
    return Usage();
  }
  sopts.write_backpressure_bytes = static_cast<size_t>(write_window);
  Status as = ParseAdmissionPolicy(
      flags.GetString("admission-policy", "reject"),
      &sopts.admission.policy);
  if (!as.ok()) {
    std::fprintf(stderr, "serve: %s\n", as.ToString().c_str());
    return Usage();
  }
  sopts.port = static_cast<uint16_t>(serve_port);
  CompanionServer server(&pipeline, sopts);
  Status ss = server.Start();
  if (!ss.ok()) {
    std::fprintf(stderr, "serve: %s\n", ss.ToString().c_str());
    return 1;
  }
  std::printf(
      "serve: listening on 127.0.0.1:%u (algo %s, backpressure %s, "
      "queue %d, shards %d)\n",
      server.port(), AlgorithmName(popts.algorithm),
      BackpressureModeName(popts.backpressure), capacity,
      pipeline.Stats().shards);
  std::fflush(stdout);
  std::string port_file = flags.GetString("port-file", "");
  if (!port_file.empty()) {
    // Written after listen succeeds: a script can poll for this file and
    // then connect, whatever port the kernel picked.
    std::ofstream out(port_file);
    out << server.port() << "\n";
    out.flush();  // the error check below must see write failures, too
    if (!out) {
      std::fprintf(stderr, "serve: cannot write %s\n", port_file.c_str());
      return 1;
    }
  }

  InstallShutdownSignalHandlers();
  Status run = RunServiceUntilShutdown(&server, &pipeline);
  if (ShutdownSignal() != 0) {
    std::printf("serve: caught signal %d, shut down gracefully\n",
                ShutdownSignal());
  }
  ServiceStats stats = pipeline.Stats();
  ServerCounters net = server.Counters();
  std::printf(
      "serve: processed %lld records into %lld snapshots; %lld distinct "
      "companions; %lld checkpoints; %lld sessions (%lld protocol "
      "errors)\n",
      static_cast<long long>(stats.records_ingested),
      static_cast<long long>(stats.discovery.snapshots),
      static_cast<long long>(stats.companions_distinct),
      static_cast<long long>(stats.checkpoints_written),
      static_cast<long long>(net.sessions_opened),
      static_cast<long long>(net.parse_errors));
  if (!run.ok()) {
    std::fprintf(stderr, "serve: %s\n", run.ToString().c_str());
    return 1;
  }
  return 0;
}

/// Client-side line transport for feed: framing over a StreamSocket with
/// a generous response-line cap (companion rows can be long).
class LineClient {
 public:
  Status Connect(uint16_t port) {
    return StreamSocket::Connect(port, /*timeout_ms=*/5000, &sock_);
  }
  Status Send(const std::string& data) {
    return sock_.WriteAll(data, /*timeout_ms=*/30000);
  }
  Status ReadLine(std::string* line) {
    for (;;) {
      LineFramer::Result r = framer_.Next(line);
      if (r == LineFramer::Result::kLine) return Status::OK();
      if (r == LineFramer::Result::kOversize) {
        return Status::Corruption("oversized response line");
      }
      char buf[4096];
      size_t n = 0;
      TCOMP_RETURN_IF_ERROR(
          sock_.Read(buf, sizeof(buf), /*timeout_ms=*/30000, &n));
      if (n == 0) return Status::IoError("server closed the connection");
      framer_.Feed(buf, n);
    }
  }

 private:
  StreamSocket sock_;
  LineFramer framer_{1 << 20};
};

/// Client-side frame transport for feed --binary.
class FrameClient {
 public:
  Status Connect(uint16_t port) {
    return StreamSocket::Connect(port, /*timeout_ms=*/5000, &sock_);
  }
  /// Sends one request frame and reads the matching response frame.
  Status Transact(const std::string& frame, BinaryResponse* response) {
    TCOMP_RETURN_IF_ERROR(sock_.WriteAll(frame, /*timeout_ms=*/30000));
    for (;;) {
      std::string error;
      BinaryResponseReader::Result r = reader_.Next(response, &error);
      if (r == BinaryResponseReader::Result::kFrame) return Status::OK();
      if (r == BinaryResponseReader::Result::kBad) {
        return Status::Corruption(error);
      }
      char buf[4096];
      size_t n = 0;
      TCOMP_RETURN_IF_ERROR(
          sock_.Read(buf, sizeof(buf), /*timeout_ms=*/30000, &n));
      if (n == 0) return Status::IoError("server closed the connection");
      reader_.Feed(buf, n);
    }
  }

 private:
  StreamSocket sock_;
  BinaryResponseReader reader_;
};

/// Reads the low 8 bytes of a payload as a uint64 LE (the refused-record
/// count of an OK INGEST_BATCH response).
uint64_t PayloadU64(const std::string& payload) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8 && i < payload.size(); ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(payload[i]))
         << (8 * i);
  }
  return v;
}

/// Writes a query payload body the way the text path does: to --out when
/// given, stdout otherwise.
int EmitQueryPayload(const FlagParser& flags, const std::string& query,
                     const std::string& payload, bool quiet) {
  std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    std::fputs(payload.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path);
  out << payload;
  out.flush();  // surface buffered write failures before reporting OK
  if (!out) {
    std::fprintf(stderr, "feed: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("feed: %s written to %s\n", query.c_str(),
                out_path.c_str());
  }
  return 0;
}

/// feed --binary: the same workflow as the text path (ingest, flush,
/// query, shutdown) over length-prefixed frames. Records travel as raw
/// IEEE-754 bits in batches, and a query's payload bytes are identical
/// to the text protocol's, so --out files are byte-comparable.
int FeedBinary(const FlagParser& flags,
               const std::vector<TrajectoryRecord>& records, uint16_t port,
               double rate, int batch, bool want_flush,
               const std::string& query, bool want_shutdown, bool quiet) {
  Request::QueryKind kind = Request::QueryKind::kCompanions;
  if (!query.empty()) {
    if (query == "companions") {
      kind = Request::QueryKind::kCompanions;
    } else if (query == "stats") {
      kind = Request::QueryKind::kStats;
    } else if (query == "buddies") {
      kind = Request::QueryKind::kBuddies;
    } else if (query == "metrics") {
      kind = Request::QueryKind::kMetrics;
    } else {
      std::fprintf(stderr, "feed: unknown --query %s\n", query.c_str());
      return Usage();
    }
  }

  FrameClient client;
  Status cs = client.Connect(port);
  if (!cs.ok()) {
    std::fprintf(stderr, "feed: %s\n", cs.ToString().c_str());
    return 1;
  }

  int64_t sent = 0;
  int64_t refused = 0;
  for (size_t i = 0; i < records.size();
       i += static_cast<size_t>(batch)) {
    size_t n = std::min(static_cast<size_t>(batch), records.size() - i);
    BinaryResponse response;
    Status ts = client.Transact(EncodeIngestBatch(&records[i], n),
                                &response);
    if (!ts.ok()) {
      std::fprintf(stderr, "feed: %s\n", ts.ToString().c_str());
      return 1;
    }
    if (response.type != static_cast<uint8_t>(BinaryResponseType::kOk)) {
      std::fprintf(stderr, "feed: ingest batch failed: %s\n",
                   response.payload.c_str());
      return 1;
    }
    sent += static_cast<int64_t>(n);
    refused += static_cast<int64_t>(PayloadU64(response.payload));
    if (rate > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(static_cast<double>(n) / rate));
    }
  }

  if (want_flush || !query.empty()) {
    BinaryResponse response;
    Status fs = client.Transact(
        EncodeBinaryRequest(BinaryRequestType::kFlush, 0, ""), &response);
    if (!fs.ok() ||
        response.type != static_cast<uint8_t>(BinaryResponseType::kOk)) {
      std::fprintf(stderr, "feed: flush failed: %s\n",
                   fs.ok() ? response.payload.c_str()
                           : fs.ToString().c_str());
      return 1;
    }
  }

  if (!query.empty()) {
    BinaryResponse response;
    Status qs = client.Transact(
        EncodeBinaryRequest(BinaryRequestType::kQuery,
                            static_cast<uint8_t>(kind), ""),
        &response);
    if (!qs.ok() ||
        response.type != static_cast<uint8_t>(BinaryResponseType::kOk)) {
      std::fprintf(stderr, "feed: query failed: %s\n",
                   qs.ok() ? response.payload.c_str()
                           : qs.ToString().c_str());
      return 1;
    }
    int rc = EmitQueryPayload(flags, query, response.payload, quiet);
    if (rc != 0) return rc;
  }

  if (want_shutdown) {
    BinaryResponse response;
    Status ds = client.Transact(
        EncodeBinaryRequest(BinaryRequestType::kShutdown, 0, ""),
        &response);
    if (!ds.ok() ||
        response.type != static_cast<uint8_t>(BinaryResponseType::kOk)) {
      std::fprintf(stderr, "feed: shutdown failed: %s\n",
                   ds.ok() ? response.payload.c_str()
                           : ds.ToString().c_str());
      return 1;
    }
  }

  if (!quiet && !records.empty()) {
    std::printf("feed: sent %lld records in %lld-record batches "
                "(%lld refused)\n",
                static_cast<long long>(sent),
                static_cast<long long>(batch),
                static_cast<long long>(refused));
  }
  return 0;
}

int Feed(const FlagParser& flags) {
  if (!RejectUnknownFlags("feed", flags,
                          {"csv", "port", "rate", "flush", "query", "out",
                           "shutdown", "quiet", "binary", "batch"})) {
    return Usage();
  }
  std::string csv = flags.GetString("csv", "");
  std::string query = flags.GetString("query", "");
  bool want_flush = false;
  bool want_shutdown = false;
  bool quiet = false;
  bool use_binary = false;
  int port = 0;
  int batch = 256;
  double rate = 0.0;
  if (!ReadFlag("feed", flags, "flush", false, &want_flush) ||
      !ReadFlag("feed", flags, "shutdown", false, &want_shutdown) ||
      !ReadFlag("feed", flags, "quiet", false, &quiet) ||
      !ReadFlag("feed", flags, "binary", false, &use_binary) ||
      !ReadFlag("feed", flags, "port", 0, &port) ||
      !ReadFlag("feed", flags, "batch", 256, &batch) ||
      !ReadFlag("feed", flags, "rate", 0.0, &rate)) {
    return Usage();
  }
  if (batch < 1 || static_cast<size_t>(batch) * kBinaryRecordBytes >
                       kMaxBinaryPayloadBytes) {
    std::fprintf(stderr, "feed: --batch out of range\n");
    return Usage();
  }
  if (csv.empty() && query.empty() && !want_flush && !want_shutdown) {
    std::fprintf(stderr,
                 "feed: nothing to do (need --csv, --query, --flush, "
                 "or --shutdown)\n");
    return Usage();
  }
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "feed: --port is required\n");
    return Usage();
  }

  std::vector<TrajectoryRecord> records;
  if (!csv.empty()) {
    Status rs = ReadRecordCsv(csv, &records);
    if (!rs.ok()) {
      std::fprintf(stderr, "feed: %s\n", rs.ToString().c_str());
      return 1;
    }
  }

  if (use_binary) {
    return FeedBinary(flags, records, static_cast<uint16_t>(port), rate,
                      batch, want_flush, query, want_shutdown, quiet);
  }

  LineClient client;
  Status cs = client.Connect(static_cast<uint16_t>(port));
  if (!cs.ok()) {
    std::fprintf(stderr, "feed: %s\n", cs.ToString().c_str());
    return 1;
  }

  auto transact = [&](const std::string& request,
                      std::string* reply) -> Status {
    TCOMP_RETURN_IF_ERROR(client.Send(request));
    return client.ReadLine(reply);
  };

  int64_t sent = 0;
  int64_t errors = 0;
  char line[256];
  for (const TrajectoryRecord& r : records) {
    // %.17g round-trips doubles exactly, so the daemon sees bit-identical
    // values to the batch path reading the same CSV.
    std::snprintf(line, sizeof(line), "INGEST %u %.17g %.17g %.17g\n",
                  r.object, r.timestamp, r.pos.x, r.pos.y);
    std::string reply;
    Status ts = transact(line, &reply);
    if (!ts.ok()) {
      std::fprintf(stderr, "feed: %s\n", ts.ToString().c_str());
      return 1;
    }
    ++sent;
    if (reply.rfind("OK", 0) != 0) {
      ++errors;
      if (!quiet) std::fprintf(stderr, "feed: %s\n", reply.c_str());
    }
    if (rate > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(1.0 / rate));
    }
  }

  if (want_flush || !query.empty()) {
    std::string reply;
    Status fs = transact("FLUSH\n", &reply);
    if (!fs.ok() || reply.rfind("OK", 0) != 0) {
      std::fprintf(stderr, "feed: flush failed: %s\n",
                   fs.ok() ? reply.c_str() : fs.ToString().c_str());
      return 1;
    }
  }

  if (!query.empty()) {
    std::string reply;
    Status qs = transact("QUERY " + query + "\n", &reply);
    if (!qs.ok()) {
      std::fprintf(stderr, "feed: %s\n", qs.ToString().c_str());
      return 1;
    }
    if (reply.rfind("OK", 0) != 0) {
      std::fprintf(stderr, "feed: %s\n", reply.c_str());
      return 1;
    }
    std::ostringstream payload;
    for (;;) {
      std::string body;
      Status bs = client.ReadLine(&body);
      if (!bs.ok()) {
        std::fprintf(stderr, "feed: %s\n", bs.ToString().c_str());
        return 1;
      }
      if (body == ".") break;
      payload << body << "\n";
    }
    std::string out_path = flags.GetString("out", "");
    if (out_path.empty()) {
      std::fputs(payload.str().c_str(), stdout);
    } else {
      std::ofstream out(out_path);
      out << payload.str();
      out.flush();  // surface buffered write failures before reporting OK
      if (!out) {
        std::fprintf(stderr, "feed: cannot write %s\n", out_path.c_str());
        return 1;
      }
      if (!quiet) {
        std::printf("feed: %s written to %s\n", query.c_str(),
                    out_path.c_str());
      }
    }
  }

  if (want_shutdown) {
    std::string reply;
    Status ds = transact("SHUTDOWN\n", &reply);
    if (!ds.ok() || reply.rfind("OK", 0) != 0) {
      std::fprintf(stderr, "feed: shutdown failed: %s\n",
                   ds.ok() ? reply.c_str() : ds.ToString().c_str());
      return 1;
    }
  }

  if (!quiet && !records.empty()) {
    std::printf("feed: sent %lld records (%lld rejected)\n",
                static_cast<long long>(sent),
                static_cast<long long>(errors));
  }
  return 0;
}

int Blast(const FlagParser& flags) {
  if (!RejectUnknownFlags(
          "blast", flags,
          {"clients", "curve", "seconds", "protocol", "batch", "objects",
           "snapshots", "seed", "no-verify", "json", "algo", "epsilon",
           "mu", "min-size", "min-duration", "threads", "queue-capacity",
           "window-seconds", "window-objects", "inactive"})) {
    return Usage();
  }
  BlastOptions bopts;
  if (!ParseDiscoveryOptions("blast", flags, &bopts.pipeline)) {
    return Usage();
  }
  if (!flags.Has("window-seconds") && !flags.Has("window-objects")) {
    // The blast scenario emits one snapshot per stream second.
    bopts.pipeline.window.window_length = 1.0;
  }

  bool no_verify = false;
  int64_t seed_raw = 0;
  int capacity = 1024;
  if (!ReadFlag("blast", flags, "clients", 4, &bopts.clients) ||
      !ReadFlag("blast", flags, "seconds", 2.0,
                &bopts.seconds_per_point) ||
      !ReadFlag("blast", flags, "batch", 256, &bopts.batch_records) ||
      !ReadFlag("blast", flags, "objects", 100, &bopts.objects) ||
      !ReadFlag("blast", flags, "snapshots", 30, &bopts.snapshots) ||
      !ReadFlag("blast", flags, "seed", int64_t{405}, &seed_raw) ||
      !ReadFlag("blast", flags, "queue-capacity", 1024, &capacity) ||
      !ReadFlag("blast", flags, "no-verify", false, &no_verify)) {
    return Usage();
  }
  if (bopts.clients < 1 || bopts.clients > 256) {
    std::fprintf(stderr, "blast: --clients must be in [1, 256]\n");
    return Usage();
  }
  if (capacity < 1) {
    std::fprintf(stderr, "blast: --queue-capacity must be >= 1\n");
    return Usage();
  }
  bopts.seed = static_cast<uint64_t>(seed_raw);
  bopts.pipeline.queue_capacity = static_cast<size_t>(capacity);
  bopts.verify_products = !no_verify;

  std::string protocol = flags.GetString("protocol", "both");
  bopts.run_text = (protocol == "text" || protocol == "both");
  bopts.run_binary = (protocol == "binary" || protocol == "both");
  if (!bopts.run_text && !bopts.run_binary) {
    std::fprintf(stderr, "blast: --protocol must be text|binary|both\n");
    return Usage();
  }

  std::string curve = flags.GetString("curve", "");
  if (!curve.empty()) {
    std::istringstream in(curve);
    std::string field;
    while (std::getline(in, field, ',')) {
      char* end = nullptr;
      double rate = std::strtod(field.c_str(), &end);
      if (end == field.c_str() || *end != '\0' || !(rate > 0.0)) {
        std::fprintf(stderr, "blast: bad --curve entry '%s'\n",
                     field.c_str());
        return Usage();
      }
      bopts.offered_rates.push_back(rate);
    }
  }

  BlastReport report;
  Status s = RunBlast(bopts, &report);
  if (!s.ok()) {
    std::fprintf(stderr, "blast: %s\n", s.ToString().c_str());
    return 1;
  }

  if (report.verify.ran) {
    std::printf("blast: verify %lld records -> %llu companions; "
                "text %s, binary %s\n",
                static_cast<long long>(report.verify.records),
                static_cast<unsigned long long>(report.verify.companions),
                report.verify.text_identical ? "identical" : "DIFFERS",
                report.verify.binary_identical ? "identical" : "DIFFERS");
  }
  for (const BlastCurve& curve_result : report.curves) {
    for (const BlastPoint& p : curve_result.points) {
      std::printf(
          "blast: %-6s offered %9.0f rec/s -> achieved %9.0f rec/s, "
          "shed %5.1f%%, ack p50/p95/p99 %.3f/%.3f/%.3f ms\n",
          curve_result.protocol.c_str(), p.offered_rps, p.achieved_rps,
          100.0 * p.shed_fraction, p.p50_ms, p.p95_ms, p.p99_ms);
    }
  }

  std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << BlastReportJson(report);
    out.flush();  // the error check must see buffered write failures
    if (!out) {
      std::fprintf(stderr, "blast: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("blast: report written to %s\n", json_path.c_str());
  }

  bool verify_failed =
      report.verify.ran && !(report.verify.text_identical &&
                             report.verify.binary_identical);
  return verify_failed ? 1 : 0;
}

int Main(int argc, const char* const* argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  FlagParser flags;
  Status s = flags.Parse(argc - 1, argv + 1);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return Usage();
  }
  if (command == "generate") return Generate(flags);
  if (command == "discover") return Discover(flags);
  if (command == "suggest") return Suggest(flags);
  if (command == "serve") return Serve(flags);
  if (command == "feed") return Feed(flags);
  if (command == "blast") return Blast(flags);
  if (command == "help" || command == "--help") {
    Usage();
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return Usage();
}

}  // namespace
}  // namespace tcomp

int main(int argc, char** argv) { return tcomp::Main(argc, argv); }
