// tcomp_ledger — the workload program of the ledger benchmark (see
// README.md beside this file; run.py is the only caller).
//
//   tcomp_ledger gen --out FILE --seed N --objects N --snapshots N
//       [--area A] [--group-min N] [--group-max N] [--group-speed S]
//       [--free-speed S] [--jitter J] [--split P] [--leave P]
//   tcomp_ledger discover --csv FILE --algo ci|sc|bu --epsilon E --mu M
//       --min-size S --min-duration T --out-csv FILE --report FILE
//       [--trace FILE]
//   tcomp_ledger load --port P --csv FILE --out-csv FILE
//       --stats-out FILE --metrics-out FILE --report FILE
//       [--rate RECORDS_PER_SEC] [--trace FILE]
//
// Snapshots are 60-second windows throughout, the default of `tcomp
// discover` and `tcomp serve`.
//
// `gen` writes one workload's input: a group-model stream (defaults are
// the D3′/D4′ recipe) flattened to a record CSV. The program under test
// only ever sees that CSV.
//
// `discover` is the batch surface. It mirrors `tcomp discover` call for
// call — ReadRecordCsv, SlidingWindowSnapshotter::Push,
// InactivePeriodFiller::Fill, CompanionDiscoverer::ProcessSnapshot,
// WriteCompanionsCsvFile — and times each call from outside. Its stage
// sink records the exact seconds the discoverer reports per stage.
//
// `load` drives a running `tcomp serve` over one connection from one
// thread: binary INGEST frames of at most 256 records, never spanning a
// snapshot, and a FLUSH after each snapshot's last frame. With --rate 0
// it is a closed loop: the next request goes out when the previous one is
// acknowledged, so a snapshot's frames wait for the previous snapshot's
// FLUSH. The ingest queue then fills only if the worker falls a whole
// queue behind within one snapshot, instead of at every snapshot close,
// when frames would park until the daemon's next housekeeping tick; a
// QUERY companions follows the last FLUSH. With --rate R it is an open loop:
// frame i is due when the records before it have been offered at R
// records/s, and every FLUSH is followed, once acknowledged, by a QUERY
// companions. Latencies in the open loop run from the due time, so a
// stall is charged to every request it delays.
//
// Each subcommand writes a flat JSON report (--report). With --trace it
// also keeps spans (name, start, end, parent; one set per snapshot) in
// memory and writes them to the trace file at exit.

#include <poll.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/discoverer.h"
#include "core/stage.h"
#include "data/group_model.h"
#include "data/trajectory_io.h"
#include "eval/export.h"
#include "service/binary_protocol.h"
#include "service/protocol.h"
#include "service/socket.h"
#include "stream/inactive_period.h"
#include "stream/sliding_window.h"
#include "util/flags.h"
#include "util/status.h"

namespace tcomp {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kWindowSeconds = 60.0;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Peak resident set of this process since exec, in MB (VmHWM). The
/// wait4 ru_maxrss of a child spawned from a larger parent reports the
/// parent's size instead.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Spans kept in memory for the whole run and written once at exit.
/// Times are seconds since the process's main(). Span 0 is the run.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {
    spans_.push_back(Span{"run", -1, 0.0, 0.0, -1.0, -1});
  }

  double At(Clock::time_point t) const { return Seconds(epoch_, t); }
  double Now() const { return At(Clock::now()); }

  /// Adds a finished span; `busy` (when ≥ 0) is the summed time of the
  /// calls the span aggregates, which may be less than end − start.
  int Add(const char* name, int parent, double start, double end,
          double busy = -1.0, int64_t index = -1) {
    spans_.push_back(Span{name, parent, start, end, busy, index});
    return static_cast<int>(spans_.size()) - 1;
  }
  int Open(const char* name, int parent, int64_t index = -1) {
    return Add(name, parent, Now(), -1.0, -1.0, index);
  }
  void Close(int id) { spans_[static_cast<size_t>(id)].end = Now(); }

  Status Write(const std::string& path) {
    spans_[0].end = Now();
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    char line[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line),
                    "%s{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"start\": %.9f, \"end\": %.9f",
                    i ? ",\n" : "", i, s.name, s.parent, s.start, s.end);
      out << line;
      if (s.busy >= 0.0) {
        std::snprintf(line, sizeof(line), ", \"busy\": %.9f", s.busy);
        out << line;
      }
      if (s.index >= 0) out << ", \"index\": " << s.index;
      out << "}";
    }
    out << "\n]}\n";
    out.flush();
    if (!out) return Status::IoError("cannot write " + path);
    return Status::OK();
  }

 private:
  struct Span {
    const char* name;  // always a string literal or StageName()
    int parent;
    double start;
    double end;
    double busy;
    int64_t index;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Flat JSON object writer for the reports run.py reads.
class Report {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    Field(key) << buf;
  }
  void Int(const std::string& key, int64_t value) { Field(key) << value; }
  void Samples(const std::string& key, const std::vector<double>& values) {
    std::ostream& out = Field(key);
    out << '[';
    char buf[64];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.6f", i ? ", " : "", values[i]);
      out << buf;
    }
    out << ']';
  }
  Status Write(const std::string& path) {
    std::ofstream out(path);
    out << "{" << body_.str() << "\n}\n";
    out.flush();
    if (!out) return Status::IoError("cannot write " + path);
    return Status::OK();
  }

 private:
  std::ostream& Field(const std::string& key) {
    body_ << (first_ ? "\n" : ",\n") << "  \"" << key << "\": ";
    first_ = false;
    return body_;
  }
  std::ostringstream body_;
  bool first_ = true;
};

bool Check(const char* command, const Status& s) {
  if (!s.ok()) std::fprintf(stderr, "%s: %s\n", command, s.ToString().c_str());
  return s.ok();
}

bool KnownFlags(const char* command, const FlagParser& flags,
                std::initializer_list<const char*> allowed) {
  bool ok = true;
  for (const std::string& name : flags.names()) {
    if (std::find_if(allowed.begin(), allowed.end(), [&](const char* a) {
          return name == a;
        }) == allowed.end()) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", command, name.c_str());
      ok = false;
    }
  }
  return ok;
}

/// Reads a required string flag.
bool Required(const char* command, const FlagParser& flags, const char* name,
              std::string* out) {
  *out = flags.GetString(name, "");
  if (out->empty()) {
    std::fprintf(stderr, "%s: --%s is required\n", command, name);
  }
  return !out->empty();
}

// ---- gen ---------------------------------------------------------------

int Gen(const FlagParser& flags) {
  const char* kCmd = "gen";
  if (!KnownFlags(kCmd, flags,
                  {"out", "seed", "objects", "snapshots", "area", "group-min",
                   "group-max", "group-speed", "free-speed", "jitter", "split",
                   "leave"})) {
    return 2;
  }
  std::string out;
  if (!Required(kCmd, flags, "out", &out)) return 2;
  GroupModelOptions o;  // defaults: the D3′/D4′ group-model recipe
  int64_t seed = 0;
  if (!Check(kCmd, flags.GetStrict("seed", int64_t{0}, &seed)) ||
      !Check(kCmd, flags.GetStrict("objects", o.num_objects,
                                   &o.num_objects)) ||
      !Check(kCmd, flags.GetStrict("snapshots", o.num_snapshots,
                                   &o.num_snapshots)) ||
      !Check(kCmd, flags.GetStrict("area", o.area_size, &o.area_size)) ||
      !Check(kCmd, flags.GetStrict("group-min", o.min_group_size,
                                   &o.min_group_size)) ||
      !Check(kCmd, flags.GetStrict("group-max", o.max_group_size,
                                   &o.max_group_size)) ||
      !Check(kCmd, flags.GetStrict("group-speed", o.group_speed,
                                   &o.group_speed)) ||
      !Check(kCmd, flags.GetStrict("free-speed", o.free_speed,
                                   &o.free_speed)) ||
      !Check(kCmd, flags.GetStrict("jitter", o.member_jitter,
                                   &o.member_jitter)) ||
      !Check(kCmd, flags.GetStrict("split", o.split_probability,
                                   &o.split_probability)) ||
      !Check(kCmd, flags.GetStrict("leave", o.leave_probability,
                                   &o.leave_probability))) {
    return 2;
  }
  if (seed < 0 || o.num_objects < 1 || o.num_snapshots < 1 ||
      o.min_group_size < 1 || o.max_group_size < o.min_group_size) {
    std::fprintf(stderr, "gen: flag value out of range\n");
    return 2;
  }
  o.seed = static_cast<uint64_t>(seed);
  GroupDataset data = GenerateGroupStream(o);
  return Check(kCmd, WriteRecordCsv(
                         out, StreamToRecords(data.stream, kWindowSeconds)))
             ? 0
             : 1;
}

// ---- discover ------------------------------------------------------------

/// The bench's own stage sink: exact per-stage second sums (the daemon's
/// histograms round percentiles to powers of two), and one span per
/// stage report when tracing.
class LedgerStageSink final : public StageTimerSink {
 public:
  void RecordStage(Stage stage, double seconds) override {
    sums_[static_cast<size_t>(stage)] += seconds;
    if (spans_ != nullptr) {
      double end = spans_->Now();
      spans_->Add(StageName(stage), parent_, end - seconds, end);
    }
  }
  double sum(Stage stage) const { return sums_[static_cast<size_t>(stage)]; }
  void TraceInto(SpanLog* spans, int parent) {
    spans_ = spans;
    parent_ = parent;
  }

 private:
  std::array<double, kStageCount> sums_{};
  SpanLog* spans_ = nullptr;
  int parent_ = 0;
};

bool ParseAlgorithm(const std::string& name, Algorithm* out) {
  if (name == "ci") {
    *out = Algorithm::kClusteringIntersection;
  } else if (name == "sc") {
    *out = Algorithm::kSmartClosed;
  } else if (name == "bu") {
    *out = Algorithm::kBuddy;
  } else {
    return false;
  }
  return true;
}

int Discover(const FlagParser& flags, Clock::time_point main_start) {
  const char* kCmd = "discover";
  if (!KnownFlags(kCmd, flags,
                  {"csv", "algo", "epsilon", "mu", "min-size", "min-duration",
                   "out-csv", "report", "trace"})) {
    return 2;
  }
  std::string csv, out_csv, report_path;
  if (!Required(kCmd, flags, "csv", &csv) ||
      !Required(kCmd, flags, "out-csv", &out_csv) ||
      !Required(kCmd, flags, "report", &report_path)) {
    return 2;
  }
  const std::string trace_path = flags.GetString("trace", "");
  SpanLog spans(main_start);
  SpanLog* trace = trace_path.empty() ? nullptr : &spans;

  Clock::time_point read_start = Clock::now();
  std::vector<TrajectoryRecord> records;
  if (!Check(kCmd, ReadRecordCsv(csv, &records))) return 1;
  Clock::time_point read_end = Clock::now();

  DiscoveryParams params;
  if (!Check(kCmd, flags.GetStrict("epsilon", 20.0,
                                   &params.cluster.epsilon)) ||
      !Check(kCmd, flags.GetStrict("mu", 4, &params.cluster.mu)) ||
      !Check(kCmd, flags.GetStrict("min-size", 10, &params.size_threshold)) ||
      !Check(kCmd, flags.GetStrict("min-duration", 10.0,
                                   &params.duration_threshold))) {
    return 2;
  }
  Algorithm algorithm;
  if (!ParseAlgorithm(flags.GetString("algo", "bu"), &algorithm)) {
    std::fprintf(stderr, "discover: unknown --algo\n");
    return 2;
  }
  params.cluster.threads = 1;
  std::unique_ptr<CompanionDiscoverer> discoverer =
      MakeDiscoverer(algorithm, params);
  LedgerStageSink sink;
  discoverer->set_stage_sink(&sink);
  SlidingWindowOptions wopts;
  wopts.mode = WindowMode::kEqualLength;
  wopts.window_length = kWindowSeconds;
  SlidingWindowSnapshotter window(wopts);
  InactivePeriodFiller filler(0);
  Clock::time_point setup_end = Clock::now();
  if (trace != nullptr) {
    spans.Add("read_csv", 0, spans.At(read_start), spans.At(read_end));
    spans.Add("setup", 0, 0.0, spans.At(setup_end));
  }

  // A cycle runs from one snapshot close's end to the next: the pushes of
  // one snapshot's records plus its close. Its rate is the sustained
  // throughput, sampled once per snapshot.
  std::vector<double> close_ms;
  std::vector<double> cycle_rps;
  Clock::time_point cycle_start{};
  double fill_s = 0.0;
  double close_s = 0.0;
  int64_t snapshots = 0;
  auto process = [&](const Snapshot& snap) {
    std::vector<Companion> newly;
    int snapshot_span = trace ? spans.Open("snapshot", 0, snapshots) : 0;
    Clock::time_point t0 = Clock::now();
    Snapshot filled = filler.Fill(snap);
    Clock::time_point t1 = Clock::now();
    int process_span = 0;
    if (trace != nullptr) {
      spans.Add("fill", snapshot_span, spans.At(t0), spans.At(t1));
      process_span = spans.Open("process_snapshot", snapshot_span, snapshots);
      sink.TraceInto(trace, process_span);
    }
    discoverer->ProcessSnapshot(filled, &newly);
    Clock::time_point t2 = Clock::now();
    if (trace != nullptr) {
      spans.Close(process_span);
      spans.Close(snapshot_span);
    }
    fill_s += Seconds(t0, t1);
    close_s += Seconds(t0, t2);
    close_ms.push_back(Seconds(t0, t2) * 1e3);
    cycle_rps.push_back(static_cast<double>(snap.size()) /
                        Seconds(cycle_start, t2));
    cycle_start = t2;
    ++snapshots;
  };

  // Untraced, the loop is `tcomp discover`'s. Traced, each Push is timed
  // and the pushes between two snapshot closes become one span.
  std::vector<Snapshot> ready;
  double push_s = 0.0;
  double push_busy = 0.0;
  Clock::time_point push_first{};
  Clock::time_point push_last{};
  auto flush_push_span = [&] {
    if (push_busy > 0.0) {
      spans.Add("window_push", 0, spans.At(push_first), spans.At(push_last),
                push_busy);
    }
    push_s += push_busy;
    push_busy = 0.0;
  };
  Clock::time_point run_start = Clock::now();
  cycle_start = run_start;
  for (const TrajectoryRecord& r : records) {
    Status ps;
    if (trace == nullptr) {
      ps = window.Push(r, &ready);
    } else {
      Clock::time_point a = Clock::now();
      ps = window.Push(r, &ready);
      Clock::time_point b = Clock::now();
      if (push_busy == 0.0) push_first = a;
      push_last = b;
      push_busy += Seconds(a, b);
      if (!ready.empty()) flush_push_span();
    }
    if (!Check(kCmd, ps)) return 1;
    for (const Snapshot& snap : ready) process(snap);
    ready.clear();
  }
  window.Flush(&ready);
  if (trace != nullptr) flush_push_span();
  for (const Snapshot& snap : ready) process(snap);

  Clock::time_point write_start = Clock::now();
  if (!Check(kCmd, WriteCompanionsCsvFile(discoverer->log().companions(),
                                          out_csv))) {
    return 1;
  }
  Clock::time_point run_end = Clock::now();
  if (trace != nullptr) {
    spans.Add("write_csv", 0, spans.At(write_start), spans.At(run_end));
    if (!Check(kCmd, spans.Write(trace_path))) return 1;
  }

  const DiscoveryStats& st = discoverer->stats();
  Report report;
  report.Int("records", static_cast<int64_t>(records.size()));
  report.Num("setup_s", Seconds(main_start, setup_end));
  report.Num("read_csv_s", Seconds(read_start, read_end));
  report.Num("wall_s", Seconds(run_start, run_end));
  report.Num("push_s", push_s);
  report.Num("fill_s", fill_s);
  report.Num("close_s", close_s);
  report.Num("write_csv_s", Seconds(write_start, run_end));
  for (Stage stage : {Stage::kMaintain, Stage::kCluster, Stage::kEpsFilter,
                      Stage::kIntersect, Stage::kClosure}) {
    report.Num(std::string("stage_") + StageName(stage), sink.sum(stage));
  }
  report.Int("intersections", st.intersections);
  report.Int("distance_ops", st.distance_ops);
  report.Int("candidate_objects_peak", st.candidate_objects_peak);
  report.Int("buddy_pairs_checked", st.buddy_pairs_checked);
  report.Int("buddy_pairs_pruned", st.buddy_pairs_pruned);
  report.Int("buddies_total", st.buddies_total);
  report.Int("buddies_unchanged", st.buddies_unchanged);
  report.Int("cluster_reuse", st.cluster_reuse);
  report.Int("cluster_dirty", st.cluster_dirty);
  report.Int("cluster_full_rebuilds", st.cluster_full_rebuilds);
  report.Int("soa_lanes", st.soa_lanes);
  report.Num("peak_rss_mb", PeakRssMb());
  report.Samples("close_ms", close_ms);
  report.Samples("cycle_rps", cycle_rps);
  return Check(kCmd, report.Write(report_path)) ? 0 : 1;
}

// ---- load ----------------------------------------------------------------

/// One request the load generator sends, in send order.
struct Item {
  enum class Kind { kIngest, kFlush, kQuery };
  Kind kind = Kind::kIngest;
  size_t first = 0;      // kIngest: records [first, first + n)
  size_t n = 0;
  int64_t snapshot = 0;  // snapshot the request belongs to
  double due = 0.0;      // open loop: seconds after the run start
};

/// A request on the wire, awaiting its response.
struct Pending {
  Item item;
  double due = 0.0;   // latency origin: due time (open) or send time
  double sent = 0.0;
};

/// Time the loop spends in each of its own activities; what is left of
/// the wall is the loop's bookkeeping.
struct LoopTimes {
  double encode = 0.0;
  double send = 0.0;
  double wait = 0.0;
  double receive = 0.0;
};

constexpr size_t kFrameRecords = 256;

/// Splits the stream into INGEST frames of at most kFrameRecords that
/// never span a snapshot window, and schedules them: each snapshot's
/// frames are followed by a FLUSH due with its last frame.
std::vector<Item> Schedule(const std::vector<TrajectoryRecord>& records,
                           double rate) {
  std::vector<Item> items;
  int64_t snapshot = -1;
  double window_index = 0.0;
  for (size_t i = 0; i < records.size(); ++i) {
    double w = std::floor(records[i].timestamp / kWindowSeconds);
    bool new_window = snapshot < 0 || w != window_index;
    if (new_window) {
      if (snapshot >= 0) {
        items.push_back(Item{Item::Kind::kFlush, 0, 0, snapshot,
                             items.back().due});
      }
      ++snapshot;
      window_index = w;
    }
    if (new_window || items.back().n == kFrameRecords) {
      double due = rate > 0.0 ? static_cast<double>(i) / rate : 0.0;
      items.push_back(Item{Item::Kind::kIngest, i, 0, snapshot, due});
    }
    ++items.back().n;
  }
  if (!items.empty()) {
    items.push_back(
        Item{Item::Kind::kFlush, 0, 0, snapshot, items.back().due});
  }
  return items;
}

uint64_t PayloadU64(const std::string& payload) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8 && i < payload.size(); ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(payload[i]))
         << (8 * i);
  }
  return v;
}

/// One connection to the daemon, driven from a single-threaded loop.
class Connection {
 public:
  Status Open(uint16_t port) {
    TCOMP_RETURN_IF_ERROR(StreamSocket::Connect(port, 5000, &sock_));
    return sock_.SetNonBlocking(true);
  }

  void Queue(std::string bytes) { out_ += bytes; }
  bool idle() const { return out_.size() == out_off_; }

  /// Writes what the socket takes now.
  Status Send(LoopTimes* times) {
    if (idle()) return Status::OK();
    Clock::time_point a = Clock::now();
    size_t written = 0;
    bool would_block = false;
    Status s = sock_.WriteSome(out_.data() + out_off_, out_.size() - out_off_,
                               &written, &would_block);
    out_off_ += written;
    if (idle()) {
      out_.clear();
      out_off_ = 0;
    }
    times->send += Seconds(a, Clock::now());
    return s;
  }

  /// Waits up to `timeout_s` (negative: until something happens) for the
  /// socket to become readable, or writable while bytes are queued.
  Status Wait(double timeout_s, LoopTimes* times) {
    Clock::time_point a = Clock::now();
    pollfd pfd{sock_.fd(), static_cast<short>(POLLIN | (idle() ? 0 : POLLOUT)),
               0};
    double limit = timeout_s < 0.0 ? kStallSeconds : timeout_s;
    timespec ts{static_cast<time_t>(limit),
                static_cast<long>((limit - std::floor(limit)) * 1e9)};
    int rc = ppoll(&pfd, 1, &ts, nullptr);
    times->wait += Seconds(a, Clock::now());
    if (rc < 0 && errno != EINTR) return Status::IoError("ppoll failed");
    if (rc == 0 && timeout_s < 0.0) {
      return Status::OutOfRange("daemon stalled: no response in 60 s");
    }
    return Status::OK();
  }

  /// Reads what has arrived and appends every complete response.
  Status Receive(std::vector<BinaryResponse>* responses, LoopTimes* times) {
    Clock::time_point a = Clock::now();
    char buf[65536];
    for (;;) {
      size_t n = 0;
      bool would_block = false;
      TCOMP_RETURN_IF_ERROR(sock_.ReadSome(buf, sizeof(buf), &n, &would_block));
      if (would_block) break;
      if (n == 0) return Status::IoError("daemon closed the connection");
      reader_.Feed(buf, n);
    }
    for (;;) {
      BinaryResponse r;
      std::string error;
      BinaryResponseReader::Result res = reader_.Next(&r, &error);
      if (res == BinaryResponseReader::Result::kNeedMore) break;
      if (res == BinaryResponseReader::Result::kBad) {
        return Status::Corruption(error);
      }
      responses->push_back(std::move(r));
    }
    times->receive += Seconds(a, Clock::now());
    return Status::OK();
  }

  /// Sends one request and waits for its response (outside the measured
  /// interval: stats and metrics).
  Status Transact(const std::string& frame, BinaryResponse* response) {
    LoopTimes unused;
    Queue(frame);
    std::vector<BinaryResponse> got;
    while (got.empty()) {
      TCOMP_RETURN_IF_ERROR(Send(&unused));
      TCOMP_RETURN_IF_ERROR(Wait(-1.0, &unused));
      TCOMP_RETURN_IF_ERROR(Receive(&got, &unused));
    }
    *response = std::move(got.front());
    return Status::OK();
  }

 private:
  static constexpr double kStallSeconds = 60.0;
  StreamSocket sock_;
  std::string out_;
  size_t out_off_ = 0;
  BinaryResponseReader reader_;
};

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.flush();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

/// Fetches a QUERY payload after the measured interval.
Status QueryTo(Connection* conn, Request::QueryKind kind,
               const std::string& path) {
  BinaryResponse r;
  TCOMP_RETURN_IF_ERROR(conn->Transact(
      EncodeBinaryRequest(BinaryRequestType::kQuery,
                          static_cast<uint8_t>(kind), ""),
      &r));
  if (r.type != static_cast<uint8_t>(BinaryResponseType::kOk)) {
    return Status::Internal("query failed: " + r.payload);
  }
  return WriteText(path, r.payload);
}

int Load(const FlagParser& flags, Clock::time_point main_start) {
  const char* kCmd = "load";
  if (!KnownFlags(kCmd, flags,
                  {"port", "csv", "out-csv", "report", "rate", "stats-out",
                   "metrics-out", "trace"})) {
    return 2;
  }
  std::string csv, out_csv, stats_out, metrics_out, report_path;
  if (!Required(kCmd, flags, "csv", &csv) ||
      !Required(kCmd, flags, "out-csv", &out_csv) ||
      !Required(kCmd, flags, "stats-out", &stats_out) ||
      !Required(kCmd, flags, "metrics-out", &metrics_out) ||
      !Required(kCmd, flags, "report", &report_path)) {
    return 2;
  }
  int port = 0;
  double rate = 0.0;
  if (!Check(kCmd, flags.GetStrict("port", 0, &port)) ||
      !Check(kCmd, flags.GetStrict("rate", 0.0, &rate))) {
    return 2;
  }
  if (port <= 0 || port > 65535 || rate < 0.0) {
    std::fprintf(stderr, "load: flag value out of range\n");
    return 2;
  }
  const std::string trace_path = flags.GetString("trace", "");
  SpanLog spans(main_start);
  const bool traced = !trace_path.empty();
  const bool open_loop = rate > 0.0;

  Clock::time_point read_start = Clock::now();
  std::vector<TrajectoryRecord> records;
  if (!Check(kCmd, ReadRecordCsv(csv, &records))) return 1;
  Clock::time_point read_end = Clock::now();
  if (traced) {
    spans.Add("read_csv", 0, spans.At(read_start), spans.At(read_end));
  }
  const std::vector<Item> schedule = Schedule(records, rate);

  Connection conn;
  if (!Check(kCmd, conn.Open(static_cast<uint16_t>(port)))) return 1;

  std::vector<double> ack_ms, late_ms, fresh_ms, flush_ms, query_ms;
  // Sustained rate, once per snapshot: its records over the time from its
  // first frame going out to the next snapshot's first frame going out.
  std::vector<double> cycle_rps;
  int64_t cycle_snapshot = -1;
  double cycle_start = 0.0;
  double cycle_records = 0.0;
  int64_t refused = 0, failed = 0, attempted = 0;
  std::string companions;
  LoopTimes times;
  std::deque<Item> urgent;  // sent as soon as possible: QUERY after FLUSH
  std::deque<Pending> inflight;
  size_t next = 0;
  bool finished = false;
  double run_end = 0.0;
  const Clock::time_point run_start = Clock::now();
  auto now_s = [&] { return Seconds(run_start, Clock::now()); };

  // Traced: one span per snapshot, until its last response (its FLUSH,
  // or the QUERY that follows it), holding the loop's encode / send /
  // wait / receive time as summed children.
  const double t0 = spans.At(run_start);
  LoopTimes span_base;
  double span_start = 0.0;
  int64_t span_snapshot = 0;
  auto end_snapshot_span = [&](double end) {
    if (!traced) return;
    int id = spans.Add("snapshot", 0, t0 + span_start, t0 + end, -1.0,
                       span_snapshot);
    spans.Add("encode", id, t0 + span_start, t0 + end,
              times.encode - span_base.encode);
    spans.Add("send", id, t0 + span_start, t0 + end,
              times.send - span_base.send);
    spans.Add("wait", id, t0 + span_start, t0 + end,
              times.wait - span_base.wait);
    spans.Add("receive", id, t0 + span_start, t0 + end,
              times.receive - span_base.receive);
    span_base = times;
    span_start = end;
    ++span_snapshot;
  };

  while (!finished) {
    // Queue every request that is due. Closed loop: one in flight.
    for (;;) {
      double now = now_s();
      bool from_urgent = !urgent.empty();
      if (!from_urgent && next == schedule.size()) break;
      if (open_loop ? (!from_urgent && schedule[next].due > now)
                    : !(inflight.empty() && conn.idle())) {
        break;
      }
      Item item = from_urgent ? urgent.front() : schedule[next];
      if (from_urgent) {
        urgent.pop_front();
      } else {
        ++next;
      }
      if (item.kind == Item::Kind::kIngest &&
          item.snapshot != cycle_snapshot) {
        if (cycle_snapshot >= 0) {
          cycle_rps.push_back(cycle_records / (now - cycle_start));
        }
        cycle_snapshot = item.snapshot;
        cycle_start = now;
        cycle_records = 0.0;
      }
      if (item.kind == Item::Kind::kIngest) {
        cycle_records += static_cast<double>(item.n);
      }
      Clock::time_point a = Clock::now();
      std::string bytes;
      switch (item.kind) {
        case Item::Kind::kIngest:
          bytes = EncodeIngestBatch(&records[item.first], item.n);
          attempted += static_cast<int64_t>(item.n);
          break;
        case Item::Kind::kFlush:
          bytes = EncodeBinaryRequest(BinaryRequestType::kFlush, 0, "");
          ++attempted;
          break;
        case Item::Kind::kQuery:
          bytes = EncodeBinaryRequest(
              BinaryRequestType::kQuery,
              static_cast<uint8_t>(Request::QueryKind::kCompanions), "");
          ++attempted;
          break;
      }
      times.encode += Seconds(a, Clock::now());
      conn.Queue(std::move(bytes));
      double sent = now_s();
      bool scheduled = open_loop && !from_urgent;
      if (scheduled && item.kind == Item::Kind::kIngest) {
        late_ms.push_back((sent - item.due) * 1e3);
      }
      inflight.push_back(Pending{item, scheduled ? item.due : sent, sent});
    }
    if (!Check(kCmd, conn.Send(&times))) return 1;

    double timeout = -1.0;
    if (open_loop && urgent.empty() && next < schedule.size()) {
      timeout = std::max(0.0, schedule[next].due - now_s());
    }
    if (!Check(kCmd, conn.Wait(timeout, &times))) return 1;
    std::vector<BinaryResponse> responses;
    if (!Check(kCmd, conn.Receive(&responses, &times))) return 1;

    for (const BinaryResponse& r : responses) {
      if (inflight.empty()) {
        std::fprintf(stderr, "load: response without a request\n");
        return 1;
      }
      Pending p = inflight.front();
      inflight.pop_front();
      double now = now_s();
      bool ok = r.type == static_cast<uint8_t>(BinaryResponseType::kOk);
      switch (p.item.kind) {
        case Item::Kind::kIngest:
          ack_ms.push_back((now - p.due) * 1e3);
          if (ok) {
            refused += static_cast<int64_t>(PayloadU64(r.payload));
          } else {
            failed += static_cast<int64_t>(p.item.n);
          }
          break;
        case Item::Kind::kFlush:
          // Freshness: from when the snapshot's records were all offered
          // (open loop: its last frame's due time; closed loop: the FLUSH
          // going out, after that frame's ack) until the snapshot is
          // closed and its companions can be read.
          flush_ms.push_back((now - p.sent) * 1e3);
          fresh_ms.push_back((now - p.due) * 1e3);
          if (!ok) ++failed;
          if (traced) {
            spans.Add("flush", 0, t0 + p.sent, t0 + now, -1.0,
                      p.item.snapshot);
          }
          if (open_loop || next == schedule.size()) {
            urgent.push_back(
                Item{Item::Kind::kQuery, 0, 0, p.item.snapshot, 0.0});
          } else {
            end_snapshot_span(now);
          }
          break;
        case Item::Kind::kQuery:
          query_ms.push_back((now - p.sent) * 1e3);
          if (!ok) ++failed;
          companions = r.payload;
          if (traced) {
            spans.Add("query", 0, t0 + p.sent, t0 + now, -1.0,
                      p.item.snapshot);
          }
          if (next == schedule.size() && urgent.empty() && inflight.empty()) {
            finished = true;
            run_end = now;
          }
          end_snapshot_span(now);
          break;
      }
    }
  }

  if (!Check(kCmd, WriteText(out_csv, companions)) ||
      !Check(kCmd, QueryTo(&conn, Request::QueryKind::kStats, stats_out)) ||
      !Check(kCmd, QueryTo(&conn, Request::QueryKind::kMetrics,
                           metrics_out))) {
    return 1;
  }
  if (traced && !Check(kCmd, spans.Write(trace_path))) return 1;

  Report report;
  report.Int("records", static_cast<int64_t>(records.size()));
  report.Int("attempted", attempted);
  report.Int("failed", failed);
  report.Int("refused", refused);
  report.Num("read_csv_s", Seconds(read_start, read_end));
  report.Num("wall_s", run_end);
  report.Num("loop_encode_s", times.encode);
  report.Num("loop_send_s", times.send);
  report.Num("loop_wait_s", times.wait);
  report.Num("loop_receive_s", times.receive);
  report.Samples("ack_ms", ack_ms);
  report.Samples("late_ms", late_ms);
  report.Samples("fresh_ms", fresh_ms);
  report.Samples("flush_ms", flush_ms);
  report.Samples("query_ms", query_ms);
  report.Samples("cycle_rps", cycle_rps);
  return Check(kCmd, report.Write(report_path)) ? 0 : 1;
}

int Main(int argc, const char* const* argv) {
  const Clock::time_point main_start = Clock::now();
  if (argc < 2) {
    std::fprintf(stderr, "usage: tcomp_ledger gen|discover|load [flags]\n");
    return 2;
  }
  FlagParser flags;
  if (!Check("tcomp_ledger", flags.Parse(argc - 1, argv + 1))) return 2;
  const std::string command = argv[1];
  if (command == "gen") return Gen(flags);
  if (command == "discover") return Discover(flags, main_start);
  if (command == "load") return Load(flags, main_start);
  std::fprintf(stderr, "tcomp_ledger: unknown command %s\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace tcomp

int main(int argc, char** argv) { return tcomp::Main(argc, argv); }
