#include "tools/blast.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#include "core/discoverer.h"
#include "data/group_model.h"
#include "data/trajectory_io.h"
#include "eval/export.h"
#include "obs/metrics.h"
#include "service/binary_protocol.h"
#include "service/protocol.h"
#include "service/socket.h"
#include "stream/inactive_period.h"
#include "stream/sliding_window.h"

namespace tcomp {
namespace {

constexpr int kConnectTimeoutMs = 5000;
constexpr int kIoTimeoutMs = 30000;

/// Per-client outcome of one curve point.
struct ClientTotals {
  int64_t sent = 0;
  int64_t accepted = 0;
  int64_t refused = 0;
  Status status;  // first transport/protocol failure, if any
};

/// Blocking line-protocol client (the load side runs ordinary blocking
/// sockets; only the server side is nonblocking).
class TextClient {
 public:
  Status Connect(uint16_t port) {
    return StreamSocket::Connect(port, kConnectTimeoutMs, &sock_);
  }

  Status Send(const std::string& data) {
    return sock_.WriteAll(data, kIoTimeoutMs);
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
      TCOMP_RETURN_IF_ERROR(sock_.Read(buf, sizeof(buf), kIoTimeoutMs, &n));
      if (n == 0) return Status::IoError("server closed the connection");
      framer_.Feed(buf, n);
    }
  }

 private:
  StreamSocket sock_;
  LineFramer framer_{1 << 20};
};

/// Blocking binary-frame client.
class BinaryClient {
 public:
  Status Connect(uint16_t port) {
    return StreamSocket::Connect(port, kConnectTimeoutMs, &sock_);
  }

  Status Send(const std::string& frame) {
    return sock_.WriteAll(frame, kIoTimeoutMs);
  }

  Status ReadFrame(BinaryResponse* response) {
    for (;;) {
      std::string error;
      BinaryResponseReader::Result r = reader_.Next(response, &error);
      if (r == BinaryResponseReader::Result::kFrame) return Status::OK();
      if (r == BinaryResponseReader::Result::kBad) {
        return Status::Corruption(error);
      }
      char buf[4096];
      size_t n = 0;
      TCOMP_RETURN_IF_ERROR(sock_.Read(buf, sizeof(buf), kIoTimeoutMs, &n));
      if (n == 0) return Status::IoError("server closed the connection");
      reader_.Feed(buf, n);
    }
  }

 private:
  StreamSocket sock_;
  BinaryResponseReader reader_;
};

std::string FormatIngestLine(const TrajectoryRecord& r) {
  // %.17g round-trips doubles exactly — same contract as tcomp feed.
  char line[256];
  std::snprintf(line, sizeof(line), "INGEST %u %.17g %.17g %.17g\n",
                r.object, r.timestamp, r.pos.x, r.pos.y);
  return line;
}

uint64_t ReadLeU64(const std::string& payload) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8 && i < payload.size(); ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(payload[i]))
         << (8 * i);
  }
  return v;
}

/// One paced synthetic client for one curve point. Cycles through the
/// shared scenario with its own object-id offset (streams never alias)
/// and a per-cycle timestamp offset (time always advances). Closed-loop:
/// every request waits for its ack, and the ack round trip is the latency
/// sample.
void BlastWorker(uint16_t port, bool binary,
                 const std::vector<TrajectoryRecord>* base,
                 double cycle_span, uint32_t object_offset,
                 double records_per_sec, double seconds, int batch_records,
                 LatencyHistogram* rtt, ClientTotals* totals) {
  TextClient text;
  BinaryClient bin;
  Status cs = binary ? bin.Connect(port) : text.Connect(port);
  if (!cs.ok()) {
    totals->status = cs;
    return;
  }

  const int per_request = binary ? batch_records : 1;
  const double request_interval =
      records_per_sec > 0.0 ? per_request / records_per_sec : 0.0;

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point next_send = start;

  size_t cursor = 0;
  int64_t cycle = 0;
  std::vector<TrajectoryRecord> batch;
  batch.reserve(static_cast<size_t>(per_request));

  while (Clock::now() < deadline) {
    batch.clear();
    for (int i = 0; i < per_request; ++i) {
      TrajectoryRecord r = (*base)[cursor];
      r.object += object_offset;
      r.timestamp += static_cast<double>(cycle) * cycle_span;
      batch.push_back(r);
      if (++cursor == base->size()) {
        cursor = 0;
        ++cycle;
      }
    }

    Clock::time_point send_start = Clock::now();
    if (binary) {
      std::string frame = EncodeIngestBatch(batch.data(), batch.size());
      Status s = bin.Send(frame);
      BinaryResponse response;
      if (s.ok()) s = bin.ReadFrame(&response);
      if (!s.ok()) {
        totals->status = s;
        return;
      }
      totals->sent += static_cast<int64_t>(batch.size());
      if (response.type == static_cast<uint8_t>(BinaryResponseType::kOk)) {
        totals->accepted += static_cast<int64_t>(response.value);
        totals->refused += static_cast<int64_t>(ReadLeU64(response.payload));
      } else {
        totals->refused += static_cast<int64_t>(batch.size());
      }
    } else {
      Status s = text.Send(FormatIngestLine(batch[0]));
      std::string reply;
      if (s.ok()) s = text.ReadLine(&reply);
      if (!s.ok()) {
        totals->status = s;
        return;
      }
      ++totals->sent;
      if (reply.rfind("OK", 0) == 0) {
        ++totals->accepted;
      } else {
        ++totals->refused;
      }
    }
    double rtt_seconds =
        std::chrono::duration<double>(Clock::now() - send_start).count();
    rtt->Record(rtt_seconds);

    if (request_interval > 0.0) {
      next_send += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(request_interval));
      Clock::time_point now = Clock::now();
      if (next_send > now) {
        std::this_thread::sleep_until(std::min(next_send, deadline));
      } else if (now - next_send > std::chrono::seconds(1)) {
        // Hopelessly behind the pace (offered load exceeds capacity):
        // stop accumulating debt so a later, lighter stretch does not
        // burst-compensate. The point simply saturates.
        next_send = now;
      }
    }
  }
}

/// Measures one saturation-curve point against a running server.
Status RunPoint(ServicePipeline* pipeline, uint16_t port, bool binary,
                const BlastOptions& options,
                const std::vector<TrajectoryRecord>& base, double cycle_span,
                double offered_rps, BlastPoint* point) {
  point->offered_rps = offered_rps;

  ServiceStats before = pipeline->Stats();
  LatencyHistogram rtt;
  std::vector<ClientTotals> totals(static_cast<size_t>(options.clients));
  std::vector<std::thread> workers;
  workers.reserve(totals.size());

  // Object-id offsets keep client streams disjoint; the scenario never
  // uses ids at or above its object count, so spacing by the scenario
  // width is collision-free.
  const uint32_t id_stride =
      static_cast<uint32_t>(options.objects) + 1;
  const double per_client_rps = offered_rps / options.clients;

  using Clock = std::chrono::steady_clock;
  Clock::time_point start = Clock::now();
  for (int c = 0; c < options.clients; ++c) {
    workers.emplace_back(BlastWorker, port, binary, &base, cycle_span,
                         static_cast<uint32_t>(c) * id_stride,
                         per_client_rps, options.seconds_per_point,
                         options.batch_records, &rtt,
                         &totals[static_cast<size_t>(c)]);
  }
  for (std::thread& w : workers) w.join();
  point->elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  for (const ClientTotals& t : totals) {
    if (!t.status.ok()) return t.status;
    point->records_sent += t.sent;
    point->records_accepted += t.accepted;
    point->records_refused += t.refused;
  }
  if (point->elapsed_seconds > 0.0) {
    point->achieved_rps =
        static_cast<double>(point->records_accepted) / point->elapsed_seconds;
  }

  ServiceStats after = pipeline->Stats();
  int64_t offered = (after.queue.pushed + after.queue.rejected) -
                    (before.queue.pushed + before.queue.rejected);
  int64_t refused = (after.queue.shed + after.queue.rejected) -
                    (before.queue.shed + before.queue.rejected);
  if (offered > 0) {
    point->shed_fraction =
        static_cast<double>(refused) / static_cast<double>(offered);
  }

  LatencyHistogram::Snapshot snap = rtt.Snap();
  point->p50_ms = snap.p50() * 1e3;
  point->p95_ms = snap.p95() * 1e3;
  point->p99_ms = snap.p99() * 1e3;
  return Status::OK();
}

/// Runs one full saturation curve against a fresh self-hosted service.
Status RunCurve(const BlastOptions& options,
                const std::vector<TrajectoryRecord>& base, double cycle_span,
                bool binary, BlastCurve* curve) {
  curve->protocol = binary ? "binary" : "text";

  ServicePipelineOptions popts = options.pipeline;
  popts.checkpoint_path.clear();
  // Overload must shed, not stall: a kBlock queue would park every client
  // at saturation and the curve would measure the parking lot.
  popts.backpressure = BackpressureMode::kShedOldest;
  ServicePipeline pipeline(popts);
  TCOMP_RETURN_IF_ERROR(pipeline.Start());

  ServerOptions sopts = options.server;
  sopts.port = 0;
  CompanionServer server(&pipeline, sopts);
  TCOMP_RETURN_IF_ERROR(server.Start());

  Status result = Status::OK();
  for (double offered : options.offered_rates) {
    BlastPoint point;
    result = RunPoint(&pipeline, server.port(), binary, options, base,
                      cycle_span, offered, &point);
    if (!result.ok()) break;
    curve->points.push_back(point);
  }

  server.RequestStop();
  server.Wait();
  Status stop = pipeline.Stop();
  if (result.ok()) result = stop;
  return result;
}

/// The in-process batch reference: records → sliding window → discoverer,
/// exactly as `tcomp discover` runs it, rendered as companion CSV.
Status BatchReference(const ServicePipelineOptions& popts,
                      const std::vector<TrajectoryRecord>& records,
                      std::string* csv, uint64_t* companions) {
  auto discoverer = MakeDiscoverer(popts.algorithm, popts.params);
  SlidingWindowSnapshotter window(popts.window);
  InactivePeriodFiller filler(popts.inactive_fill);
  std::vector<Snapshot> ready;
  std::vector<Companion> newly;
  auto process = [&](const Snapshot& snap) {
    newly.clear();
    discoverer->ProcessSnapshot(filler.Fill(snap), &newly);
  };
  for (const TrajectoryRecord& r : records) {
    TCOMP_RETURN_IF_ERROR(window.Push(r, &ready));
    for (const Snapshot& snap : ready) process(snap);
    ready.clear();
  }
  window.Flush(&ready);
  for (const Snapshot& snap : ready) process(snap);

  std::ostringstream out;
  WriteCompanionsCsv(discoverer->log().companions(), out);
  *csv = out.str();
  *companions = discoverer->log().companions().size();
  return Status::OK();
}

/// Streams the scenario through one protocol against a fresh lossless
/// service and returns the QUERY companions payload body.
Status ServeReference(const BlastOptions& options,
                      const std::vector<TrajectoryRecord>& records,
                      bool binary, std::string* body) {
  ServicePipelineOptions popts = options.pipeline;
  popts.checkpoint_path.clear();
  popts.backpressure = BackpressureMode::kBlock;  // nothing may be refused
  ServicePipeline pipeline(popts);
  TCOMP_RETURN_IF_ERROR(pipeline.Start());
  ServerOptions sopts = options.server;
  sopts.port = 0;
  CompanionServer server(&pipeline, sopts);
  TCOMP_RETURN_IF_ERROR(server.Start());

  Status result = Status::OK();
  if (binary) {
    BinaryClient client;
    result = client.Connect(server.port());
    const size_t batch =
        static_cast<size_t>(std::max(1, options.batch_records));
    for (size_t i = 0; result.ok() && i < records.size(); i += batch) {
      size_t n = std::min(batch, records.size() - i);
      result = client.Send(EncodeIngestBatch(&records[i], n));
      BinaryResponse response;
      if (result.ok()) result = client.ReadFrame(&response);
      if (result.ok() &&
          (response.type != static_cast<uint8_t>(BinaryResponseType::kOk) ||
           response.value != n || ReadLeU64(response.payload) != 0)) {
        result = Status::Internal("lossless ingest refused records");
      }
    }
    if (result.ok()) {
      result = client.Send(
          EncodeBinaryRequest(BinaryRequestType::kFlush, 0, ""));
      BinaryResponse response;
      if (result.ok()) result = client.ReadFrame(&response);
      if (result.ok()) {
        result = client.Send(EncodeBinaryRequest(
            BinaryRequestType::kQuery,
            static_cast<uint8_t>(Request::QueryKind::kCompanions), ""));
      }
      if (result.ok()) result = client.ReadFrame(&response);
      if (result.ok()) *body = response.payload;
    }
  } else {
    TextClient client;
    result = client.Connect(server.port());
    // Pipelined in chunks: responses come back in request order, so one
    // bulk write + N reads per chunk keeps the pass fast without any
    // per-record round trip.
    const size_t chunk = 64;
    for (size_t i = 0; result.ok() && i < records.size(); i += chunk) {
      size_t n = std::min(chunk, records.size() - i);
      std::string lines;
      for (size_t j = 0; j < n; ++j) {
        lines += FormatIngestLine(records[i + j]);
      }
      result = client.Send(lines);
      for (size_t j = 0; result.ok() && j < n; ++j) {
        std::string reply;
        result = client.ReadLine(&reply);
        if (result.ok() && reply.rfind("OK", 0) != 0) {
          result = Status::Internal("lossless ingest refused: " + reply);
        }
      }
    }
    if (result.ok()) result = client.Send("FLUSH\nQUERY companions\n");
    std::string reply;
    if (result.ok()) result = client.ReadLine(&reply);  // OK flushed
    if (result.ok()) result = client.ReadLine(&reply);  // OK <n>
    while (result.ok()) {
      std::string line;
      result = client.ReadLine(&line);
      if (!result.ok()) break;
      if (line == ".") break;
      *body += line;
      *body += '\n';
    }
  }

  server.RequestStop();
  server.Wait();
  Status stop = pipeline.Stop();
  if (result.ok()) result = stop;
  return result;
}

void AppendJsonDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", std::isfinite(v) ? v : -1.0);
  *out += buf;
}

}  // namespace

std::vector<TrajectoryRecord> BlastTraffic(int objects, int snapshots,
                                           uint64_t seed) {
  // The bench suite's "coherent" recipe, scaled to the requested size:
  // tight groups against light clutter, unit-scale speeds.
  GroupModelOptions opts;
  opts.num_objects = objects;
  opts.num_snapshots = snapshots;
  opts.area_size = 170.0 * std::sqrt(static_cast<double>(std::max(1, objects)));
  opts.group_speed = 1.0;
  opts.free_speed = 1.5;
  opts.member_jitter = 0.8;
  opts.seed = seed;
  GroupDataset dataset = GenerateGroupStream(opts);
  return StreamToRecords(dataset.stream, /*seconds_per_snapshot=*/1.0);
}

Status RunBlast(const BlastOptions& options, BlastReport* report) {
  if (options.clients < 1) {
    return Status::InvalidArgument("blast needs at least one client");
  }
  if (options.batch_records < 1 ||
      static_cast<size_t>(options.batch_records) * kBinaryRecordBytes >
          kMaxBinaryPayloadBytes) {
    return Status::InvalidArgument("invalid --batch record count");
  }
  if (options.seconds_per_point <= 0.0) {
    return Status::InvalidArgument("seconds per point must be positive");
  }
  if (options.objects < 1 || options.snapshots < 1) {
    return Status::InvalidArgument("--objects and --snapshots must be >= 1");
  }
  if (!options.pipeline.checkpoint_path.empty()) {
    return Status::InvalidArgument("blast does not support checkpoints");
  }

  std::vector<double> rates = options.offered_rates;
  if (rates.empty()) rates = {2000.0, 10000.0, 50000.0, 250000.0};
  for (double r : rates) {
    if (!(r > 0.0)) {
      return Status::InvalidArgument("offered rates must be positive");
    }
  }
  BlastOptions resolved = options;
  resolved.offered_rates = rates;

  std::vector<TrajectoryRecord> base =
      BlastTraffic(options.objects, options.snapshots, options.seed);
  if (base.empty()) {
    return Status::InvalidArgument("blast scenario produced no records");
  }
  // One cycle spans [0, last snapshot]; the next cycle starts one
  // snapshot later, so per-client time is strictly increasing.
  const double cycle_span = base.back().timestamp + 1.0;

  report->clients = options.clients;
  report->batch_records = options.batch_records;
  report->seconds_per_point = options.seconds_per_point;
  report->traffic_records = static_cast<int64_t>(base.size());

  if (options.verify_products) {
    std::string reference;
    uint64_t companions = 0;
    TCOMP_RETURN_IF_ERROR(
        BatchReference(options.pipeline, base, &reference, &companions));
    std::string text_body;
    TCOMP_RETURN_IF_ERROR(
        ServeReference(resolved, base, /*binary=*/false, &text_body));
    std::string binary_body;
    TCOMP_RETURN_IF_ERROR(
        ServeReference(resolved, base, /*binary=*/true, &binary_body));
    report->verify.ran = true;
    report->verify.text_identical = (text_body == reference);
    report->verify.binary_identical = (binary_body == reference);
    report->verify.records = static_cast<int64_t>(base.size());
    report->verify.companions = companions;
  }

  if (options.run_text) {
    BlastCurve curve;
    TCOMP_RETURN_IF_ERROR(
        RunCurve(resolved, base, cycle_span, /*binary=*/false, &curve));
    report->curves.push_back(std::move(curve));
  }
  if (options.run_binary) {
    BlastCurve curve;
    TCOMP_RETURN_IF_ERROR(
        RunCurve(resolved, base, cycle_span, /*binary=*/true, &curve));
    report->curves.push_back(std::move(curve));
  }
  return Status::OK();
}

std::string BlastReportJson(const BlastReport& report) {
  std::string out;
  out += "{\n  \"bench\": \"blast\",\n";
  out += "  \"clients\": " + std::to_string(report.clients) + ",\n";
  out += "  \"batch_records\": " + std::to_string(report.batch_records) +
         ",\n";
  out += "  \"seconds_per_point\": ";
  AppendJsonDouble(&out, report.seconds_per_point);
  out += ",\n  \"traffic_records\": " +
         std::to_string(report.traffic_records) + ",\n";
  out += "  \"verify\": {\"ran\": ";
  out += report.verify.ran ? "true" : "false";
  out += ", \"text_identical\": ";
  out += report.verify.text_identical ? "true" : "false";
  out += ", \"binary_identical\": ";
  out += report.verify.binary_identical ? "true" : "false";
  out += ", \"records\": " + std::to_string(report.verify.records);
  out += ", \"companions\": " + std::to_string(report.verify.companions);
  out += "},\n  \"curves\": [";
  for (size_t c = 0; c < report.curves.size(); ++c) {
    const BlastCurve& curve = report.curves[c];
    out += c ? ",\n    {" : "\n    {";
    out += "\"protocol\": \"" + curve.protocol + "\", \"points\": [";
    for (size_t p = 0; p < curve.points.size(); ++p) {
      const BlastPoint& point = curve.points[p];
      out += p ? ",\n      {" : "\n      {";
      out += "\"offered_rps\": ";
      AppendJsonDouble(&out, point.offered_rps);
      out += ", \"achieved_rps\": ";
      AppendJsonDouble(&out, point.achieved_rps);
      out += ", \"shed_fraction\": ";
      AppendJsonDouble(&out, point.shed_fraction);
      out += ", \"p50_ms\": ";
      AppendJsonDouble(&out, point.p50_ms);
      out += ", \"p95_ms\": ";
      AppendJsonDouble(&out, point.p95_ms);
      out += ", \"p99_ms\": ";
      AppendJsonDouble(&out, point.p99_ms);
      out += ", \"records_sent\": " + std::to_string(point.records_sent);
      out += ", \"records_accepted\": " +
             std::to_string(point.records_accepted);
      out += ", \"records_refused\": " +
             std::to_string(point.records_refused);
      out += ", \"elapsed_seconds\": ";
      AppendJsonDouble(&out, point.elapsed_seconds);
      out += "}";
    }
    out += "\n    ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace tcomp
