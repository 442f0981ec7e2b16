#ifndef TCOMP_TOOLS_BLAST_H_
#define TCOMP_TOOLS_BLAST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service/pipeline.h"
#include "service/server.h"
#include "stream/record.h"
#include "util/status.h"

namespace tcomp {

/// Configuration of the blast load generator: a self-hosted pipeline +
/// event-loop server is driven by N concurrent synthetic clients at a
/// sequence of offered record rates, producing a saturation curve per
/// wire protocol. Traffic comes from the group-movement generator
/// (deterministic in `seed`); each client streams an object-disjoint copy
/// of the same scenario so concurrent clients never alias object ids.
struct BlastOptions {
  int clients = 4;
  /// Total offered load per curve point, in records/second across all
  /// clients. Empty selects the default 4-point curve.
  std::vector<double> offered_rates;
  double seconds_per_point = 2.0;
  bool run_text = true;
  bool run_binary = true;
  /// Records per binary INGEST_BATCH frame.
  int batch_records = 256;
  /// Objects in the synthetic scenario (per client).
  int objects = 100;
  /// Snapshots in the synthetic scenario; clients cycle through it with a
  /// per-cycle timestamp offset, so streamed time always advances.
  int snapshots = 30;
  uint64_t seed = 405;
  /// Run the single-client differential pass: the full scenario streamed
  /// through each protocol (lossless backpressure) must produce companion
  /// CSV byte-identical to the in-process batch path.
  bool verify_products = true;
  /// Pipeline template (algorithm, thresholds, window, queue). The load
  /// phase overrides backpressure to kShedOldest so saturation sheds
  /// instead of stalling the clients; the verify pass overrides it to
  /// kBlock so nothing is ever refused. checkpoint_path must be empty.
  ServicePipelineOptions pipeline;
  /// Server template for the self-hosted front-end (port is always
  /// ephemeral).
  ServerOptions server;
};

/// One measured point of the saturation curve.
struct BlastPoint {
  double offered_rps = 0.0;   // target rate the clients paced toward
  double achieved_rps = 0.0;  // records acknowledged / elapsed
  /// Fraction of admitted records the pipeline later refused or evicted
  /// (queue shed + rejected over pushed + rejected), from server-side
  /// stats deltas across the point.
  double shed_fraction = 0.0;
  // Client-observed ingest-admission round-trip latency, per request
  // (one record for text, one batch frame for binary).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  int64_t records_sent = 0;
  int64_t records_accepted = 0;  // acknowledged by the server
  int64_t records_refused = 0;   // refused in acks (invalid/reject-full)
  double elapsed_seconds = 0.0;
};

struct BlastCurve {
  std::string protocol;  // "text" or "binary"
  std::vector<BlastPoint> points;
};

/// Result of the differential product check (see
/// BlastOptions::verify_products).
struct BlastVerify {
  bool ran = false;
  bool text_identical = false;
  bool binary_identical = false;
  int64_t records = 0;       // scenario records streamed per protocol
  uint64_t companions = 0;   // companion count of the batch reference
};

struct BlastReport {
  int clients = 0;
  int batch_records = 0;
  double seconds_per_point = 0.0;
  int64_t traffic_records = 0;  // records in one scenario cycle
  BlastVerify verify;
  std::vector<BlastCurve> curves;
};

/// The blast scenario: the bench suite's "coherent" group-movement recipe
/// flattened to records at one snapshot per second. Deterministic in all
/// three arguments.
std::vector<TrajectoryRecord> BlastTraffic(int objects, int snapshots,
                                           uint64_t seed);

/// Runs the full blast benchmark (verification pass, then one saturation
/// curve per enabled protocol, each against a fresh self-hosted
/// pipeline + server). Fails fast on configuration or transport errors;
/// overload is a measurement, never an error.
Status RunBlast(const BlastOptions& options, BlastReport* report);

/// Renders the report as a deterministic JSON document (insertion-ordered
/// keys, fixed float formatting) for tools/bench_json.py.
std::string BlastReportJson(const BlastReport& report);

}  // namespace tcomp

#endif  // TCOMP_TOOLS_BLAST_H_
