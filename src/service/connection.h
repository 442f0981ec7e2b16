#ifndef TCOMP_SERVICE_CONNECTION_H_
#define TCOMP_SERVICE_CONNECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/binary_protocol.h"
#include "service/pipeline.h"
#include "service/protocol.h"

namespace tcomp {

/// The counters every connection of one pipeline shares in its metrics
/// registry. They are bumped as the work happens, so a scrape sees what a
/// connection has done while it is still open.
struct ConnectionMetrics {
  MetricCounter* frames;          // tcomp_binary_frames_total
  MetricCounter* records;         // tcomp_binary_records_total
  MetricCounter* parse_errors;    // tcomp_conn_parse_errors_total
  MetricCounter* records_parked;  // tcomp_conn_records_parked_total
};

/// Registers (or finds) the ConnectionMetrics series in `registry`. The
/// server calls it when it is built, so the series exist before any
/// connection.
ConnectionMetrics RegisterConnectionMetrics(MetricsRegistry* registry);

/// Which wire protocol a connection speaks, decided by its first byte:
/// 0xAB (the binary request magic) selects binary framing, anything else
/// is the line protocol. The choice is sticky for the connection's life.
enum class WireProtocol { kUnknown, kText, kBinary };

/// One client's transport-free state machine for the event-loop server:
/// the loop feeds raw received bytes into Consume() and drains out(); a
/// test can do exactly the same without a socket. Handles protocol
/// sniffing, both framers, request dispatch, and response pipelining —
/// any number of requests may arrive in one read, and every response is
/// appended in request order.
///
/// Admission is one ServicePipeline::TryIngestBatch() call per INGEST
/// frame (or text INGEST line) and is nonblocking: when the queue fills
/// under kBlock, the unadmitted tail is parked and parsing pauses
/// (responses stay in order); the server re-offers the parked run, again
/// in one call, each tick via RetryParked(). The connection NEVER blocks
/// the event loop inside an admission call.
class ServiceConnection {
 public:
  explicit ServiceConnection(ServicePipeline* pipeline);

  /// Feeds received bytes and advances the state machine as far as
  /// admission allows. Responses accumulate in out().
  void Consume(const char* data, size_t n);

  /// Re-offers parked records, then resumes parsing buffered input.
  /// Returns true when any progress was made (records admitted or
  /// response bytes appended) — the server's cue to re-arm writes.
  bool RetryParked();

  /// Records waiting for queue room (kBlock backpressure).
  bool has_parked() const { return !pending_.empty(); }

  /// Graceful-drain hook, called by the server before closing during
  /// shutdown while the pipeline is still accepting: force-admits parked
  /// records with the blocking Ingest() (completing any fully-received
  /// batch atomically) and, when a binary client is caught mid-frame,
  /// appends one clean SHUTDOWN response frame — never a truncated one.
  /// The partially received frame itself is NOT admitted; the client
  /// re-sends it after resume, which is what keeps kill+resume
  /// byte-identical when the kill lands mid-INGEST-batch.
  void PrepareShutdown();

  /// True once a SHUTDOWN request was handled (response already queued).
  bool shutdown_requested() const { return shutdown_requested_; }

  /// True when the connection must be closed after out() drains
  /// (unrecoverable binary framing fault).
  bool fatal() const { return fatal_; }

  WireProtocol protocol() const { return protocol_; }

  /// True when the peer stopped mid-request (no final LF / incomplete
  /// frame) — the server's midline-disconnect accounting on EOF.
  bool has_partial_request() const;

  /// Pending response bytes. The server (or test) consumes from the
  /// front; Connection only ever appends.
  std::string& out() { return out_; }

 private:
  void Pump();
  void HandleTextLine(const std::string& line);
  void HandleFrame(const BinaryFrame& frame);
  /// Offers pending_[pending_pos_, end) in one admission call and settles
  /// what it consumed: tallied into the open batch's ack, or — a text
  /// INGEST — answered with its own reply line. What is left stays
  /// parked; `first_offer` counts it in the parked-records metric.
  /// Returns true when any record was consumed.
  bool OfferPending(bool first_offer);
  void FinishBatchIfComplete();
  void AppendBinaryError(const Status& status);

  ServicePipeline* pipeline_;
  ConnectionMetrics metrics_;
  ProtocolSession session_;
  WireProtocol protocol_ = WireProtocol::kUnknown;
  LineFramer line_framer_;
  BinaryFramer binary_framer_;

  std::string out_;
  // The records of the INGEST being admitted; pending_[pending_pos_, end)
  // are not disposed of yet. Empty whenever nothing is parked.
  std::vector<TrajectoryRecord> pending_;
  size_t pending_pos_ = 0;

  // An INGEST_BATCH whose ack is deferred until every record is disposed
  // of (admitted or refused). Text ingests park at most one record and
  // ack per record, so they never populate these.
  bool batch_open_ = false;
  uint64_t batch_accepted_ = 0;
  uint64_t batch_refused_ = 0;

  bool shutdown_requested_ = false;
  bool fatal_ = false;
};

}  // namespace tcomp

#endif  // TCOMP_SERVICE_CONNECTION_H_
