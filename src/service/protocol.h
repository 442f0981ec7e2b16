#ifndef TCOMP_SERVICE_PROTOCOL_H_
#define TCOMP_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "service/pipeline.h"
#include "stream/record.h"
#include "util/status.h"

namespace tcomp {

/// The service speaks a line-delimited ASCII protocol over a byte stream
/// (TCP or an in-process pair). One request per line, LF-terminated (a
/// trailing CR is stripped, so telnet/netcat work):
///
///   INGEST <object> <timestamp> <x> <y>
///   QUERY companions | stats | buddies | metrics
///   FLUSH
///   SHUTDOWN
///
/// Responses: single-line replies are `OK <detail>` or
/// `ERR <CODE> <message>`. Multi-record replies open with `OK <n>`,
/// carry n payload lines, and close with a lone `.` — a client reads
/// until the dot without counting. Payload lines for `QUERY companions`
/// use the exact CSV row format of eval/export.h
/// (`duration,snapshot_index,size,objects`), so streamed results are
/// byte-comparable with the batch CLI's --out-csv files. `QUERY metrics`
/// returns the pipeline's Prometheus-style exposition text
/// (ServicePipeline::MetricsText): name-sorted, deterministic in names
/// and labels, scrapeable with `feed --query "QUERY metrics"` or netcat.

/// Longest accepted request line (bytes, excluding the LF). Anything
/// longer is a protocol error; the session discards until the next LF and
/// keeps serving.
inline constexpr size_t kMaxRequestLineBytes = 4096;

/// Splits a byte stream into protocol lines with a hard length cap.
/// Feed() appends raw bytes as they arrive; Next() extracts completed
/// lines. An overlong line flips the framer into discard mode until its
/// terminating LF, reporting kOversize exactly once per offending line —
/// a hostile or corrupt client cannot make the server buffer grow
/// unboundedly or wedge the session.
class LineFramer {
 public:
  explicit LineFramer(size_t max_line_bytes = kMaxRequestLineBytes);

  void Feed(const char* data, size_t n);

  enum class Result {
    kLine,      // *line holds a complete request line (CR/LF stripped)
    kNeedMore,  // no complete line buffered; Feed() more bytes
    kOversize,  // an overlong line was (or is being) discarded
  };
  Result Next(std::string* line);

  /// True when the stream ended mid-line (disconnect without a final LF).
  bool HasPartial() const { return !buffer_.empty() || discarding_; }

 private:
  const size_t max_line_bytes_;
  std::string buffer_;
  bool discarding_ = false;        // inside an overlong line
  bool oversize_reported_ = false;  // kOversize already returned for it
};

/// A parsed request.
struct Request {
  enum class Type { kIngest, kQuery, kFlush, kShutdown };
  enum class QueryKind { kCompanions, kStats, kBuddies, kMetrics };
  Type type = Type::kFlush;
  QueryKind query = QueryKind::kStats;
  TrajectoryRecord record;  // kIngest only
};

/// Parses one request line. Rejects non-ASCII bytes (the protocol is
/// ASCII; anything else — including valid UTF-8 multibyte sequences — is
/// a framing error), unknown verbs, wrong arity, and INGEST fields outside
/// the record-field grammar of util/text_fields.h — the one a record CSV
/// is read with: a decimal uint32 id, finite doubles with no '+' or hex.
Status ParseRequest(const std::string& line, Request* request);

/// Formats the text protocol's `ERR <CODE> <message>\n` line (newlines in
/// the message are flattened to spaces). Shared by the line sessions and
/// the event-loop connection driver.
std::string ProtocolErrorLine(const Status& status);

/// One query's result: `count` is the <n> of the text protocol's `OK <n>`
/// header (companion count for `companions`, payload line count
/// otherwise) and `body` is the payload bytes. The binary protocol ships
/// the same `body` verbatim, which is what makes query responses
/// byte-comparable across protocols.
struct QueryResult {
  uint64_t count = 0;
  std::string body;
};

/// One client's query answering and malformed-request accounting, shared
/// by both wire protocols of ServiceConnection (service/connection.h),
/// which dispatches the requests.
class ProtocolSession {
 public:
  /// Each malformed request bumps `parse_errors_total`, the counter every
  /// session of the pipeline shares.
  ProtocolSession(ServicePipeline* pipeline,
                  MetricCounter* parse_errors_total);

  /// Runs one query against the pipeline. Used by the text and the
  /// binary-frame dispatchers alike, so both protocols serve identical
  /// payload bytes.
  QueryResult RunQuery(Request::QueryKind kind);

  /// Response for a line the framer flagged as oversized.
  std::string OversizeResponse();

  /// Counts one externally detected malformed request (e.g. a bad binary
  /// frame on a sniffed connection).
  void CountParseError() { parse_errors_total_->Increment(); }

 private:
  ServicePipeline* pipeline_;
  MetricCounter* parse_errors_total_;
};

}  // namespace tcomp

#endif  // TCOMP_SERVICE_PROTOCOL_H_
