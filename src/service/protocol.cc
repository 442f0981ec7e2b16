#include "service/protocol.h"

#include <cstdio>
#include <sstream>
#include <string_view>
#include <vector>

#include "eval/export.h"
#include "util/text_fields.h"

namespace tcomp {
namespace {

/// The protocol is printable ASCII plus tab. Anything else — control
/// bytes, 0x7F, and every byte ≥ 0x80 (which covers all multi-byte UTF-8
/// and any invalid encoding) — is a framing error, not data.
bool IsProtocolText(const std::string& line) {
  for (unsigned char c : line) {
    if (c == '\t') continue;
    if (c < 0x20 || c > 0x7E) return false;
  }
  return true;
}

/// Status code → the protocol's error token.
const char* CodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kIoError:
      return "IO_ERROR";
    case StatusCode::kCorruption:
      return "CORRUPTION";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "INTERNAL";
}

std::string ErrLine(const char* token, const std::string& message) {
  std::string out = "ERR ";
  out += token;
  if (!message.empty()) {
    out += ' ';
    // Keep the reply a single line whatever the message contains.
    for (char c : message) out += (c == '\n' || c == '\r') ? ' ' : c;
  }
  out += '\n';
  return out;
}

std::string ErrLine(const Status& status) {
  return ErrLine(CodeToken(status.code()), status.message());
}

}  // namespace

std::string ProtocolErrorLine(const Status& status) { return ErrLine(status); }

LineFramer::LineFramer(size_t max_line_bytes)
    : max_line_bytes_(max_line_bytes) {}

void LineFramer::Feed(const char* data, size_t n) {
  buffer_.append(data, n);
}

LineFramer::Result LineFramer::Next(std::string* line) {
  for (;;) {
    size_t lf = buffer_.find('\n');
    if (discarding_) {
      if (lf == std::string::npos) {
        // Still inside the overlong line; drop what we have so the buffer
        // cannot grow without bound.
        buffer_.clear();
        if (!oversize_reported_) {
          oversize_reported_ = true;
          return Result::kOversize;
        }
        return Result::kNeedMore;
      }
      buffer_.erase(0, lf + 1);
      discarding_ = false;
      bool reported = oversize_reported_;
      oversize_reported_ = false;
      if (!reported) return Result::kOversize;
      continue;  // the overlong line is fully consumed; look for the next
    }
    if (lf == std::string::npos) {
      if (buffer_.size() > max_line_bytes_) {
        discarding_ = true;
        continue;
      }
      return Result::kNeedMore;
    }
    if (lf > max_line_bytes_) {
      buffer_.erase(0, lf + 1);
      return Result::kOversize;
    }
    line->assign(buffer_, 0, lf);
    buffer_.erase(0, lf + 1);
    if (!line->empty() && line->back() == '\r') line->pop_back();
    return Result::kLine;
  }
}

Status ParseRequest(const std::string& line, Request* request) {
  if (!IsProtocolText(line)) {
    return Status::InvalidArgument("non-ASCII byte in request line");
  }
  std::vector<std::string_view> tokens = SplitBlanks(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty request");
  }
  std::string_view verb = tokens[0];
  if (verb == "INGEST") {
    if (tokens.size() != 5) {
      return Status::InvalidArgument(
          "INGEST expects: INGEST <object> <timestamp> <x> <y>");
    }
    TrajectoryRecord record;
    if (!ParseIdField(tokens[1], &record.object)) {
      return Status::InvalidArgument("bad object id: " +
                                     std::string(tokens[1]));
    }
    if (!ParseFiniteField(tokens[2], &record.timestamp)) {
      return Status::InvalidArgument("bad timestamp: " +
                                     std::string(tokens[2]));
    }
    if (!ParseFiniteField(tokens[3], &record.pos.x) ||
        !ParseFiniteField(tokens[4], &record.pos.y)) {
      return Status::InvalidArgument("bad coordinate");
    }
    request->type = Request::Type::kIngest;
    request->record = record;
    return Status::OK();
  }
  if (verb == "QUERY") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument(
          "QUERY expects: QUERY companions|stats|buddies|metrics");
    }
    request->type = Request::Type::kQuery;
    if (tokens[1] == "companions") {
      request->query = Request::QueryKind::kCompanions;
    } else if (tokens[1] == "stats") {
      request->query = Request::QueryKind::kStats;
    } else if (tokens[1] == "buddies") {
      request->query = Request::QueryKind::kBuddies;
    } else if (tokens[1] == "metrics") {
      request->query = Request::QueryKind::kMetrics;
    } else {
      return Status::InvalidArgument("unknown query: " +
                                     std::string(tokens[1]));
    }
    return Status::OK();
  }
  if (verb == "FLUSH") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument("FLUSH takes no arguments");
    }
    request->type = Request::Type::kFlush;
    return Status::OK();
  }
  if (verb == "SHUTDOWN") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument("SHUTDOWN takes no arguments");
    }
    request->type = Request::Type::kShutdown;
    return Status::OK();
  }
  return Status::InvalidArgument("unknown command: " + std::string(verb));
}

ProtocolSession::ProtocolSession(ServicePipeline* pipeline,
                                 MetricCounter* parse_errors_total)
    : pipeline_(pipeline), parse_errors_total_(parse_errors_total) {}

std::string ProtocolSession::OversizeResponse() {
  CountParseError();
  return ErrLine("INVALID_ARGUMENT",
                 "request line exceeds " +
                     std::to_string(kMaxRequestLineBytes) + " bytes");
}

QueryResult ProtocolSession::RunQuery(Request::QueryKind kind) {
  QueryResult result;
  std::ostringstream out;
  switch (kind) {
    case Request::QueryKind::kCompanions: {
      std::vector<Companion> companions = pipeline_->Companions();
      result.count = companions.size();
      // Payload is the batch CLI's exact --out-csv content (header
      // included), so streamed and batch results diff byte-for-byte.
      WriteCompanionsCsv(companions, out);
      result.body = out.str();
      return result;
    }
    case Request::QueryKind::kStats: {
      ServiceStats stats = pipeline_->Stats();
      std::ostringstream body;
      body << "records_ingested=" << stats.records_ingested << '\n'
           << "records_processed=" << stats.records_processed << '\n'
           << "records_invalid=" << stats.records_invalid << '\n'
           << "records_late=" << stats.records_late << '\n'
           << "reorder_held_peak=" << stats.reorder_held_peak << '\n'
           << "queue_pushed=" << stats.queue.pushed << '\n'
           << "queue_popped=" << stats.queue.popped << '\n'
           << "queue_shed=" << stats.queue.shed << '\n'
           << "queue_rejected=" << stats.queue.rejected << '\n'
           << "queue_depth=" << stats.queue.depth << '\n'
           << "queue_depth_peak=" << stats.queue.depth_peak << '\n'
           << "snapshots=" << stats.discovery.snapshots << '\n'
           << "snapshots_emitted=" << stats.snapshots_emitted << '\n'
           << "intersections=" << stats.discovery.intersections << '\n'
           << "candidate_objects_peak="
           << stats.discovery.candidate_objects_peak << '\n'
           << "companions_reported=" << stats.discovery.companions_reported
           << '\n'
           << "companions_distinct=" << stats.companions_distinct << '\n'
           << "checkpoints_written=" << stats.checkpoints_written << '\n'
           << "resumed=" << (stats.resumed ? 1 : 0) << '\n';
      std::string text = body.str();
      size_t lines = 0;
      for (char c : text) lines += (c == '\n');
      result.count = lines;
      result.body = std::move(text);
      return result;
    }
    case Request::QueryKind::kBuddies: {
      ServiceStats stats = pipeline_->Stats();
      const DiscoveryStats& d = stats.discovery;
      std::ostringstream body;
      body << "buddy_pairs_checked=" << d.buddy_pairs_checked << '\n'
           << "buddy_pairs_pruned=" << d.buddy_pairs_pruned << '\n'
           << "buddies_total=" << d.buddies_total << '\n'
           << "buddies_unchanged=" << d.buddies_unchanged << '\n'
           << "buddy_member_sum=" << d.buddy_member_sum << '\n';
      char avg[64];
      std::snprintf(avg, sizeof(avg), "average_buddy_size=%.6g\n",
                    d.average_buddy_size());
      body << avg;
      std::string text = body.str();
      size_t lines = 0;
      for (char c : text) lines += (c == '\n');
      result.count = lines;
      result.body = std::move(text);
      return result;
    }
    case Request::QueryKind::kMetrics: {
      // Exposition text is '\n'-terminated per line and never contains a
      // bare "." line (every line starts with '#' or a metric name), so
      // the dot terminator frames it unambiguously.
      std::string text = pipeline_->MetricsText();
      size_t lines = 0;
      for (char c : text) lines += (c == '\n');
      result.count = lines;
      result.body = std::move(text);
      return result;
    }
  }
  return result;
}

}  // namespace tcomp
