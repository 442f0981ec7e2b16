#include "service/connection.h"

#include "util/timer.h"

namespace tcomp {

ConnectionMetrics RegisterConnectionMetrics(MetricsRegistry* registry) {
  ConnectionMetrics m;
  m.frames = registry->GetCounter("tcomp_binary_frames_total", "",
                                  "Binary request frames decoded");
  m.records = registry->GetCounter(
      "tcomp_binary_records_total", "",
      "Records received in binary INGEST batches");
  m.parse_errors = registry->GetCounter(
      "tcomp_conn_parse_errors_total", "",
      "Malformed request lines and frames, all connections");
  m.records_parked = registry->GetCounter(
      "tcomp_conn_records_parked_total", "",
      "Records that found the ingest queue full and waited for a retry");
  return m;
}

ServiceConnection::ServiceConnection(ServicePipeline* pipeline)
    : pipeline_(pipeline),
      metrics_(RegisterConnectionMetrics(pipeline->mutable_metrics())),
      session_(pipeline, metrics_.parse_errors) {}

void ServiceConnection::Consume(const char* data, size_t n) {
  if (fatal_ || n == 0) return;
  if (protocol_ == WireProtocol::kUnknown) {
    // First byte decides. Every text verb starts with an ASCII letter;
    // 0xAB can only open a binary request frame (the text parser rejects
    // bytes >= 0x80 outright), so the sniff is unambiguous.
    protocol_ = (static_cast<unsigned char>(data[0]) == kBinaryRequestMagic)
                    ? WireProtocol::kBinary
                    : WireProtocol::kText;
  }
  if (protocol_ == WireProtocol::kBinary) {
    binary_framer_.Feed(data, n);
  } else {
    line_framer_.Feed(data, n);
  }
  Pump();
}

void ServiceConnection::Pump() {
  // Parsing pauses while records are parked: responses must stay in
  // request order, and the parked batch's ack is still pending.
  while (!fatal_ && pending_.empty()) {
    if (protocol_ == WireProtocol::kText) {
      std::string line;
      LineFramer::Result r = line_framer_.Next(&line);
      if (r == LineFramer::Result::kNeedMore) return;
      if (r == LineFramer::Result::kOversize) {
        out_ += session_.OversizeResponse();
        continue;
      }
      HandleTextLine(line);
    } else if (protocol_ == WireProtocol::kBinary) {
      BinaryFrame frame;
      std::string error;
      BinaryFramer::Result r = binary_framer_.Next(&frame, &error);
      if (r == BinaryFramer::Result::kNeedMore) return;
      if (r == BinaryFramer::Result::kBad) {
        // No resync point exists past a framing fault: answer with one
        // complete error frame, then the server closes after the flush.
        session_.CountParseError();
        AppendBinaryError(Status::InvalidArgument(error));
        fatal_ = true;
        return;
      }
      HandleFrame(frame);
    } else {
      return;  // no bytes seen yet
    }
  }
}

void ServiceConnection::HandleTextLine(const std::string& line) {
  Request request;
  Status s = ParseRequest(line, &request);
  if (!s.ok()) {
    session_.CountParseError();
    out_ += ProtocolErrorLine(s);
    return;
  }
  switch (request.type) {
    case Request::Type::kIngest:
      // Replied to when the queue takes or refuses it; under kBlock at
      // capacity that waits for a retry.
      pending_.assign(1, request.record);
      OfferPending(/*first_offer=*/true);
      return;
    case Request::Type::kFlush: {
      Status fs = pipeline_->Flush();
      out_ += fs.ok() ? "OK flushed\n" : ProtocolErrorLine(fs);
      return;
    }
    case Request::Type::kShutdown:
      shutdown_requested_ = true;
      out_ += "OK shutting-down\n";
      return;
    case Request::Type::kQuery: {
      QueryResult result = session_.RunQuery(request.query);
      out_ += "OK " + std::to_string(result.count) + "\n";
      out_ += result.body;
      out_ += ".\n";
      return;
    }
  }
}

void ServiceConnection::HandleFrame(const BinaryFrame& frame) {
  metrics_.frames->Increment();
  switch (static_cast<BinaryRequestType>(frame.type)) {
    case BinaryRequestType::kIngestBatch: {
      Timer decode_timer;
      decode_timer.Start();
      // Pump() only decodes while nothing is parked, so pending_ is empty
      // here, and stays so if the payload is refused.
      Status ds = DecodeIngestPayload(frame.payload, &pending_);
      decode_timer.Stop();
      pipeline_->stage_sink()->RecordStage(Stage::kFrameDecode,
                                           decode_timer.Seconds());
      if (!ds.ok()) {
        // The frame boundary itself was sound — only the payload is
        // malformed — so this is recoverable: error frame, keep serving.
        session_.CountParseError();
        AppendBinaryError(ds);
        return;
      }
      metrics_.records->Add(pending_.size());
      batch_open_ = true;
      batch_accepted_ = 0;
      batch_refused_ = 0;
      // Acks now, or — queue full under kBlock — parks the tail and
      // defers the ack until RetryParked() has admitted it.
      OfferPending(/*first_offer=*/true);
      return;
    }
    case BinaryRequestType::kQuery: {
      if (frame.arg > static_cast<uint8_t>(Request::QueryKind::kMetrics)) {
        session_.CountParseError();
        AppendBinaryError(Status::InvalidArgument(
            "unknown query kind " + std::to_string(frame.arg)));
        return;
      }
      QueryResult result =
          session_.RunQuery(static_cast<Request::QueryKind>(frame.arg));
      out_ += EncodeBinaryResponse(BinaryResponseType::kOk, 0, result.count,
                                   result.body);
      return;
    }
    case BinaryRequestType::kFlush: {
      Status fs = pipeline_->Flush();
      if (fs.ok()) {
        out_ += EncodeBinaryResponse(BinaryResponseType::kOk, 0, 0, "");
      } else {
        AppendBinaryError(fs);
      }
      return;
    }
    case BinaryRequestType::kShutdown:
      shutdown_requested_ = true;
      out_ += EncodeBinaryResponse(BinaryResponseType::kOk, 0, 0,
                                   "shutting-down");
      return;
  }
  session_.CountParseError();
  AppendBinaryError(Status::InvalidArgument("unknown frame type " +
                                            std::to_string(frame.type)));
}

bool ServiceConnection::OfferPending(bool first_offer) {
  const size_t offered = pending_.size() - pending_pos_;
  IngestBatchResult result =
      pipeline_->TryIngestBatch(pending_.data() + pending_pos_, offered);
  pending_pos_ += result.consumed;
  if (batch_open_) {
    batch_accepted_ += result.accepted;
    batch_refused_ += result.refused();
  } else if (result.consumed > 0) {
    // A text INGEST offers its one record: OK or that record's ERR line.
    out_ += result.accepted > 0 ? "OK\n"
                                : ProtocolErrorLine(result.last_refusal);
  }
  if (first_offer) metrics_.records_parked->Add(offered - result.consumed);
  if (pending_pos_ == pending_.size()) {
    pending_.clear();
    pending_pos_ = 0;
    FinishBatchIfComplete();
  }
  return result.consumed > 0;
}

void ServiceConnection::FinishBatchIfComplete() {
  if (!batch_open_ || !pending_.empty()) return;
  std::string refused_payload;
  refused_payload.reserve(8);
  uint64_t refused = batch_refused_;
  for (int i = 0; i < 8; ++i) {
    refused_payload.push_back(static_cast<char>(refused & 0xFF));
    refused >>= 8;
  }
  out_ += EncodeBinaryResponse(BinaryResponseType::kOk, 0, batch_accepted_,
                               refused_payload);
  batch_open_ = false;
  batch_accepted_ = 0;
  batch_refused_ = 0;
}

bool ServiceConnection::RetryParked() {
  if (fatal_) return false;
  size_t out_before = out_.size();
  bool progress = has_parked() && OfferPending(/*first_offer=*/false);
  if (!has_parked()) Pump();  // resume parsing buffered requests
  return progress || out_.size() != out_before;
}

void ServiceConnection::PrepareShutdown() {
  // The pipeline is still running (the server drains connections before
  // ServicePipeline::Stop()), so the blocking Ingest() completes any
  // fully received batch atomically — admitted prefixes are never split
  // inside a frame the client saw acknowledged.
  for (; pending_pos_ < pending_.size(); ++pending_pos_) {
    Status s = pipeline_->Ingest(pending_[pending_pos_]);
    if (batch_open_) {
      if (s.ok()) {
        ++batch_accepted_;
      } else {
        ++batch_refused_;
      }
    } else {
      out_ += s.ok() ? "OK\n" : ProtocolErrorLine(s);
    }
  }
  pending_.clear();
  pending_pos_ = 0;
  FinishBatchIfComplete();
  if (protocol_ == WireProtocol::kBinary && !fatal_ &&
      binary_framer_.HasPartial()) {
    // The client is mid-frame: nothing of the partial frame was (or will
    // be) admitted. Send one complete SHUTDOWN frame — never a truncated
    // response — so the client knows to re-send the whole frame after
    // the server resumes.
    out_ += EncodeBinaryResponse(
        BinaryResponseType::kShutdown, 0, 0,
        "server shutting down; partial frame not admitted, re-send it");
  }
}

bool ServiceConnection::has_partial_request() const {
  switch (protocol_) {
    case WireProtocol::kText:
      return line_framer_.HasPartial();
    case WireProtocol::kBinary:
      return binary_framer_.HasPartial();
    case WireProtocol::kUnknown:
      return false;
  }
  return false;
}

void ServiceConnection::AppendBinaryError(const Status& status) {
  out_ += EncodeBinaryResponse(BinaryResponseType::kErr,
                               static_cast<uint8_t>(status.code()), 0,
                               status.message());
}

}  // namespace tcomp
