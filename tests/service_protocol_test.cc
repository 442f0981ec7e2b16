#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/group_model.h"
#include "data/trajectory_io.h"
#include "eval/export.h"
#include "service/binary_protocol.h"
#include "service/connection.h"
#include "service/pipeline.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"

namespace tcomp {
namespace {

// Malformed requests counted by every connection of `pipeline`; each test
// below that reads it drives a single connection.
int64_t ParseErrors(ServicePipeline* pipeline) {
  return static_cast<int64_t>(
      RegisterConnectionMetrics(pipeline->mutable_metrics())
          .parse_errors->Value());
}

// ---------------------------------------------------------------------
// LineFramer: byte-stream framing with a hard line cap.

TEST(LineFramerTest, SplitsLinesAcrossFeeds) {
  LineFramer framer;
  std::string line;
  framer.Feed("FLU", 3);
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  EXPECT_TRUE(framer.HasPartial());
  framer.Feed("SH\nQUERY stats\n", 15);
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "FLUSH");
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "QUERY stats");
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  EXPECT_FALSE(framer.HasPartial());
}

TEST(LineFramerTest, StripsCarriageReturn) {
  LineFramer framer;
  framer.Feed("SHUTDOWN\r\n", 10);
  std::string line;
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "SHUTDOWN");
}

TEST(LineFramerTest, OversizedLineIsDiscardedOnceAndFramingRecovers) {
  LineFramer framer(16);
  std::string big(100, 'x');
  big += "\nFLUSH\n";
  framer.Feed(big.data(), big.size());
  std::string line;
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kOversize);
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "FLUSH");
}

TEST(LineFramerTest, OversizedLineAcrossManyFeedsReportsOnce) {
  LineFramer framer(16);
  std::string chunk(32, 'y');
  framer.Feed(chunk.data(), chunk.size());
  std::string line;
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kOversize);
  // The line keeps streaming in: stay quiet (one error per line) and keep
  // memory bounded.
  for (int i = 0; i < 1000; ++i) {
    framer.Feed(chunk.data(), chunk.size());
    EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  }
  framer.Feed("\nFLUSH\n", 7);
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "FLUSH");
}

TEST(LineFramerTest, MidLineEndOfStreamIsDetectable) {
  LineFramer framer;
  framer.Feed("INGEST 1 2", 10);  // peer vanished mid-line
  std::string line;
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  EXPECT_TRUE(framer.HasPartial());
}

// ---------------------------------------------------------------------
// ParseRequest: every malformed frame is an error, never a crash.

TEST(ParseRequestTest, ParsesValidRequests) {
  Request r;
  ASSERT_TRUE(ParseRequest("INGEST 7 120.5 3.25 -4.5", &r).ok());
  EXPECT_EQ(r.type, Request::Type::kIngest);
  EXPECT_EQ(r.record.object, 7u);
  EXPECT_EQ(r.record.timestamp, 120.5);
  EXPECT_EQ(r.record.pos.x, 3.25);
  EXPECT_EQ(r.record.pos.y, -4.5);

  ASSERT_TRUE(ParseRequest("QUERY companions", &r).ok());
  EXPECT_EQ(r.type, Request::Type::kQuery);
  EXPECT_EQ(r.query, Request::QueryKind::kCompanions);
  ASSERT_TRUE(ParseRequest("QUERY buddies", &r).ok());
  EXPECT_EQ(r.query, Request::QueryKind::kBuddies);
  ASSERT_TRUE(ParseRequest("FLUSH", &r).ok());
  EXPECT_EQ(r.type, Request::Type::kFlush);
  ASSERT_TRUE(ParseRequest("SHUTDOWN", &r).ok());
  EXPECT_EQ(r.type, Request::Type::kShutdown);
}

TEST(ParseRequestTest, RejectsMalformedFrames) {
  Request r;
  // Truncated / overlong INGEST records.
  EXPECT_FALSE(ParseRequest("INGEST", &r).ok());
  EXPECT_FALSE(ParseRequest("INGEST 1 2.0 3.0", &r).ok());
  EXPECT_FALSE(ParseRequest("INGEST 1 2.0 3.0 4.0 5.0", &r).ok());
  // Non-numeric and non-finite fields.
  EXPECT_FALSE(ParseRequest("INGEST x 2.0 3.0 4.0", &r).ok());
  EXPECT_FALSE(ParseRequest("INGEST -1 2.0 3.0 4.0", &r).ok());
  EXPECT_FALSE(ParseRequest("INGEST 1 nan 3.0 4.0", &r).ok());
  EXPECT_FALSE(ParseRequest("INGEST 1 2.0 inf 4.0", &r).ok());
  EXPECT_FALSE(ParseRequest("INGEST 99999999999 2.0 3.0 4.0", &r).ok());
  // Unknown verbs and queries, wrong arity.
  EXPECT_FALSE(ParseRequest("", &r).ok());
  EXPECT_FALSE(ParseRequest("   ", &r).ok());
  EXPECT_FALSE(ParseRequest("BOGUS", &r).ok());
  EXPECT_FALSE(ParseRequest("QUERY", &r).ok());
  EXPECT_FALSE(ParseRequest("QUERY everything", &r).ok());
  EXPECT_FALSE(ParseRequest("FLUSH now", &r).ok());
  EXPECT_FALSE(ParseRequest("SHUTDOWN please", &r).ok());
  EXPECT_FALSE(ParseRequest("ingest 1 2 3 4", &r).ok());  // case matters
}

TEST(ParseRequestTest, RejectsNonAsciiBytes) {
  Request r;
  // Invalid UTF-8 (lone continuation / overlong lead) and valid UTF-8
  // multibyte are all equally non-protocol.
  EXPECT_FALSE(ParseRequest("INGEST 1 2 3 \xff", &r).ok());
  EXPECT_FALSE(ParseRequest("INGEST 1 2 3 \xc3\xa9", &r).ok());
  EXPECT_FALSE(ParseRequest(std::string("FLUSH\0", 6), &r).ok());
  EXPECT_FALSE(ParseRequest("QUERY \x1b[31mstats", &r).ok());
}

// ---------------------------------------------------------------------
// ProtocolSession: request/response behaviour against a live pipeline,
// through the text dispatcher the server runs (ServiceConnection).

ServicePipelineOptions SmallPipelineOptions() {
  ServicePipelineOptions opts;
  opts.algorithm = Algorithm::kBuddy;
  opts.params.cluster.epsilon = 18.0;
  opts.params.cluster.mu = 2;
  opts.params.size_threshold = 3;
  opts.params.duration_threshold = 2;
  opts.window.window_length = 60.0;
  return opts;
}

/// Sends one request line through the connection and returns the
/// response bytes it produced.
std::string Exchange(ServiceConnection* conn, const std::string& line) {
  std::string wire = line + "\n";
  conn->Consume(wire.data(), wire.size());
  std::string response = conn->out();
  conn->out().clear();
  return response;
}

/// Records for a tight 4-object group crossing three snapshots.
std::vector<std::string> GroupIngestLines() {
  std::vector<std::string> lines;
  for (int snap = 0; snap < 3; ++snap) {
    for (int obj = 0; obj < 4; ++obj) {
      std::ostringstream line;
      line << "INGEST " << obj << ' ' << snap * 60.0 << ' '
           << 100.0 + snap * 25.0 + obj << ' ' << 200.0 + obj;
      lines.push_back(line.str());
    }
  }
  return lines;
}

TEST(ProtocolSessionTest, IngestFlushQueryRoundTrip) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServiceConnection conn(&pipeline);

  for (const std::string& line : GroupIngestLines()) {
    EXPECT_EQ(Exchange(&conn, line), "OK\n");
  }
  EXPECT_EQ(Exchange(&conn, "FLUSH"), "OK flushed\n");

  std::string response = Exchange(&conn, "QUERY companions");
  // Payload is the batch CSV byte for byte, wrapped in OK <n> ... `.`.
  std::ostringstream expected;
  expected << "OK " << pipeline.Companions().size() << "\n";
  WriteCompanionsCsv(pipeline.Companions(), expected);
  expected << ".\n";
  EXPECT_EQ(response, expected.str());
  EXPECT_GE(pipeline.Companions().size(), 1u);

  std::string stats = Exchange(&conn, "QUERY stats");
  EXPECT_EQ(stats.rfind("OK ", 0), 0u);
  EXPECT_NE(stats.find("records_ingested=12\n"), std::string::npos);
  EXPECT_NE(stats.find("snapshots=3\n"), std::string::npos);
  EXPECT_TRUE(stats.size() >= 2 &&
              stats.compare(stats.size() - 2, 2, ".\n") == 0);

  std::string buddies = Exchange(&conn, "QUERY buddies");
  EXPECT_EQ(buddies.rfind("OK ", 0), 0u);
  EXPECT_NE(buddies.find("buddies_total="), std::string::npos);

  EXPECT_FALSE(conn.shutdown_requested());
  EXPECT_EQ(ParseErrors(&pipeline), 0);
  EXPECT_TRUE(pipeline.Stop().ok());
}

/// Strips the value (everything after the last space) from a metric
/// line, keeping the name+labels part that must be run-invariant.
std::string NameAndLabels(const std::string& line) {
  size_t space = line.rfind(' ');
  return space == std::string::npos ? line : line.substr(0, space);
}

std::vector<std::string> MetricNameSequence(const std::string& payload) {
  std::vector<std::string> names;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line == ".") continue;
    if (line.rfind("OK ", 0) == 0) continue;
    if (line.rfind("# HELP", 0) == 0 || line.rfind("# TYPE", 0) == 0) {
      names.push_back(line);  // comment lines carry no values
      continue;
    }
    names.push_back(NameAndLabels(line));
  }
  return names;
}

TEST(ProtocolSessionTest, QueryMetricsReturnsFramedExposition) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServiceConnection conn(&pipeline);
  for (const std::string& line : GroupIngestLines()) {
    ASSERT_EQ(Exchange(&conn, line), "OK\n");
  }
  ASSERT_EQ(Exchange(&conn, "FLUSH"), "OK flushed\n");

  std::string response = Exchange(&conn, "QUERY metrics");
  ASSERT_EQ(response.rfind("OK ", 0), 0u);
  ASSERT_TRUE(response.size() >= 2 &&
              response.compare(response.size() - 2, 2, ".\n") == 0);
  // The line count in the OK header matches the payload exactly.
  size_t header_end = response.find('\n');
  long long advertised = std::stoll(response.substr(3, header_end - 3));
  std::string payload =
      response.substr(header_end + 1, response.size() - header_end - 3);
  long long lines = 0;
  for (char c : payload) lines += (c == '\n');
  EXPECT_EQ(advertised, lines);
  // Core series are present, including the per-stage histograms and the
  // counters synced from the pipeline.
  EXPECT_NE(payload.find("tcomp_records_ingested_total 12"),
            std::string::npos);
  EXPECT_NE(payload.find("tcomp_stage_seconds_bucket{stage=\"cluster\""),
            std::string::npos);
  EXPECT_NE(payload.find("tcomp_snapshots_processed_total"),
            std::string::npos);
  // No payload line is a bare "." — the frame terminator stays unique.
  EXPECT_EQ(payload.find("\n.\n"), std::string::npos);
  EXPECT_TRUE(pipeline.Stop().ok());
}

/// Two independent pipelines fed the same stream expose the same
/// name/label sequence — values may differ (timings), names never do.
TEST(ProtocolSessionTest, QueryMetricsNamesAreDeterministicAcrossRuns) {
  std::vector<std::string> runs[2];
  for (int run = 0; run < 2; ++run) {
    ServicePipeline pipeline(SmallPipelineOptions());
    ASSERT_TRUE(pipeline.Start().ok());
    ServiceConnection conn(&pipeline);
    for (const std::string& line : GroupIngestLines()) {
      ASSERT_EQ(Exchange(&conn, line), "OK\n");
    }
    ASSERT_EQ(Exchange(&conn, "FLUSH"), "OK flushed\n");
    runs[run] =
        MetricNameSequence(Exchange(&conn, "QUERY metrics"));
    EXPECT_TRUE(pipeline.Stop().ok());
  }
  ASSERT_FALSE(runs[0].empty());
  EXPECT_EQ(runs[0], runs[1]);
  // Name-sorted at the family level: scrape output order is stable for
  // diffing. Histogram families expand to _bucket/_sum/_count lines, so
  // fold those suffixes back to the family name before comparing.
  auto family_of = [](const std::string& line) {
    std::string name = line.substr(0, line.find_first_of("{ "));
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      size_t len = std::string(suffix).size();
      if (name.size() > len &&
          name.compare(name.size() - len, len, suffix) == 0) {
        std::string base = name.substr(0, name.size() - len);
        // Only strip when the base really is a histogram family (all of
        // ours end in _seconds); plain counters like *_total keep theirs.
        if (base.size() >= 8 &&
            base.compare(base.size() - 8, 8, "_seconds") == 0) {
          return base;
        }
      }
    }
    return name;
  };
  std::string prev_family;
  for (const std::string& line : runs[0]) {
    if (line.rfind("# ", 0) == 0) continue;
    std::string family = family_of(line);
    EXPECT_LE(prev_family, family) << "families out of order at " << line;
    prev_family = family;
  }
}

TEST(ProtocolSessionTest, MalformedLinesErrorButNeverWedgeTheSession) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServiceConnection conn(&pipeline);

  const std::vector<std::string> malformed = {
      "",                             // empty frame
      "BOGUS 1 2 3",                  // unknown verb
      "INGEST 1 2.0",                 // truncated record
      "INGEST 1 nan 3.0 4.0",         // non-finite field
      "INGEST \xff\xfe 2.0 3.0 4.0",  // non-UTF8 bytes
      "QUERY everything",             // unknown query
  };
  for (const std::string& line : malformed) {
    std::string response = Exchange(&conn, line);
    EXPECT_EQ(response.rfind("ERR ", 0), 0u) << "line: " << line;
    EXPECT_EQ(response.find('\n'), response.size() - 1)
        << "error replies are single-line";
  }
  EXPECT_EQ(ParseErrors(&pipeline),
            static_cast<int64_t>(malformed.size()));
  EXPECT_FALSE(conn.shutdown_requested());

  // The session still serves correct requests afterwards.
  EXPECT_EQ(Exchange(&conn, "INGEST 1 0.0 5.0 5.0"), "OK\n");
  EXPECT_EQ(Exchange(&conn, "FLUSH"), "OK flushed\n");
  EXPECT_TRUE(pipeline.Stop().ok());
}

TEST(ProtocolSessionTest, OversizeAndShutdownHandling) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServiceConnection conn(&pipeline);

  std::string oversize =
      Exchange(&conn, std::string(kMaxRequestLineBytes + 1, 'x'));
  EXPECT_EQ(oversize.rfind("ERR ", 0), 0u);
  EXPECT_EQ(ParseErrors(&pipeline), 1);

  std::string response = Exchange(&conn, "SHUTDOWN");
  EXPECT_EQ(response, "OK shutting-down\n");
  EXPECT_TRUE(conn.shutdown_requested());
  EXPECT_TRUE(pipeline.Stop().ok());
}

// ---------------------------------------------------------------------
// BinaryFramer: length-prefixed request framing, fuzzing the boundary
// cases — truncated prefixes, over-cap lengths, magic confusion, and
// pipelined frames split at arbitrary byte positions.

std::vector<TrajectoryRecord> GroupRecords() {
  std::vector<TrajectoryRecord> records;
  for (int snap = 0; snap < 3; ++snap) {
    for (int obj = 0; obj < 4; ++obj) {
      TrajectoryRecord r;
      r.object = static_cast<ObjectId>(obj);
      r.timestamp = snap * 60.0;
      r.pos.x = 100.0 + snap * 25.0 + obj;
      r.pos.y = 200.0 + obj;
      records.push_back(r);
    }
  }
  return records;
}

TEST(BinaryFramerTest, RoundTripsRecordsBitExactAcrossByteWiseFeeds) {
  std::vector<TrajectoryRecord> records = GroupRecords();
  records[0].pos.x = 0.1 + 0.2;  // a value printf round-trips imperfectly
  std::string wire = EncodeIngestBatch(records.data(), records.size());

  BinaryFramer framer;
  BinaryFrame frame;
  std::string error;
  // Feed one byte at a time: every prefix must be kNeedMore (a truncated
  // length prefix or payload never yields a frame or an error).
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    framer.Feed(&wire[i], 1);
    ASSERT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kNeedMore)
        << "byte " << i;
    EXPECT_TRUE(framer.HasPartial());
  }
  framer.Feed(&wire[wire.size() - 1], 1);
  ASSERT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kFrame);
  EXPECT_FALSE(framer.HasPartial());
  EXPECT_EQ(frame.type,
            static_cast<uint8_t>(BinaryRequestType::kIngestBatch));

  std::vector<TrajectoryRecord> decoded;
  ASSERT_TRUE(DecodeIngestPayload(frame.payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded[i].object, records[i].object);
    // Bit-exact, not approximately-equal: records travel as raw IEEE-754.
    EXPECT_EQ(decoded[i].timestamp, records[i].timestamp);
    EXPECT_EQ(decoded[i].pos.x, records[i].pos.x);
    EXPECT_EQ(decoded[i].pos.y, records[i].pos.y);
  }
}

TEST(BinaryFramerTest, TruncatedHeaderIsJustPartialNeverAnError) {
  std::string wire = EncodeBinaryRequest(BinaryRequestType::kFlush, 0, "");
  BinaryFramer framer;
  framer.Feed(wire.data(), 3);  // magic + version + type, no length yet
  BinaryFrame frame;
  std::string error;
  EXPECT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kNeedMore);
  EXPECT_TRUE(framer.HasPartial());
  EXPECT_EQ(framer.buffered_bytes(), 3u);
}

TEST(BinaryFramerTest, OversizedDeclaredLengthPoisonsTheFramer) {
  // A syntactically perfect header whose declared payload length exceeds
  // the cap: the framer must fault immediately (never buffer toward it)
  // and stay faulted — there is no resync point in a binary stream.
  std::string header;
  header.push_back(static_cast<char>(kBinaryRequestMagic));
  header.push_back(static_cast<char>(kBinaryVersion));
  header.push_back(static_cast<char>(BinaryRequestType::kIngestBatch));
  header.push_back(0);
  uint32_t huge = static_cast<uint32_t>(kMaxBinaryPayloadBytes) + 1;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  BinaryFramer framer;
  framer.Feed(header.data(), header.size());
  BinaryFrame frame;
  std::string error;
  ASSERT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kBad);
  EXPECT_NE(error.find("exceeds"), std::string::npos);
  EXPECT_EQ(framer.buffered_bytes(), 0u);  // nothing buffered toward it

  // Sticky: even a perfectly valid frame afterwards stays rejected.
  std::string good = EncodeBinaryRequest(BinaryRequestType::kFlush, 0, "");
  framer.Feed(good.data(), good.size());
  EXPECT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kBad);
}

TEST(BinaryFramerTest, MagicAndVersionConfusionAreFatal) {
  BinaryFrame frame;
  std::string error;
  {
    // Text on a binary framer: 'F' is not the request magic.
    BinaryFramer framer;
    framer.Feed("FLUSH\n", 6);
    EXPECT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kBad);
  }
  {
    // The RESPONSE magic on the request side is equally wrong — a client
    // looped back to itself must not be mistaken for a request stream.
    std::string wire =
        EncodeBinaryResponse(BinaryResponseType::kOk, 0, 0, "");
    BinaryFramer framer;
    framer.Feed(wire.data(), wire.size());
    EXPECT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kBad);
  }
  {
    // Right magic, wrong version.
    std::string wire = EncodeBinaryRequest(BinaryRequestType::kFlush, 0, "");
    wire[1] = static_cast<char>(kBinaryVersion + 1);
    BinaryFramer framer;
    framer.Feed(wire.data(), wire.size());
    EXPECT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kBad);
    EXPECT_NE(error.find("version"), std::string::npos);
  }
}

TEST(BinaryFramerTest, PipelinedFramesSplitAtEveryBoundaryDecodeInOrder) {
  std::vector<TrajectoryRecord> records = GroupRecords();
  std::string wire = EncodeIngestBatch(records.data(), 2);
  wire += EncodeBinaryRequest(
      BinaryRequestType::kQuery,
      static_cast<uint8_t>(Request::QueryKind::kStats), "");
  wire += EncodeBinaryRequest(BinaryRequestType::kFlush, 0, "");

  // Split the 3-frame stream at every possible position; framing must
  // reassemble the identical sequence regardless of the cut.
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    BinaryFramer framer;
    framer.Feed(wire.data(), cut);
    framer.Feed(wire.data() + cut, wire.size() - cut);
    BinaryFrame frame;
    std::string error;
    ASSERT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kFrame);
    EXPECT_EQ(frame.type,
              static_cast<uint8_t>(BinaryRequestType::kIngestBatch));
    EXPECT_EQ(frame.payload.size(), 2 * kBinaryRecordBytes);
    ASSERT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kFrame);
    EXPECT_EQ(frame.type, static_cast<uint8_t>(BinaryRequestType::kQuery));
    ASSERT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kFrame);
    EXPECT_EQ(frame.type, static_cast<uint8_t>(BinaryRequestType::kFlush));
    EXPECT_EQ(framer.Next(&frame, &error), BinaryFramer::Result::kNeedMore);
    EXPECT_FALSE(framer.HasPartial());
  }
}

TEST(BinaryProtocolTest, IngestPayloadMustBeARecordMultiple) {
  std::vector<TrajectoryRecord> decoded;
  std::string ragged(kBinaryRecordBytes + 1, '\0');
  EXPECT_FALSE(DecodeIngestPayload(ragged, &decoded).ok());
  EXPECT_TRUE(DecodeIngestPayload("", &decoded).ok());  // empty batch is OK
  EXPECT_TRUE(decoded.empty());
}

TEST(BinaryResponseReaderTest, RoundTripsAndPoisonsLikeTheRequestSide) {
  std::string wire =
      EncodeBinaryResponse(BinaryResponseType::kOk, 0, 42, "payload");
  BinaryResponseReader reader;
  reader.Feed(wire.data(), wire.size() - 1);
  BinaryResponse response;
  std::string error;
  EXPECT_EQ(reader.Next(&response, &error),
            BinaryResponseReader::Result::kNeedMore);
  reader.Feed(wire.data() + wire.size() - 1, 1);
  ASSERT_EQ(reader.Next(&response, &error),
            BinaryResponseReader::Result::kFrame);
  EXPECT_EQ(response.type, static_cast<uint8_t>(BinaryResponseType::kOk));
  EXPECT_EQ(response.value, 42u);
  EXPECT_EQ(response.payload, "payload");

  // Request magic on the response side is confusion, not a frame.
  std::string confused = EncodeBinaryRequest(BinaryRequestType::kFlush, 0, "");
  BinaryResponseReader bad;
  bad.Feed(confused.data(), confused.size());
  EXPECT_EQ(bad.Next(&response, &error),
            BinaryResponseReader::Result::kBad);
}

// ---------------------------------------------------------------------
// ServiceConnection: the transport-free state machine, driven directly.

/// Drains every complete response frame out of a connection's output.
std::vector<BinaryResponse> DrainResponses(ServiceConnection* conn) {
  BinaryResponseReader reader;
  reader.Feed(conn->out().data(), conn->out().size());
  conn->out().clear();
  std::vector<BinaryResponse> responses;
  for (;;) {
    BinaryResponse response;
    std::string error;
    BinaryResponseReader::Result r = reader.Next(&response, &error);
    if (r != BinaryResponseReader::Result::kFrame) break;
    responses.push_back(response);
  }
  return responses;
}

TEST(ServiceConnectionTest, BinaryBatchQueryMatchesTextQueryByteForByte) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());

  // Binary connection: one batch, flush, query companions — pipelined in
  // a single Consume() call.
  std::vector<TrajectoryRecord> records = GroupRecords();
  std::string wire = EncodeIngestBatch(records.data(), records.size());
  wire += EncodeBinaryRequest(BinaryRequestType::kFlush, 0, "");
  wire += EncodeBinaryRequest(
      BinaryRequestType::kQuery,
      static_cast<uint8_t>(Request::QueryKind::kCompanions), "");
  ServiceConnection binary(&pipeline);
  binary.Consume(wire.data(), wire.size());
  EXPECT_EQ(binary.protocol(), WireProtocol::kBinary);
  EXPECT_FALSE(binary.fatal());

  std::vector<BinaryResponse> responses = DrainResponses(&binary);
  ASSERT_EQ(responses.size(), 3u);  // responses stay in request order
  EXPECT_EQ(responses[0].type,
            static_cast<uint8_t>(BinaryResponseType::kOk));
  EXPECT_EQ(responses[0].value, records.size());  // all admitted
  EXPECT_EQ(responses[1].type,
            static_cast<uint8_t>(BinaryResponseType::kOk));

  // Text connection against the same pipeline state.
  ServiceConnection text(&pipeline);
  std::string query = "QUERY companions\n";
  text.Consume(query.data(), query.size());
  EXPECT_EQ(text.protocol(), WireProtocol::kText);
  std::string text_out = text.out();
  // Strip the `OK <n>\n` header and trailing `.\n` to get the body.
  size_t header_end = text_out.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  std::string text_body = text_out.substr(
      header_end + 1, text_out.size() - header_end - 1 - 2);

  EXPECT_EQ(responses[2].payload, text_body);
  EXPECT_GT(responses[2].value, 0u);
  EXPECT_TRUE(pipeline.Stop().ok());
}

TEST(ServiceConnectionTest, BadFrameAnswersOneErrorFrameAndTurnsFatal) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServiceConnection conn(&pipeline);

  // Valid frame, then garbage where the next magic should be.
  std::string wire = EncodeBinaryRequest(BinaryRequestType::kFlush, 0, "");
  wire += "QUERY stats\n";  // text mid-stream = magic confusion
  conn.Consume(wire.data(), wire.size());

  std::vector<BinaryResponse> responses = DrainResponses(&conn);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].type,
            static_cast<uint8_t>(BinaryResponseType::kOk));
  EXPECT_EQ(responses[1].type,
            static_cast<uint8_t>(BinaryResponseType::kErr));
  EXPECT_TRUE(conn.fatal());
  EXPECT_EQ(ParseErrors(&pipeline), 1);

  // A fatal connection ignores further input rather than resyncing.
  std::string more = EncodeBinaryRequest(BinaryRequestType::kFlush, 0, "");
  conn.Consume(more.data(), more.size());
  EXPECT_TRUE(DrainResponses(&conn).empty());
  EXPECT_TRUE(pipeline.Stop().ok());
}

TEST(ServiceConnectionTest, MidFrameShutdownEmitsOneCleanShutdownFrame) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServiceConnection conn(&pipeline);

  // A fully-delivered batch followed by a truncated one.
  std::vector<TrajectoryRecord> records = GroupRecords();
  std::string wire = EncodeIngestBatch(records.data(), records.size());
  std::string partial = EncodeIngestBatch(records.data(), records.size());
  partial.resize(partial.size() / 2);
  wire += partial;
  conn.Consume(wire.data(), wire.size());
  EXPECT_TRUE(conn.has_partial_request());

  conn.PrepareShutdown();
  std::vector<BinaryResponse> responses = DrainResponses(&conn);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].type,
            static_cast<uint8_t>(BinaryResponseType::kOk));
  EXPECT_EQ(responses[0].value, records.size());
  // The partial frame gets a complete SHUTDOWN frame telling the client
  // to re-send it — never a truncated response, never a silent drop.
  EXPECT_EQ(responses[1].type,
            static_cast<uint8_t>(BinaryResponseType::kShutdown));
  EXPECT_NE(responses[1].payload.find("re-send"), std::string::npos);
  EXPECT_TRUE(pipeline.Stop().ok());
}

/// The refused-record count an INGEST ack carries in its payload.
uint64_t RefusedCount(const BinaryResponse& ack) {
  uint64_t refused = 0;
  for (size_t i = 0; i < 8 && i < ack.payload.size(); ++i) {
    refused |= static_cast<uint64_t>(
                   static_cast<unsigned char>(ack.payload[i]))
               << (8 * i);
  }
  return refused;
}

/// Re-offers parked records, as the event loop's retry tick does, until
/// none are left (or 10 s pass).
void RetryUntilAdmitted(ServiceConnection* conn) {
  for (int i = 0; i < 10000 && conn->has_parked(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    conn->RetryParked();
  }
}

/// A frame larger than the queue is admitted in one call up to capacity;
/// the rest is parked — counted once — and the frame is acked once, with
/// the whole frame's tally, after retries have admitted the tail.
TEST(ServiceConnectionTest, ParkedFrameIsAckedOnceWithTheWholeTally) {
  ServicePipelineOptions opts = SmallPipelineOptions();
  opts.queue_capacity = 8;
  ServicePipeline pipeline(opts);
  ASSERT_TRUE(pipeline.Start().ok());
  const MetricCounter* parked = pipeline.mutable_metrics()->GetCounter(
      "tcomp_conn_records_parked_total", "", "");
  ServiceConnection conn(&pipeline);

  std::vector<TrajectoryRecord> records;
  for (int i = 0; i < 300; ++i) {
    TrajectoryRecord r;
    r.object = static_cast<ObjectId>(i % 50);
    r.timestamp = 10.0 + 0.01 * i;  // one window
    r.pos.x = 100.0 + (i % 50);
    r.pos.y = 50.0;
    records.push_back(r);
  }
  std::string wire = EncodeIngestBatch(records.data(), records.size());
  conn.Consume(wire.data(), wire.size());
  // The queue was empty, so exactly its capacity went in; the ack waits.
  EXPECT_TRUE(conn.has_parked());
  EXPECT_TRUE(conn.out().empty());
  EXPECT_EQ(parked->Value(), 292u);
  RetryUntilAdmitted(&conn);
  ASSERT_FALSE(conn.has_parked());
  std::vector<BinaryResponse> responses = DrainResponses(&conn);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].type,
            static_cast<uint8_t>(BinaryResponseType::kOk));
  EXPECT_EQ(responses[0].value, 300u);
  EXPECT_EQ(RefusedCount(responses[0]), 0u);
  EXPECT_EQ(parked->Value(), 292u);  // retries do not count again

  // The same frame with three out-of-range records in its parked tail
  // (a record refused in front of the tail would split the first offer
  // into two queue pushes, and the worker may drain in between).
  ASSERT_TRUE(pipeline.Flush().ok());  // empty queue: 8 fit again
  for (int i : {100, 200, 299}) records[i].pos.x = 1e16;
  wire = EncodeIngestBatch(records.data(), records.size());
  conn.Consume(wire.data(), wire.size());
  EXPECT_EQ(parked->Value(), 2 * 292u);
  RetryUntilAdmitted(&conn);
  responses = DrainResponses(&conn);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].value, 297u);
  EXPECT_EQ(RefusedCount(responses[0]), 3u);

  ASSERT_TRUE(pipeline.Flush().ok());
  ServiceStats stats = pipeline.Stats();
  EXPECT_EQ(stats.records_ingested, 597);
  EXPECT_EQ(stats.records_invalid, 3);
  EXPECT_LE(stats.queue.depth_peak, 8);
  EXPECT_NE(pipeline.MetricsText().find(
                "tcomp_conn_records_parked_total 584\n"),
            std::string::npos);
  EXPECT_TRUE(pipeline.Stop().ok());
}

// ---------------------------------------------------------------------
// CompanionServer: the same protocol over a real loopback socket, with
// multi-client sessions, oversized wire frames, and mid-line disconnects.

class LineClient {
 public:
  void Connect(uint16_t port) {
    ASSERT_TRUE(StreamSocket::Connect(port, 2000, &sock_).ok());
  }
  void Send(const std::string& data) {
    ASSERT_TRUE(sock_.WriteAll(data, 2000).ok());
  }
  std::string ReadLine() {
    std::string line;
    for (;;) {
      LineFramer::Result r = framer_.Next(&line);
      if (r == LineFramer::Result::kLine) return line;
      EXPECT_NE(r, LineFramer::Result::kOversize);
      char buf[4096];
      size_t n = 0;
      Status s = sock_.Read(buf, sizeof(buf), 5000, &n);
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (!s.ok() || n == 0) return line;
      framer_.Feed(buf, n);
    }
  }
  void Close() { sock_.Close(); }

 private:
  StreamSocket sock_;
  LineFramer framer_{1 << 20};
};

TEST(CompanionServerTest, ServesMultipleClientsAndCountsBadFrames) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServerOptions sopts;
  sopts.port = 0;  // ephemeral
  CompanionServer server(&pipeline, sopts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  // Client 1 ingests a well-formed stream plus an oversized line.
  LineClient feeder;
  feeder.Connect(server.port());
  for (const std::string& line : GroupIngestLines()) {
    feeder.Send(line + "\n");
    EXPECT_EQ(feeder.ReadLine(), "OK");
  }
  std::string big = "INGEST " + std::string(2 * kMaxRequestLineBytes, '7');
  feeder.Send(big + "\n");
  EXPECT_EQ(feeder.ReadLine().rfind("ERR ", 0), 0u);
  feeder.Send("FLUSH\n");
  EXPECT_EQ(feeder.ReadLine(), "OK flushed");

  // Client 2 queries concurrently with client 1's open session.
  LineClient querier;
  querier.Connect(server.port());
  querier.Send("QUERY stats\n");
  std::string header = querier.ReadLine();
  EXPECT_EQ(header.rfind("OK ", 0), 0u);
  bool saw_ingested = false;
  for (;;) {
    std::string line = querier.ReadLine();
    if (line == "." || line.empty()) break;
    if (line == "records_ingested=12") saw_ingested = true;
  }
  EXPECT_TRUE(saw_ingested);

  // Client 3 disconnects mid-line; the server must account for it and
  // keep serving everyone else.
  LineClient rude;
  rude.Connect(server.port());
  rude.Send("INGEST 3 180.0 1");  // no newline
  rude.Close();
  // Wait for the rude session to be reaped before shutting down, so the
  // mid-line accounting below is not racing the stop flag.
  for (int i = 0; i < 100 && server.Counters().sessions_closed < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  querier.Send("SHUTDOWN\n");
  EXPECT_EQ(querier.ReadLine(), "OK shutting-down");
  server.Wait();
  EXPECT_TRUE(pipeline.Stop().ok());

  ServerCounters counters = server.Counters();
  EXPECT_EQ(counters.sessions_opened, 3);
  EXPECT_EQ(counters.sessions_closed, 3);
  EXPECT_EQ(counters.parse_errors, 1);  // the oversized frame
  EXPECT_EQ(counters.midline_disconnects, 1);
}

/// A long-running daemon must not accumulate dead session threads: once
/// a client disconnects, the accept loop joins and discards its handle
/// while the server keeps serving.
TEST(CompanionServerTest, FinishedSessionsAreReapedWhileRunning) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServerOptions sopts;
  sopts.port = 0;
  CompanionServer server(&pipeline, sopts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 5;
  for (int i = 0; i < kClients; ++i) {
    LineClient client;
    client.Connect(server.port());
    client.Send("FLUSH\n");
    EXPECT_EQ(client.ReadLine(), "OK flushed");
    client.Close();
  }
  // The accept loop reaps on every poll iteration; all five handles must
  // disappear without any shutdown being requested.
  for (int i = 0; i < 250 && server.SessionHandles() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.SessionHandles(), 0u);
  ServerCounters counters = server.Counters();
  EXPECT_EQ(counters.sessions_opened, kClients);
  EXPECT_EQ(counters.sessions_closed, kClients);

  server.RequestStop();
  server.Wait();
  EXPECT_TRUE(pipeline.Stop().ok());
}

TEST(CompanionServerTest, StopsViaRequestStopWithoutClients) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServerOptions sopts;
  sopts.port = 0;
  CompanionServer server(&pipeline, sopts);
  ASSERT_TRUE(server.Start().ok());
  server.RequestStop();
  server.Wait();
  EXPECT_TRUE(pipeline.Stop().ok());
  EXPECT_EQ(server.Counters().sessions_opened, 0);
}

}  // namespace
}  // namespace tcomp
