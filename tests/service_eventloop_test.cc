// Regression tests for the epoll event-loop front-end and the socket
// layer underneath it: nonblocking short-write handling, fd hygiene on
// rejected accepts, graceful drain toward mid-frame binary clients,
// kill+resume identity across a mid-batch shutdown, per-client write
// backpressure, prompt re-offer of records parked at a full queue, and
// connection admission control.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "data/group_model.h"
#include "data/trajectory_io.h"
#include "service/admission.h"
#include "service/binary_protocol.h"
#include "service/pipeline.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"

namespace tcomp {
namespace {

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

/// Open descriptors of this process, via /proc/self/fd.
int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  // Subtract ".", "..", and the directory stream's own fd.
  return count - 3;
}

/// Blocking binary-protocol client against a live server.
class FrameClient {
 public:
  void Connect(uint16_t port) {
    ASSERT_TRUE(StreamSocket::Connect(port, 2000, &sock_).ok());
  }
  void Send(const std::string& data) {
    ASSERT_TRUE(sock_.WriteAll(data, 5000).ok());
  }
  /// Reads one response frame (fails the test on timeout/corruption).
  BinaryResponse ReadFrame() {
    BinaryResponse response;
    for (;;) {
      std::string error;
      BinaryResponseReader::Result r = reader_.Next(&response, &error);
      if (r == BinaryResponseReader::Result::kFrame) return response;
      EXPECT_NE(r, BinaryResponseReader::Result::kBad) << error;
      if (r == BinaryResponseReader::Result::kBad) return response;
      char buf[4096];
      size_t n = 0;
      Status s = sock_.Read(buf, sizeof(buf), 5000, &n);
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (!s.ok() || n == 0) return response;
      reader_.Feed(buf, n);
    }
  }
  /// Reads until EOF; returns every complete frame seen on the way.
  std::vector<BinaryResponse> ReadFramesUntilEof() {
    std::vector<BinaryResponse> frames;
    for (;;) {
      char buf[4096];
      size_t n = 0;
      Status s = sock_.Read(buf, sizeof(buf), 5000, &n);
      if (!s.ok() || n == 0) break;
      reader_.Feed(buf, n);
      for (;;) {
        BinaryResponse response;
        std::string error;
        if (reader_.Next(&response, &error) !=
            BinaryResponseReader::Result::kFrame) {
          break;
        }
        frames.push_back(response);
      }
    }
    return frames;
  }
  void Close() { sock_.Close(); }
  StreamSocket* socket() { return &sock_; }

 private:
  StreamSocket sock_;
  BinaryResponseReader reader_;
};

/// Blocking text client (mirrors the one in service_protocol_test).
class LineClient {
 public:
  void Connect(uint16_t port) {
    ASSERT_TRUE(StreamSocket::Connect(port, 2000, &sock_).ok());
  }
  Status TryConnect(uint16_t port) {
    return StreamSocket::Connect(port, 2000, &sock_);
  }
  void Send(const std::string& data) {
    ASSERT_TRUE(sock_.WriteAll(data, 5000).ok());
  }
  Status SendStatus(const std::string& data) {
    return sock_.WriteAll(data, 5000);
  }
  /// Reads one line; empty on EOF.
  std::string ReadLine() {
    std::string line;
    for (;;) {
      LineFramer::Result r = framer_.Next(&line);
      if (r == LineFramer::Result::kLine) return line;
      char buf[4096];
      size_t n = 0;
      Status s = sock_.Read(buf, sizeof(buf), 5000, &n);
      if (!s.ok() || n == 0) return std::string();
      framer_.Feed(buf, n);
    }
  }
  /// True when the peer closes without sending another byte.
  bool ReadEof() {
    char buf[64];
    size_t n = 0;
    Status s = sock_.Read(buf, sizeof(buf), 5000, &n);
    return s.ok() && n == 0;
  }
  /// True when the connection is down — orderly EOF or a reset. A
  /// server that closes while our unread request bytes sit in its
  /// receive buffer produces RST, not FIN, so both count as closed.
  bool PeerClosed() {
    char buf[64];
    size_t n = 0;
    Status s = sock_.Read(buf, sizeof(buf), 5000, &n);
    return !s.ok() || n == 0;
  }
  void Close() { sock_.Close(); }

 private:
  StreamSocket sock_;
  LineFramer framer_{1 << 20};
};

// ---------------------------------------------------------------------
// Bugfix regression: WriteAll on a nonblocking descriptor used to treat
// EAGAIN as a hard IoError and bail mid-payload. With a slow reader the
// send buffer fills within a few hundred KiB, so any large write off the
// event loop (e.g. the shutdown drain) hit it immediately.

TEST(SocketRegressionTest, WriteAllOnNonblockingFdSurvivesSlowReader) {
  ListenSocket listener;
  ASSERT_TRUE(ListenSocket::Listen(0, &listener).ok());
  ASSERT_TRUE(listener.SetNonBlocking(true).ok());

  StreamSocket client;
  ASSERT_TRUE(StreamSocket::Connect(listener.port(), 2000, &client).ok());

  StreamSocket accepted;
  bool would_block = true;
  for (int i = 0; i < 200 && would_block; ++i) {
    ASSERT_TRUE(listener.AcceptNonBlocking(&accepted, &would_block).ok());
    if (would_block) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_TRUE(accepted.valid());  // comes back O_NONBLOCK already

  // 2 MiB of patterned payload: far past any socket buffer, so the
  // writer must hit EAGAIN many times while the reader dawdles.
  std::string payload(2 * 1024 * 1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i % 23));
  }

  Status write_status;
  std::thread writer([&] {
    write_status = accepted.WriteAll(payload, /*timeout_ms=*/20000);
  });

  std::string received;
  received.reserve(payload.size());
  char buf[16384];
  while (received.size() < payload.size()) {
    size_t n = 0;
    Status s = client.Read(buf, sizeof(buf), 5000, &n);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_GT(n, 0u);
    received.append(buf, n);
    // The throttle that provokes EAGAIN on the writer side.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writer.join();

  EXPECT_TRUE(write_status.ok()) << write_status.ToString();
  // Byte-identical, in order — EAGAIN handling must resume at the exact
  // unwritten suffix, never skip or repeat a chunk.
  EXPECT_EQ(received, payload);
}

// ---------------------------------------------------------------------
// Bugfix regression: every path that disposes of an accepted connection
// (connection cap, admission breaker) must close the accepted fd. A leak
// of one fd per rejected connection kills a long-running daemon slowly.

TEST(ServerRegressionTest, RejectedConnectionsDoNotLeakFds) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServerOptions sopts;
  sopts.max_connections = 1;
  CompanionServer server(&pipeline, sopts);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single slot and prove it is registered.
  LineClient occupant;
  occupant.Connect(server.port());
  occupant.Send("FLUSH\n");
  EXPECT_EQ(occupant.ReadLine(), "OK flushed");

  const int baseline = CountOpenFds();
  ASSERT_GT(baseline, 0);

  constexpr int kChurn = 25;
  for (int i = 0; i < kChurn; ++i) {
    LineClient rejected;
    rejected.Connect(server.port());
    // The server sends a best-effort error line and closes immediately.
    std::string line = rejected.ReadLine();
    EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
    EXPECT_TRUE(rejected.ReadEof());
    rejected.Close();
  }

  // Give the loop a beat to finish its close bookkeeping, then the fd
  // table must be exactly back at the baseline.
  for (int i = 0; i < 100 && CountOpenFds() > baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(CountOpenFds(), baseline);
  EXPECT_EQ(server.Counters().conns_rejected_limit, kChurn);

  server.RequestStop();
  server.Wait();
  EXPECT_TRUE(pipeline.Stop().ok());
}

TEST(ServerRegressionTest, EmfileAcceptBacksOffAndRecoversWithoutLeak) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServerOptions sopts;
  CompanionServer server(&pipeline, sopts);
  ASSERT_TRUE(server.Start().ok());

  // Prove the loop is serving before squeezing the fd table.
  LineClient warmup;
  warmup.Connect(server.port());
  warmup.Send("FLUSH\n");
  EXPECT_EQ(warmup.ReadLine(), "OK flushed");
  warmup.Close();
  for (int i = 0; i < 100 && server.SessionHandles() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const int baseline = CountOpenFds();
  ASSERT_GT(baseline, 0);

  // Lower RLIMIT_NOFILE so exactly one more descriptor fits: the client
  // side of the next connection takes it, and the server's accept4 gets
  // EMFILE — the backoff path, which must close nothing it doesn't own
  // and must re-arm once the pressure lifts.
  struct rlimit old_limit;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  struct rlimit tight = old_limit;
  tight.rlim_cur = static_cast<rlim_t>(baseline + 1);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);

  {
    LineClient starved;
    Status cs = starved.TryConnect(server.port());
    // The TCP handshake completes against the backlog even though the
    // server cannot accept; give the loop time to hit EMFILE and back
    // off. (If even our client socket failed, the limit is doing its
    // job; the server-side assertions below still hold.)
    for (int i = 0; i < 100 && server.Counters().accept_backoffs == 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(server.Counters().accept_backoffs, 1);
    if (cs.ok()) starved.Close();
  }

  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &old_limit), 0);

  // With fds available again the listener must re-arm and serve. The
  // backoff ceiling is 1 s, so a couple of seconds covers the re-arm.
  bool served = false;
  for (int attempt = 0; attempt < 40 && !served; ++attempt) {
    LineClient retry;
    if (!retry.TryConnect(server.port()).ok()) continue;
    if (!retry.SendStatus("FLUSH\n").ok()) continue;
    served = (retry.ReadLine() == "OK flushed");
    retry.Close();
    if (!served) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  EXPECT_TRUE(served);

  // No fd may have leaked across the starvation episode.
  for (int i = 0; i < 100 && CountOpenFds() > baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(CountOpenFds(), baseline);

  server.RequestStop();
  server.Wait();
  EXPECT_TRUE(pipeline.Stop().ok());
}

// ---------------------------------------------------------------------
// Bugfix regression: a binary client caught mid-frame by SHUTDOWN /
// SIGTERM must receive one complete SHUTDOWN frame — not a truncated
// response, not a silent close — and nothing of the partial frame may be
// admitted.

TEST(ServerRegressionTest, DrainSendsCleanShutdownFrameToMidFrameClient) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServerOptions sopts;
  CompanionServer server(&pipeline, sopts);
  ASSERT_TRUE(server.Start().ok());

  std::vector<TrajectoryRecord> records;
  for (int i = 0; i < 8; ++i) {
    TrajectoryRecord r;
    r.object = static_cast<ObjectId>(i);
    r.timestamp = 10.0;
    r.pos.x = 100.0 + i;
    r.pos.y = 50.0;
    records.push_back(r);
  }

  FrameClient client;
  client.Connect(server.port());
  // One complete batch, acknowledged...
  client.Send(EncodeIngestBatch(records.data(), 4));
  BinaryResponse ack = client.ReadFrame();
  EXPECT_EQ(ack.type, static_cast<uint8_t>(BinaryResponseType::kOk));
  EXPECT_EQ(ack.value, 4u);

  // ...then a deliberately truncated one: full header, half the records.
  std::string partial = EncodeIngestBatch(records.data() + 4, 4);
  partial.resize(kBinaryRequestHeaderBytes + 2 * kBinaryRecordBytes);
  client.Send(partial);
  // Give the event loop time to read the partial bytes. Nothing marks
  // them as read: the frame counters count complete frames only.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server.RequestStop();
  server.Wait();

  std::vector<BinaryResponse> frames = client.ReadFramesUntilEof();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type,
            static_cast<uint8_t>(BinaryResponseType::kShutdown));
  EXPECT_NE(frames[0].payload.find("re-send"), std::string::npos);

  EXPECT_TRUE(pipeline.Stop().ok());
  // Only the acknowledged batch was admitted; the partial frame wasn't.
  EXPECT_EQ(pipeline.Stats().records_ingested, 4);
}

// ---------------------------------------------------------------------
// Bugfix regression: records parked at a full queue were re-offered only
// on the 50 ms housekeeping tick, because the parked connection's reads
// are paused and nothing else woke the loop — one tick per record at
// queue capacity 1 in the worst case.

TEST(ServerRegressionTest, ParkedFramesAreAckedWithoutWaitingForTicks) {
  ServicePipelineOptions opts = SmallPipelineOptions();
  opts.queue_capacity = 1;
  ServicePipeline pipeline(opts);
  ASSERT_TRUE(pipeline.Start().ok());
  CompanionServer server(&pipeline, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Two frames of 128 records: one tick per parked record would take
  // ~12 s, and even the several records a tick can admit when the worker
  // happens to be awake leave that well above the bound.
  constexpr size_t kPerFrame = 128;
  std::vector<TrajectoryRecord> records;
  for (size_t i = 0; i < 2 * kPerFrame; ++i) {
    TrajectoryRecord r;
    r.object = static_cast<ObjectId>(i % kPerFrame);
    r.timestamp = 10.0 + 0.1 * static_cast<double>(i);  // one window
    r.pos.x = 100.0 + static_cast<double>(i % kPerFrame);
    r.pos.y = 50.0;
    records.push_back(r);
  }

  FrameClient client;
  client.Connect(server.port());
  const auto start = std::chrono::steady_clock::now();
  client.Send(EncodeIngestBatch(records.data(), kPerFrame));
  client.Send(EncodeIngestBatch(records.data() + kPerFrame, kPerFrame));
  for (int frame = 0; frame < 2; ++frame) {
    BinaryResponse ack = client.ReadFrame();
    EXPECT_EQ(ack.type, static_cast<uint8_t>(BinaryResponseType::kOk));
    EXPECT_EQ(ack.value, kPerFrame);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 1.0) << "parked records waited for housekeeping ticks";

  client.Close();
  server.RequestStop();
  server.Wait();
  EXPECT_TRUE(pipeline.Stop().ok());
  EXPECT_EQ(pipeline.Stats().records_ingested,
            static_cast<int64_t>(2 * kPerFrame));
}

// ---------------------------------------------------------------------
// Connection counters are live: a scrape taken while a binary client is
// still connected sees its frames and records, and a parse error shows up
// before its connection closes.

TEST(ServerMetricsTest, ConnectionCountersAreLiveWhileConnectionsAreOpen) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  CompanionServer server(&pipeline, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kPerFrame = 100;
  constexpr size_t kFrames = 3;
  std::vector<TrajectoryRecord> records;
  for (size_t i = 0; i < kFrames * kPerFrame; ++i) {
    TrajectoryRecord r;
    r.object = static_cast<ObjectId>(i % kPerFrame);
    r.timestamp = 10.0 + 0.1 * static_cast<double>(i);  // one window
    r.pos.x = 100.0 + static_cast<double>(i % kPerFrame);
    r.pos.y = 50.0;
    records.push_back(r);
  }
  FrameClient feeder;
  feeder.Connect(server.port());
  for (size_t f = 0; f < kFrames; ++f) {
    feeder.Send(EncodeIngestBatch(&records[f * kPerFrame], kPerFrame));
    BinaryResponse ack = feeder.ReadFrame();
    ASSERT_EQ(ack.value, kPerFrame);
  }

  LineClient scraper;
  scraper.Connect(server.port());
  scraper.Send("BOGUS\n");
  EXPECT_EQ(scraper.ReadLine().rfind("ERR", 0), 0u);
  scraper.Send("QUERY metrics\n");
  ASSERT_EQ(scraper.ReadLine().rfind("OK ", 0), 0u);
  std::string text;
  for (std::string line = scraper.ReadLine(); line != "." && !line.empty();
       line = scraper.ReadLine()) {
    text += line + "\n";
  }
  EXPECT_NE(text.find("\ntcomp_binary_frames_total 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\ntcomp_binary_records_total 300\n"),
            std::string::npos);
  EXPECT_NE(text.find("\ntcomp_conn_parse_errors_total 1\n"),
            std::string::npos);
  // The server's own tally reads the same live series.
  EXPECT_EQ(server.Counters().binary_frames, 3);
  EXPECT_EQ(server.Counters().binary_records, 300);
  EXPECT_EQ(server.Counters().parse_errors, 1);

  feeder.Close();
  scraper.Close();
  server.RequestStop();
  server.Wait();
  EXPECT_TRUE(pipeline.Stop().ok());
  // Closing the connections neither drops nor counts them twice.
  EXPECT_EQ(server.Counters().binary_records, 300);
  EXPECT_EQ(server.Counters().parse_errors, 1);
}

// ---------------------------------------------------------------------
// Kill + resume across a mid-batch shutdown must be byte-identical to an
// uninterrupted run when the client honors the re-send contract.

std::vector<TrajectoryRecord> ScenarioRecords() {
  GroupModelOptions opts;
  opts.num_objects = 40;
  opts.num_snapshots = 8;
  opts.area_size = 900.0;
  opts.group_speed = 1.0;
  opts.free_speed = 1.5;
  opts.member_jitter = 0.8;
  opts.seed = 17;
  return StreamToRecords(GenerateGroupStream(opts).stream,
                         /*seconds_per_snapshot=*/60.0);
}

ServicePipelineOptions ScenarioPipelineOptions() {
  ServicePipelineOptions opts;
  opts.algorithm = Algorithm::kBuddy;
  opts.params.cluster.epsilon = 30.0;
  opts.params.cluster.mu = 2;
  opts.params.size_threshold = 3;
  opts.params.duration_threshold = 2;
  opts.window.window_length = 60.0;
  return opts;
}

/// Streams record batches through a binary connection and returns the
/// QUERY companions payload after a FLUSH.
std::string IngestAndQuery(uint16_t port,
                           const std::vector<TrajectoryRecord>& records,
                           size_t batch) {
  FrameClient client;
  client.Connect(port);
  for (size_t i = 0; i < records.size(); i += batch) {
    size_t n = std::min(batch, records.size() - i);
    client.Send(EncodeIngestBatch(&records[i], n));
    BinaryResponse ack = client.ReadFrame();
    EXPECT_EQ(ack.type, static_cast<uint8_t>(BinaryResponseType::kOk));
    EXPECT_EQ(ack.value, n);
  }
  client.Send(EncodeBinaryRequest(BinaryRequestType::kFlush, 0, ""));
  EXPECT_EQ(client.ReadFrame().type,
            static_cast<uint8_t>(BinaryResponseType::kOk));
  client.Send(EncodeBinaryRequest(
      BinaryRequestType::kQuery,
      static_cast<uint8_t>(Request::QueryKind::kCompanions), ""));
  BinaryResponse result = client.ReadFrame();
  EXPECT_EQ(result.type, static_cast<uint8_t>(BinaryResponseType::kOk));
  return result.payload;
}

TEST(ServerRegressionTest, KillResumeMidBinaryBatchIsByteIdentical) {
  std::vector<TrajectoryRecord> records = ScenarioRecords();
  ASSERT_GT(records.size(), 100u);
  // Split at a window boundary (t = 240 = snapshot 4 of 8): graceful
  // shutdown closes the open window, so identity requires the admitted
  // prefix to end exactly where a window does — which is precisely what
  // the frame-atomic admission contract guarantees when the client
  // aligns its batches to its own records.
  size_t split = 0;
  while (split < records.size() && records[split].timestamp < 240.0) {
    ++split;
  }
  ASSERT_GT(split, 0u);
  ASSERT_LT(split, records.size());
  std::vector<TrajectoryRecord> first(records.begin(),
                                      records.begin() + split);
  std::vector<TrajectoryRecord> rest(records.begin() + split,
                                     records.end());

  // Reference: one uninterrupted serve run.
  std::string reference;
  {
    ServicePipeline pipeline(ScenarioPipelineOptions());
    ASSERT_TRUE(pipeline.Start().ok());
    CompanionServer server(&pipeline, ServerOptions());
    ASSERT_TRUE(server.Start().ok());
    reference = IngestAndQuery(server.port(), records, 64);
    server.RequestStop();
    server.Wait();
    ASSERT_TRUE(pipeline.Stop().ok());
  }
  ASSERT_FALSE(reference.empty());

  // Killed run: stream the first half, then get caught mid-frame on the
  // second, honor the SHUTDOWN frame's re-send contract after resume.
  std::string ckpt = ::testing::TempDir() + "/eventloop_resume.ckpt";
  std::filesystem::remove(ckpt);
  ServicePipelineOptions popts = ScenarioPipelineOptions();
  popts.checkpoint_path = ckpt;
  {
    ServicePipeline pipeline(popts);
    ASSERT_TRUE(pipeline.Start().ok());
    CompanionServer server(&pipeline, ServerOptions());
    ASSERT_TRUE(server.Start().ok());

    FrameClient client;
    client.Connect(server.port());
    for (size_t i = 0; i < first.size(); i += 64) {
      size_t n = std::min<size_t>(64, first.size() - i);
      client.Send(EncodeIngestBatch(&first[i], n));
      BinaryResponse ack = client.ReadFrame();
      ASSERT_EQ(ack.value, n);
    }
    // The kill lands mid-INGEST-batch: half a frame of the second part
    // is on the wire when the server stops.
    std::string partial =
        EncodeIngestBatch(rest.data(), std::min<size_t>(64, rest.size()));
    partial.resize(partial.size() / 2);
    client.Send(partial);
    // Every complete batch is acknowledged above; give the event loop
    // time to read the half frame too.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server.RequestStop();
    server.Wait();
    std::vector<BinaryResponse> frames = client.ReadFramesUntilEof();
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type,
              static_cast<uint8_t>(BinaryResponseType::kShutdown));
    ASSERT_TRUE(pipeline.Stop().ok());  // writes the final checkpoint
  }

  // Resumed run: a fresh pipeline restores the checkpoint; the client
  // re-sends the entire un-acknowledged remainder.
  std::string resumed;
  {
    ServicePipeline pipeline(popts);
    ASSERT_TRUE(pipeline.Start().ok());
    EXPECT_TRUE(pipeline.Stats().resumed);
    CompanionServer server(&pipeline, ServerOptions());
    ASSERT_TRUE(server.Start().ok());
    resumed = IngestAndQuery(server.port(), rest, 64);
    server.RequestStop();
    server.Wait();
    ASSERT_TRUE(pipeline.Stop().ok());
  }

  EXPECT_EQ(resumed, reference);
  std::filesystem::remove(ckpt);
}

// ---------------------------------------------------------------------
// Per-client write backpressure: a client that stops reading while
// requesting large responses gets its reads paused (never the loop), and
// everything is delivered once it drains.

TEST(ServerBackpressureTest, SlowConsumerIsPausedThenFullyServed) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServerOptions sopts;
  sopts.write_backpressure_bytes = 8 * 1024;  // tiny window
  sopts.write_timeout_ms = 30000;             // must not trip here
  CompanionServer server(&pipeline, sopts);
  ASSERT_TRUE(server.Start().ok());

  // Pipeline many metrics queries without reading a byte: each response
  // is several KiB of exposition text, so the pending output crosses the
  // window almost immediately.
  constexpr int kQueries = 64;
  LineClient client;
  client.Connect(server.port());
  std::string burst;
  for (int i = 0; i < kQueries; ++i) burst += "QUERY metrics\n";
  client.Send(burst);

  for (int i = 0; i < 200 && server.Counters().write_stalls == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.Counters().write_stalls, 1);

  // A second client must be completely unaffected by the stalled one.
  LineClient bystander;
  bystander.Connect(server.port());
  bystander.Send("FLUSH\n");
  EXPECT_EQ(bystander.ReadLine(), "OK flushed");
  bystander.Close();

  // Now drain: every one of the pipelined responses must arrive, well
  // formed and in order.
  int ok_headers = 0;
  int dots = 0;
  while (dots < kQueries) {
    std::string line = client.ReadLine();
    ASSERT_FALSE(line.empty() && dots < kQueries) << "premature EOF";
    if (line.rfind("OK ", 0) == 0) ++ok_headers;
    if (line == ".") ++dots;
  }
  EXPECT_EQ(ok_headers, kQueries);

  client.Close();
  server.RequestStop();
  server.Wait();
  EXPECT_TRUE(pipeline.Stop().ok());
}

// ---------------------------------------------------------------------
// AdmissionController: pure decision logic.

TEST(AdmissionControllerTest, DisabledControllerNeverTrips) {
  AdmissionController controller{AdmissionOptions{}};
  EXPECT_FALSE(controller.enabled());
  AdmissionSample sample;
  sample.offered = 1000;
  sample.refused = 1000;
  sample.p99_close_ms = 1e9;
  controller.Update(sample);
  controller.Update(sample);
  EXPECT_FALSE(controller.overloaded());
}

TEST(AdmissionControllerTest, ShedRateWindowTripsAndRecovers) {
  AdmissionOptions options;
  options.max_shed_rate = 0.2;
  options.min_window_records = 64;
  AdmissionController controller(options);
  ASSERT_TRUE(controller.enabled());

  AdmissionSample sample;
  controller.Update(sample);  // anchors the baseline
  EXPECT_FALSE(controller.overloaded());

  // 100 offered, 50 refused since the baseline: 50% shed, over the 20%
  // threshold once the 64-record window closes.
  sample.offered = 100;
  sample.refused = 50;
  controller.Update(sample);
  EXPECT_TRUE(controller.overloaded());
  EXPECT_DOUBLE_EQ(controller.shed_rate(), 0.5);

  // Below the window minimum nothing re-evaluates: still overloaded.
  sample.offered = 130;
  sample.refused = 50;
  controller.Update(sample);
  EXPECT_TRUE(controller.overloaded());

  // A clean full window closes the breaker.
  sample.offered = 300;
  sample.refused = 50;
  controller.Update(sample);
  EXPECT_FALSE(controller.overloaded());
  EXPECT_DOUBLE_EQ(controller.shed_rate(), 0.0);
}

TEST(AdmissionControllerTest, LatencyTriggerAndCounterResetHandling) {
  AdmissionOptions options;
  options.max_p99_ms = 10.0;
  AdmissionController controller(options);

  AdmissionSample sample;
  sample.p99_close_ms = 25.0;
  controller.Update(sample);
  EXPECT_TRUE(controller.overloaded());
  sample.p99_close_ms = 5.0;
  controller.Update(sample);
  EXPECT_FALSE(controller.overloaded());

  // A counter reset (service restart) must re-anchor, not divide by a
  // negative delta.
  options.max_shed_rate = 0.5;
  AdmissionController shed_controller(options);
  AdmissionSample big;
  big.offered = 10000;
  big.refused = 9000;
  shed_controller.Update(big);
  AdmissionSample reset;  // counters back at zero
  shed_controller.Update(reset);
  EXPECT_FALSE(shed_controller.overloaded());
  EXPECT_DOUBLE_EQ(shed_controller.shed_rate(), 0.0);
}

TEST(AdmissionControllerTest, PolicyParsingRoundTrips) {
  AdmissionPolicy policy;
  EXPECT_TRUE(ParseAdmissionPolicy("reject", &policy).ok());
  EXPECT_EQ(policy, AdmissionPolicy::kReject);
  EXPECT_TRUE(ParseAdmissionPolicy("shed", &policy).ok());
  EXPECT_EQ(policy, AdmissionPolicy::kShed);
  EXPECT_FALSE(ParseAdmissionPolicy("drop", &policy).ok());
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicy::kReject), "reject");
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicy::kShed), "shed");
}

// ---------------------------------------------------------------------
// Admission breaker end to end: once the pipeline's p99 snapshot-close
// gauge crosses the configured ceiling, new connections are turned away
// (kReject: error line; kShed: silent close) while existing ones live.

TEST(ServerAdmissionTest, OverloadedServerRejectsOnlyNewConnections) {
  ServicePipeline pipeline(SmallPipelineOptions());
  ASSERT_TRUE(pipeline.Start().ok());
  ServerOptions sopts;
  // Any snapshot close at all trips this ceiling.
  sopts.admission.max_p99_ms = 1e-9;
  sopts.admission.policy = AdmissionPolicy::kReject;
  CompanionServer server(&pipeline, sopts);
  ASSERT_TRUE(server.Start().ok());

  LineClient established;
  established.Connect(server.port());
  // Close a snapshot so the latency histogram has a sample.
  established.Send("INGEST 1 10 100 100\n");
  EXPECT_EQ(established.ReadLine(), "OK");
  established.Send("FLUSH\n");
  EXPECT_EQ(established.ReadLine(), "OK flushed");

  // The admission sampler runs on the housekeeping tick; wait for the
  // breaker to observe the new p99.
  bool rejected = false;
  std::string reject_line;
  for (int attempt = 0; attempt < 100 && !rejected; ++attempt) {
    LineClient newcomer;
    newcomer.Connect(server.port());
    newcomer.Send("FLUSH\n");
    std::string line = newcomer.ReadLine();
    if (line.rfind("ERR ", 0) == 0) {
      rejected = true;
      reject_line = line;
      // The server closes right after writing the ERR line, while our
      // FLUSH bytes may still sit unread in its receive buffer — that
      // close arrives as RST, not FIN, so accept either form of EOF.
      EXPECT_TRUE(newcomer.PeerClosed());
    }
    newcomer.Close();
    if (!rejected) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(rejected);
  EXPECT_NE(reject_line.find("overloaded"), std::string::npos);
  EXPECT_GE(server.Counters().conns_rejected_admission, 1);

  // The established connection is untouched by the breaker.
  established.Send("FLUSH\n");
  EXPECT_EQ(established.ReadLine(), "OK flushed");
  established.Close();

  server.RequestStop();
  server.Wait();
  EXPECT_TRUE(pipeline.Stop().ok());
}

}  // namespace
}  // namespace tcomp
