#ifndef TCOMP_SERVICE_SERVER_H_
#define TCOMP_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "service/admission.h"
#include "service/connection.h"
#include "service/pipeline.h"
#include "service/socket.h"
#include "util/status.h"

namespace tcomp {

struct ServerOptions {
  /// Loopback port to listen on; 0 binds an ephemeral port (see port()).
  uint16_t port = 0;
  /// A connection idle longer than this is disconnected.
  int read_timeout_ms = 60000;
  /// A connection whose peer stops reading (pending output makes no
  /// progress) for this long is dropped.
  int write_timeout_ms = 10000;
  /// Ceiling on the event loop's epoll_wait tick; also the stop-flag
  /// responsiveness bound (name kept from the thread-per-session server).
  int accept_poll_ms = 100;
  /// Per-connection write backpressure window: once this many response
  /// bytes are queued for a client, the server stops READING from that
  /// client until the backlog drains below half the window. One slow
  /// consumer throttles itself, never the loop or other clients.
  size_t write_backpressure_bytes = 256 * 1024;
  /// Hard cap on concurrent connections (0 = unlimited). Excess accepts
  /// get a best-effort error line and an immediate close.
  int max_connections = 0;
  /// Connection admission control driven by the PR 5 pipeline gauges
  /// (shed rate, p99 snapshot-close); disabled by default.
  AdmissionOptions admission;
};

/// Aggregated transport accounting. Parse errors, binary frames and
/// binary records are read from the connections' live metric series
/// (ConnectionMetrics), so they include connections still open.
struct ServerCounters {
  int64_t sessions_opened = 0;
  int64_t sessions_closed = 0;
  int64_t parse_errors = 0;         // malformed lines/frames, total
  int64_t midline_disconnects = 0;  // EOF with a partial request buffered
  int64_t read_timeouts = 0;        // connections dropped for idleness
  int64_t write_timeouts = 0;       // dropped: peer stopped reading
  int64_t conns_rejected_limit = 0;      // over max_connections
  int64_t conns_rejected_admission = 0;  // admission breaker, kReject
  int64_t conns_shed_admission = 0;      // admission breaker, kShed
  int64_t accept_backoffs = 0;      // EMFILE-class accept stalls taken
  int64_t write_stalls = 0;         // reads paused by the write window
  int64_t binary_frames = 0;        // request frames decoded
  int64_t binary_records = 0;       // records received in INGEST batches
};

/// Loopback TCP front-end for one ServicePipeline: a single epoll event
/// loop drives a nonblocking listener and every connection's
/// ServiceConnection state machine — no thread per session. Both wire
/// protocols (text lines and binary frames) are served on the same port,
/// chosen per connection by its first byte. A SHUTDOWN request (or
/// RequestStop() from the signal path) drains every connection — parked
/// records are force-admitted, pending responses flushed, mid-frame
/// binary clients get a clean SHUTDOWN frame — before the caller stops
/// the pipeline (service/lifecycle.cc keeps that sequencing).
class CompanionServer {
 public:
  CompanionServer(ServicePipeline* pipeline, const ServerOptions& options);
  ~CompanionServer();

  CompanionServer(const CompanionServer&) = delete;
  CompanionServer& operator=(const CompanionServer&) = delete;

  /// Binds, listens, registers the server's metric series, and starts
  /// the event loop. Call once.
  Status Start();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  /// Asynchronous stop trigger; idempotent, callable from any thread.
  void RequestStop();
  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Joins the event loop. Returns only after RequestStop() (or a client
  /// SHUTDOWN) has been issued.
  void Wait();

  ServerCounters Counters() const;

  /// Open connections currently owned by the event loop. (The name
  /// predates the event loop: it used to mean unreaped session-thread
  /// handles; "not yet cleaned up" now simply means "still open".)
  size_t SessionHandles() const;

 private:
  /// One connection's event-loop state: the socket, its protocol state
  /// machine, and flush/backpressure bookkeeping.
  struct Conn {
    StreamSocket sock;
    std::unique_ptr<ServiceConnection> logic;
    size_t out_off = 0;        // bytes of logic->out() already written
    uint32_t events = 0;       // epoll interest currently registered
    int idle_ms = 0;           // since last byte received
    int stall_ms = 0;          // since pending output last progressed
    bool read_paused = false;  // write window full or records parked
  };

  enum class CloseWhy { kEof, kError, kIdleTimeout, kWriteTimeout, kDrain };

  void EventLoop();
  void HandleAccepts();
  void HandleReadable(Conn* conn);
  /// One nonblocking drain attempt of conn's pending output. Returns
  /// false when the connection died (already closed and erased).
  bool FlushConn(Conn* conn);
  void UpdateInterest(Conn* conn);
  void CloseConn(int fd, CloseWhy why);
  void TickHousekeeping(int elapsed_ms);
  void SampleAdmission();
  void PublishMetrics();
  void DrainAndCloseAll();

  ServicePipeline* pipeline_;
  const ServerOptions options_;
  ListenSocket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread loop_thread_;
  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;  // eventfd; RequestStop() kicks the loop
  bool listener_armed_ = false;
  int accept_backoff_ms_ = 0;       // current EMFILE backoff step
  int accept_backoff_left_ms_ = 0;  // remaining stall before re-arming

  // Ordered map so every sweep over connections (housekeeping, drain)
  // visits them deterministically; fd count stays far too small for the
  // lookup cost to matter.
  std::map<int, std::unique_ptr<Conn>> conns_;

  AdmissionController admission_;
  int admission_sample_left_ms_ = 0;
  int metrics_publish_left_ms_ = 0;

  mutable std::mutex mu_;  // guards counters_ (loop writes, callers read)
  ServerCounters counters_;
  // The series Counters() reads parse_errors, binary_frames and
  // binary_records from; registered at construction.
  ConnectionMetrics conn_metrics_;

  // Event-loop metric series, registered into the pipeline's registry at
  // Start() (before the port is announced) so the exposition name set is
  // identical across runs and resume — values change, names never do.
  MetricCounter* m_conns_opened_ = nullptr;
  MetricCounter* m_conns_closed_ = nullptr;
  MetricCounter* m_rejected_admission_ = nullptr;
  MetricCounter* m_shed_admission_ = nullptr;
  MetricCounter* m_rejected_limit_ = nullptr;
  MetricCounter* m_write_stalls_ = nullptr;
  MetricGauge* m_conns_open_ = nullptr;
  MetricGauge* m_admission_overloaded_ = nullptr;
};

}  // namespace tcomp

#endif  // TCOMP_SERVICE_SERVER_H_
