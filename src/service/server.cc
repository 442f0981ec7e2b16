#include "service/server.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "core/stage.h"
#include "util/logging.h"
#include "util/timer.h"

namespace tcomp {
namespace {

/// Reads and discards the eventfd counter so a level-triggered epoll
/// stops reporting the wakeup fd as readable.
void DrainEventFd(int fd) {
  uint64_t value = 0;
  for (;;) {
    ssize_t rc = read(fd, &value, sizeof(value));
    if (rc < 0 && errno == EINTR) continue;
    // EAGAIN (already drained) and short reads both end the drain.
    break;
  }
}

}  // namespace

CompanionServer::CompanionServer(ServicePipeline* pipeline,
                                 const ServerOptions& options)
    : pipeline_(pipeline),
      options_(options),
      admission_(options.admission),
      conn_metrics_(
          RegisterConnectionMetrics(pipeline->mutable_metrics())) {}

CompanionServer::~CompanionServer() {
  if (started_) {
    RequestStop();
    Wait();
  }
  // Backstop for a Start() that failed after creating the fds (the event
  // loop closes them on its way out otherwise).
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wakeup_fd_ >= 0) close(wakeup_fd_);
}

Status CompanionServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  TCOMP_RETURN_IF_ERROR(ListenSocket::Listen(options_.port, &listener_));
  TCOMP_RETURN_IF_ERROR(listener_.SetNonBlocking(true));
  port_ = listener_.port();

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IoError(std::string("epoll_create1: ") + strerror(errno));
  }
  wakeup_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeup_fd_ < 0) {
    return Status::IoError(std::string("eventfd: ") + strerror(errno));
  }
  struct epoll_event ev;
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &ev) != 0) {
    return Status::IoError(std::string("epoll_ctl(wakeup): ") +
                           strerror(errno));
  }
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    return Status::IoError(std::string("epoll_ctl(listener): ") +
                           strerror(errno));
  }
  listener_armed_ = true;

  // Register every event-loop series up front: the exposition name set
  // must be identical across runs and resume regardless of which code
  // paths a particular run exercises.
  MetricsRegistry* reg = pipeline_->mutable_metrics();
  m_conns_opened_ = reg->GetCounter("tcomp_conns_opened_total", "",
                                    "Connections accepted by the event loop");
  m_conns_closed_ = reg->GetCounter("tcomp_conns_closed_total", "",
                                    "Connections closed by the event loop");
  // The frame, record and parse-error series are conn_metrics_, counted
  // live by the connections themselves.
  m_rejected_admission_ = reg->GetCounter(
      "tcomp_conns_rejected_admission_total", "",
      "Connections refused with an error by the admission breaker");
  m_shed_admission_ =
      reg->GetCounter("tcomp_conns_shed_admission_total", "",
                      "Connections closed silently by the admission breaker");
  m_rejected_limit_ =
      reg->GetCounter("tcomp_conns_rejected_limit_total", "",
                      "Connections refused by the max-connections cap");
  m_write_stalls_ = reg->GetCounter(
      "tcomp_conn_write_stalls_total", "",
      "Reads paused because a client's write window filled");
  m_conns_open_ =
      reg->GetGauge("tcomp_conns_open", "", "Currently open connections");
  m_admission_overloaded_ = reg->GetGauge(
      "tcomp_admission_overloaded", "",
      "1 while the admission breaker considers the pipeline overloaded");

  started_ = true;
  loop_thread_ = std::thread(&CompanionServer::EventLoop, this);
  return Status::OK();
}

// stop_ is a pure loop-exit flag: shutdown correctness comes from the
// join in Wait(), not from ordering around the flag, so relaxed suffices.
void CompanionServer::RequestStop() {
  stop_.store(true, std::memory_order_relaxed);
  if (wakeup_fd_ >= 0) {
    uint64_t one = 1;
    // Best-effort kick: EINTR is retried; EAGAIN means the counter is
    // already nonzero, i.e. the loop is waking anyway.
    for (;;) {
      ssize_t rc = write(wakeup_fd_, &one, sizeof(one));
      if (rc < 0 && errno == EINTR) continue;
      break;
    }
  }
}

void CompanionServer::Wait() {
  if (!started_) return;
  if (loop_thread_.joinable()) loop_thread_.join();
}

ServerCounters CompanionServer::Counters() const {
  ServerCounters c;
  {
    std::lock_guard<std::mutex> lock(mu_);
    c = counters_;
  }
  c.parse_errors =
      static_cast<int64_t>(conn_metrics_.parse_errors->Value());
  c.binary_frames = static_cast<int64_t>(conn_metrics_.frames->Value());
  c.binary_records = static_cast<int64_t>(conn_metrics_.records->Value());
  return c;
}

size_t CompanionServer::SessionHandles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.sessions_opened > counters_.sessions_closed
             ? static_cast<size_t>(counters_.sessions_opened -
                                   counters_.sessions_closed)
             : 0;
}

void CompanionServer::EventLoop() {
  const int tick_ms = std::min(50, std::max(1, options_.accept_poll_ms));
  auto last_tick = std::chrono::steady_clock::now();
  std::vector<struct epoll_event> events(64);

  while (!stop_.load(std::memory_order_relaxed)) {
    // A connection with parked records has its reads paused, so nothing
    // wakes the loop when the worker frees queue space: poll every 1 ms
    // until the records are admitted, instead of once per housekeeping
    // tick (one tick per parked record at a small queue capacity).
    bool any_parked = false;
    for (const auto& entry : conns_) {
      if (entry.second->logic->has_parked()) {
        any_parked = true;
        break;
      }
    }
    int n = epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()),
                       any_parked ? 1 : tick_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      TCOMP_LOG_ERROR << "epoll_wait failed, stopping server: "
                      << strerror(errno);
      RequestStop();
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wakeup_fd_) {
        DrainEventFd(wakeup_fd_);
        continue;
      }
      if (fd == listener_.fd()) {
        HandleAccepts();
        continue;
      }
      // The connection may have been closed by an earlier event in this
      // batch; stale entries simply miss.
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        // HUP/ERR surface through the read path as EOF or an error.
        HandleReadable(it->second.get());
      }
      it = conns_.find(fd);
      if (it != conns_.end() && (ev & EPOLLOUT)) {
        if (FlushConn(it->second.get())) {
          UpdateInterest(it->second.get());
        }
      }
    }

    auto now = std::chrono::steady_clock::now();
    int elapsed_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now - last_tick)
            .count());
    if (elapsed_ms > 0) {
      // Advance by the whole milliseconds handed out, not to `now`: the
      // sub-millisecond remainder carries into the next tick, so idle
      // and stall timers track real elapsed time however short the
      // polls get.
      last_tick += std::chrono::milliseconds(elapsed_ms);
      TickHousekeeping(elapsed_ms);
    }
  }
  DrainAndCloseAll();
}

void CompanionServer::HandleAccepts() {
  if (!listener_armed_) return;
  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) return;
    StreamSocket accepted;
    bool would_block = false;
    Status s = listener_.AcceptNonBlocking(&accepted, &would_block);
    if (s.code() == StatusCode::kOutOfRange) {
      // EMFILE-class exhaustion. Park the listener (deregister its
      // EPOLLIN so a level-triggered epoll does not spin on the pending
      // connection we cannot take) and re-arm after a backoff; closing
      // connections free fds in the meantime. The failed accept created
      // no fd, and every later failure path in this function closes the
      // accepted fd via StreamSocket's destructor — nothing leaks while
      // the backoff ticks down.
      accept_backoff_ms_ =
          std::min(accept_backoff_ms_ == 0 ? 10 : accept_backoff_ms_ * 2,
                   1000);
      accept_backoff_left_ms_ = accept_backoff_ms_;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.accept_backoffs;
      }
      TCOMP_LOG_WARNING << "accept (backing off " << accept_backoff_ms_
                        << "ms): " << s.ToString();
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr) == 0) {
        listener_armed_ = false;
      }
      return;
    }
    if (!s.ok()) {
      // The listener itself is broken. Request a full stop so
      // RunServiceUntilShutdown proceeds to drain and checkpoint instead
      // of stranding a daemon that is alive but unreachable.
      TCOMP_LOG_ERROR << "accept failed, stopping server: " << s.ToString();
      RequestStop();
      return;
    }
    if (would_block) return;
    if (!accepted.valid()) continue;  // peer vanished pre-accept
    accept_backoff_ms_ = 0;

    // From here on `accepted` owns the fd: every early `continue` below
    // destroys it and closes the descriptor — no failure path leaks the
    // fd that triggered it.
    if (options_.max_connections > 0 &&
        conns_.size() >= static_cast<size_t>(options_.max_connections)) {
      std::string line = "ERR OUT_OF_RANGE connection limit reached\n";
      size_t written = 0;
      bool wb = false;
      (void)accepted.WriteSome(line.data(), line.size(), &written, &wb);
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.conns_rejected_limit;
      continue;
    }
    if (admission_.enabled() && admission_.overloaded()) {
      if (admission_.policy() == AdmissionPolicy::kReject) {
        std::string line =
            "ERR OUT_OF_RANGE server overloaded, retry later\n";
        size_t written = 0;
        bool wb = false;
        (void)accepted.WriteSome(line.data(), line.size(), &written, &wb);
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.conns_rejected_admission;
      } else {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.conns_shed_admission;
      }
      continue;
    }

    const int fd = accepted.fd();
    struct epoll_event ev;
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      // Registration failed: `accepted` still owns the fd and closes it
      // on this iteration's exit.
      TCOMP_LOG_WARNING << "epoll_ctl(conn): " << strerror(errno);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(accepted);
    conn->logic = std::make_unique<ServiceConnection>(pipeline_);
    conn->events = EPOLLIN;
    conns_.emplace(fd, std::move(conn));
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.sessions_opened;
  }
}

void CompanionServer::HandleReadable(Conn* conn) {
  const int fd = conn->sock.fd();
  char buf[65536];
  for (;;) {
    size_t n = 0;
    bool would_block = false;
    Status s = conn->sock.ReadSome(buf, sizeof(buf), &n, &would_block);
    if (!s.ok()) {
      CloseConn(fd, CloseWhy::kError);
      return;
    }
    if (would_block) break;
    if (n == 0) {
      CloseConn(fd, CloseWhy::kEof);
      return;
    }
    conn->idle_ms = 0;
    conn->logic->Consume(buf, n);
    if (conn->logic->shutdown_requested()) RequestStop();
    if (conn->logic->fatal() || conn->logic->has_parked()) break;
    if (conn->logic->out().size() - conn->out_off >=
        options_.write_backpressure_bytes) {
      break;
    }
  }
  const size_t pending = conn->logic->out().size() - conn->out_off;
  const bool window_full = pending >= options_.write_backpressure_bytes;
  const bool pause = conn->logic->fatal() || conn->logic->has_parked() ||
                     window_full;
  if (pause && !conn->read_paused && window_full) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.write_stalls;
  }
  conn->read_paused = pause;
  if (FlushConn(conn)) UpdateInterest(conn);
}

bool CompanionServer::FlushConn(Conn* conn) {
  std::string& out = conn->logic->out();
  if (conn->out_off >= out.size()) {
    if (conn->logic->fatal()) {
      CloseConn(conn->sock.fd(), CloseWhy::kError);
      return false;
    }
    return true;
  }
  Timer flush_timer;
  flush_timer.Start();
  size_t written = 0;
  bool would_block = false;
  Status s = conn->sock.WriteSome(out.data() + conn->out_off,
                                  out.size() - conn->out_off, &written,
                                  &would_block);
  flush_timer.Stop();
  pipeline_->stage_sink()->RecordStage(Stage::kConnFlush,
                                       flush_timer.Seconds());
  if (!s.ok()) {
    CloseConn(conn->sock.fd(), CloseWhy::kError);
    return false;
  }
  conn->out_off += written;
  if (written > 0) conn->stall_ms = 0;
  if (conn->out_off >= out.size()) {
    out.clear();
    conn->out_off = 0;
    if (conn->logic->fatal()) {
      // The error frame is on the wire; nothing more to say.
      CloseConn(conn->sock.fd(), CloseWhy::kError);
      return false;
    }
  }
  // Resume reading once the window drained below half — hysteresis so a
  // client hovering at the edge does not thrash interest updates.
  if (conn->read_paused && !conn->logic->has_parked() &&
      !conn->logic->fatal() &&
      out.size() - conn->out_off < options_.write_backpressure_bytes / 2) {
    conn->read_paused = false;
  }
  return true;
}

void CompanionServer::UpdateInterest(Conn* conn) {
  uint32_t want = 0;
  if (!conn->read_paused) want |= EPOLLIN;
  if (conn->out_off < conn->logic->out().size()) want |= EPOLLOUT;
  if (want == conn->events) return;
  struct epoll_event ev;
  ev.events = want;
  ev.data.fd = conn->sock.fd();
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->sock.fd(), &ev) == 0) {
    conn->events = want;
  }
}

void CompanionServer::CloseConn(int fd, CloseWhy why) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ServiceConnection* logic = it->second->logic.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.sessions_closed;
    switch (why) {
      case CloseWhy::kEof:
        if (logic->has_partial_request()) ++counters_.midline_disconnects;
        break;
      case CloseWhy::kIdleTimeout:
        ++counters_.read_timeouts;
        break;
      case CloseWhy::kWriteTimeout:
        ++counters_.write_timeouts;
        break;
      case CloseWhy::kError:
      case CloseWhy::kDrain:
        break;
    }
  }
  // Closing the fd drops it from the epoll set automatically.
  conns_.erase(it);
}

void CompanionServer::TickHousekeeping(int elapsed_ms) {
  // Re-arm a parked listener once its backoff expires.
  if (!listener_armed_) {
    accept_backoff_left_ms_ -= elapsed_ms;
    if (accept_backoff_left_ms_ <= 0) {
      struct epoll_event ev;
      ev.events = EPOLLIN;
      ev.data.fd = listener_.fd();
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) == 0) {
        listener_armed_ = true;
        HandleAccepts();  // catch up on the queue that built up
      }
    }
  }

  // Snapshot the fd set first: closing a connection mutates conns_.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& entry : conns_) fds.push_back(entry.first);
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();

    // Re-offer parked records; success may also unlock buffered parsing.
    if (conn->logic->has_parked()) {
      (void)conn->logic->RetryParked();
      if (!conn->logic->has_parked()) conn->idle_ms = 0;
    }
    if (conn->read_paused && !conn->logic->has_parked() &&
        !conn->logic->fatal() &&
        conn->logic->out().size() - conn->out_off <
            options_.write_backpressure_bytes / 2) {
      conn->read_paused = false;
    }
    if (!FlushConn(conn)) continue;  // connection died
    if (conn->logic->shutdown_requested()) RequestStop();

    const size_t pending = conn->logic->out().size() - conn->out_off;
    if (pending > 0) {
      conn->stall_ms += elapsed_ms;
      if (options_.write_timeout_ms > 0 &&
          conn->stall_ms >= options_.write_timeout_ms) {
        CloseConn(fd, CloseWhy::kWriteTimeout);
        continue;
      }
    }
    conn->idle_ms += elapsed_ms;
    if (options_.read_timeout_ms > 0 &&
        conn->idle_ms >= options_.read_timeout_ms) {
      CloseConn(fd, CloseWhy::kIdleTimeout);
      continue;
    }
    UpdateInterest(conn);
  }

  if (admission_.enabled()) {
    admission_sample_left_ms_ -= elapsed_ms;
    if (admission_sample_left_ms_ <= 0) {
      admission_sample_left_ms_ = 100;
      SampleAdmission();
    }
  }
  metrics_publish_left_ms_ -= elapsed_ms;
  if (metrics_publish_left_ms_ <= 0) {
    metrics_publish_left_ms_ = 250;
    PublishMetrics();
  }
}

void CompanionServer::SampleAdmission() {
  ServiceStats stats = pipeline_->Stats();
  AdmissionSample sample;
  // Offered = every record a client tried to push; refused = the ones
  // the queue dropped (shed evicts an old record to admit the new one,
  // reject refuses the new one outright).
  sample.offered = stats.queue.pushed + stats.queue.rejected;
  sample.refused = stats.queue.shed + stats.queue.rejected;
  sample.p99_close_ms =
      pipeline_->stage_sink()->histogram(Stage::kSnapshotClose)->Snap().p99() *
      1000.0;
  admission_.Update(sample);
}

void CompanionServer::PublishMetrics() {
  ServerCounters c;
  {
    std::lock_guard<std::mutex> lock(mu_);
    c = counters_;
  }
  m_conns_opened_->Set(static_cast<uint64_t>(c.sessions_opened));
  m_conns_closed_->Set(static_cast<uint64_t>(c.sessions_closed));
  m_rejected_admission_->Set(
      static_cast<uint64_t>(c.conns_rejected_admission));
  m_shed_admission_->Set(static_cast<uint64_t>(c.conns_shed_admission));
  m_rejected_limit_->Set(static_cast<uint64_t>(c.conns_rejected_limit));
  m_write_stalls_->Set(static_cast<uint64_t>(c.write_stalls));
  m_conns_open_->Set(static_cast<int64_t>(conns_.size()));
  m_admission_overloaded_->Set(admission_.overloaded() ? 1 : 0);
}

void CompanionServer::DrainAndCloseAll() {
  // Stop taking new work first.
  if (listener_armed_) {
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
    listener_armed_ = false;
  }
  listener_.Close();

  // Give every connection its goodbye — force-admit parked records
  // (completing acknowledged batches atomically; the pipeline is still
  // running at this point) and queue clean SHUTDOWN frames for binary
  // clients caught mid-frame.
  for (auto& entry : conns_) entry.second->logic->PrepareShutdown();

  // Best-effort flush with a bounded per-connection budget. These are
  // nonblocking fds: WriteAll's EAGAIN handling (poll + resume at the
  // unwritten suffix) is exactly what keeps a slow reader from seeing a
  // truncated response here.
  const int budget_ms =
      std::min(options_.write_timeout_ms > 0 ? options_.write_timeout_ms
                                             : 2000,
               2000);
  for (auto& entry : conns_) {
    Conn* conn = entry.second.get();
    std::string& out = conn->logic->out();
    if (conn->out_off < out.size()) {
      (void)conn->sock.WriteAll(out.substr(conn->out_off), budget_ms);
      conn->out_off = out.size();
    }
  }
  while (!conns_.empty()) {
    CloseConn(conns_.begin()->first, CloseWhy::kDrain);
  }
  PublishMetrics();
  // epoll_fd_/wakeup_fd_ stay open until the destructor: RequestStop()
  // may still be called concurrently (signal path, redundant client
  // SHUTDOWNs) and must be able to poke the eventfd safely.
}

}  // namespace tcomp
