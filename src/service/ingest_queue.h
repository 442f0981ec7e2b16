#ifndef TCOMP_SERVICE_INGEST_QUEUE_H_
#define TCOMP_SERVICE_INGEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "stream/record.h"
#include "util/status.h"

namespace tcomp {

/// What Push() does when the queue is at capacity (the feed is faster than
/// the pipeline drains).
enum class BackpressureMode {
  /// Block the producer until a consumer makes room. Lossless; propagates
  /// the stall to the network client (its writes eventually block too).
  kBlock,
  /// Drop the *oldest* queued record to admit the new one. Keeps the queue
  /// current under overload at the cost of losing the stalest data — the
  /// right trade for live monitoring, where a fresher snapshot beats a
  /// complete-but-late one.
  kShedOldest,
  /// Refuse the new record with Status::OutOfRange, leaving the queue
  /// untouched. The client sees the error and decides (retry, slow down).
  kReject,
};

const char* BackpressureModeName(BackpressureMode mode);

/// Parses "block" / "shed" / "reject". Returns InvalidArgument otherwise.
Status ParseBackpressureMode(const std::string& name, BackpressureMode* mode);

/// Occupancy and loss counters, readable at any time via Counters().
/// `depth` is sampled in the same critical section as the counters, so
/// one Counters() call always satisfies pushed == popped + shed + depth
/// exactly — reading depth() separately could tear against a concurrent
/// push or pop.
struct IngestQueueCounters {
  int64_t pushed = 0;    // records accepted into the queue
  int64_t popped = 0;    // records handed to consumers
  int64_t shed = 0;      // records dropped by kShedOldest
  int64_t rejected = 0;  // records refused by kReject
  int64_t depth = 0;     // queue occupancy at sampling time
  int64_t depth_peak = 0;  // high-watermark queue depth
};

/// Bounded multi-producer / multi-consumer queue of trajectory records —
/// the admission stage of the streaming service. Producers are protocol
/// sessions (one per connected client); the consumer is the pipeline
/// worker. All three backpressure policies keep the queue depth at or
/// below `capacity` at every instant.
///
/// Close() wakes everyone: pending and future pushes fail with
/// FailedPrecondition-like InvalidArgument, and WaitForRecords() keeps
/// returning true until the remaining items are popped.
class IngestQueue {
 public:
  IngestQueue(size_t capacity, BackpressureMode mode);

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Admits one record subject to the backpressure policy. Returns
  /// OutOfRange when kReject refuses, InvalidArgument after Close().
  Status Push(const TrajectoryRecord& record);

  /// Nonblocking admission of records[0, n) in order, under one lock hold
  /// and with one consumer wake-up, for event-loop producers that must
  /// never sleep. Each record meets the policy exactly as it would in n
  /// successive Push() calls, except that kBlock never waits:
  ///   kBlock       admits until the queue is full and returns OK with
  ///                *admitted < n; the caller parks records[*admitted, n)
  ///                and re-offers them once the worker has drained.
  ///   kShedOldest  admits all n, shedding the oldest queued record for
  ///                each one that overflows — earlier records of the same
  ///                span included.
  ///   kReject      admits until the queue is full and refuses the rest,
  ///                counting each refused record; OutOfRange if any was.
  /// InvalidArgument after Close(), with *admitted = 0.
  Status TryPushBatch(const TrajectoryRecord* records, size_t n,
                      size_t* admitted);

  /// Blocks until a record is queued or the queue is closed and empty.
  /// Returns false exactly when the stream is over (closed + drained).
  bool WaitForRecords();

  /// Moves up to `max` of the oldest queued records into *out (replacing
  /// its contents) under one lock hold and returns how many. Never
  /// blocks; 0 when the queue is empty.
  size_t PopBatch(size_t max, std::vector<TrajectoryRecord>* out);

  /// Marks the stream complete. Idempotent.
  void Close();

  bool closed() const;
  size_t capacity() const { return capacity_; }
  BackpressureMode mode() const { return mode_; }
  /// Current depth (racy by nature; for monitoring only).
  size_t depth() const;
  IngestQueueCounters Counters() const;

 private:
  /// The policy over records[0, n) with mu_ held: admits a prefix of
  /// *admitted records and counts what it sheds and refuses.
  Status AdmitLocked(const TrajectoryRecord* records, size_t n,
                     size_t* admitted);

  const size_t capacity_;
  const BackpressureMode mode_;

  mutable std::mutex mu_;
  std::condition_variable not_full_;   // signaled on pop / close
  std::condition_variable not_empty_;  // signaled on push / close
  std::deque<TrajectoryRecord> items_;  // guarded by mu_
  bool closed_ = false;                 // guarded by mu_
  IngestQueueCounters counters_;        // guarded by mu_
};

}  // namespace tcomp

#endif  // TCOMP_SERVICE_INGEST_QUEUE_H_
