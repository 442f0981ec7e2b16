#include "service/ingest_queue.h"

#include <algorithm>
#include <cstddef>
#include <string>

#include "util/logging.h"

namespace tcomp {

const char* BackpressureModeName(BackpressureMode mode) {
  switch (mode) {
    case BackpressureMode::kBlock:
      return "block";
    case BackpressureMode::kShedOldest:
      return "shed";
    case BackpressureMode::kReject:
      return "reject";
  }
  return "unknown";
}

Status ParseBackpressureMode(const std::string& name,
                             BackpressureMode* mode) {
  if (name == "block") {
    *mode = BackpressureMode::kBlock;
  } else if (name == "shed" || name == "shed-oldest") {
    *mode = BackpressureMode::kShedOldest;
  } else if (name == "reject") {
    *mode = BackpressureMode::kReject;
  } else {
    return Status::InvalidArgument("unknown backpressure mode: " + name +
                                   " (expected block|shed|reject)");
  }
  return Status::OK();
}

IngestQueue::IngestQueue(size_t capacity, BackpressureMode mode)
    : capacity_(capacity), mode_(mode) {
  TCOMP_CHECK_GT(capacity, 0u);
}

Status IngestQueue::Push(const TrajectoryRecord& record) {
  std::unique_lock<std::mutex> lock(mu_);
  if (mode_ == BackpressureMode::kBlock) {
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
  }
  size_t admitted = 0;
  Status s = AdmitLocked(&record, 1, &admitted);
  lock.unlock();
  if (admitted > 0) not_empty_.notify_one();
  return s;
}

Status IngestQueue::TryPushBatch(const TrajectoryRecord* records, size_t n,
                                 size_t* admitted) {
  std::unique_lock<std::mutex> lock(mu_);
  Status s = AdmitLocked(records, n, admitted);
  lock.unlock();
  if (*admitted > 0) not_empty_.notify_one();
  return s;
}

Status IngestQueue::AdmitLocked(const TrajectoryRecord* records, size_t n,
                                size_t* admitted) {
  *admitted = 0;
  if (closed_) {
    return Status::InvalidArgument("ingest queue is closed");
  }
  Status status;
  size_t take = n;
  if (mode_ != BackpressureMode::kShedOldest) {
    // Nothing leaves the queue during the hold, so the records that fit
    // are exactly the free slots; the rest wait (kBlock: the caller
    // re-offers them, nothing is counted until then) or are refused.
    const size_t room = capacity_ - items_.size();
    if (n > room) {
      take = room;
      if (mode_ == BackpressureMode::kReject) {
        counters_.rejected += static_cast<int64_t>(n - room);
        status = Status::OutOfRange("ingest queue full (capacity " +
                                    std::to_string(capacity_) + ")");
      }
    }
  }
  for (size_t i = 0; i < take; ++i) {
    if (items_.size() >= capacity_) {  // kShedOldest only
      items_.pop_front();
      ++counters_.shed;
    }
    items_.push_back(records[i]);
  }
  counters_.pushed += static_cast<int64_t>(take);
  // Depth never falls during the hold, so the final depth is its peak.
  if (static_cast<int64_t>(items_.size()) > counters_.depth_peak) {
    counters_.depth_peak = static_cast<int64_t>(items_.size());
  }
  *admitted = take;
  return status;
}

bool IngestQueue::WaitForRecords() {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
  return !items_.empty();
}

size_t IngestQueue::PopBatch(size_t max, std::vector<TrajectoryRecord>* out) {
  out->clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto end = items_.begin() +
                     static_cast<std::ptrdiff_t>(std::min(max, items_.size()));
    out->assign(items_.begin(), end);
    items_.erase(items_.begin(), end);
    counters_.popped += static_cast<int64_t>(out->size());
  }
  // Several kBlock producers may fit now, not just one.
  if (!out->empty()) not_full_.notify_all();
  return out->size();
}

void IngestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool IngestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t IngestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

IngestQueueCounters IngestQueue::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  IngestQueueCounters counters = counters_;
  counters.depth = static_cast<int64_t>(items_.size());
  return counters;
}

}  // namespace tcomp
