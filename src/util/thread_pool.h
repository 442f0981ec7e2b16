#ifndef TCOMP_UTIL_THREAD_POOL_H_
#define TCOMP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tcomp {

/// Fixed set of background workers for static fork/join parallelism over
/// snapshot-sized loops.
///
/// Deliberately work-stealing-free: RunShards() hands shard i to exactly
/// one participant (the caller runs shard 0, background worker w runs
/// shard w+1), so any data owned by a shard — a stripe's pair buffer, a
/// per-stripe counter — is written by exactly one thread and the results
/// are bit-identical to running the shards sequentially. Determinism is
/// the contract: a shard's output may depend only on its shard index,
/// never on scheduling.
class ThreadPool {
 public:
  /// Spawns `num_workers` background threads (>= 0). The pool supports
  /// regions of up to num_workers + 1 shards (the caller participates).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs body(shard, num_shards) for every shard in [0, num_shards).
  /// Shard 0 executes on the calling thread; shards 1..num_shards-1 on
  /// background workers. Blocks until every shard returns. Requires
  /// 1 <= num_shards <= num_workers() + 1. Not reentrant: body must not
  /// call RunShards on the same pool.
  void RunShards(int num_shards, const std::function<void(int, int)>& body);

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop(int worker_index);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int, int)>* body_ = nullptr;  // guarded by mu_
  int num_shards_ = 0;                                   // guarded by mu_
  int remaining_ = 0;                                    // guarded by mu_
  uint64_t epoch_ = 0;                                   // guarded by mu_
  bool shutdown_ = false;                                // guarded by mu_
};

/// Runs body(shard, num_shards) with num_shards == max(threads, 1) on a
/// lazily created process-wide pool. threads <= 1 calls body(0, 1) inline
/// on the calling thread — the pool is never touched, so single-threaded
/// configurations behave exactly as if this facility did not exist. On a
/// host with one hardware thread every shard runs inline, in shard order.
/// Concurrent calls from different threads are serialized on the shared
/// pool, whose lock is held for the whole region: body must not call
/// ParallelForShards itself. The one caller is the ε sweep's stripes
/// (internal::SweepNeighborPairs in core/dbscan.h).
void ParallelForShards(int threads, const std::function<void(int, int)>& body);

}  // namespace tcomp

#endif  // TCOMP_UTIL_THREAD_POOL_H_
