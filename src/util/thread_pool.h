#ifndef TCOMP_UTIL_THREAD_POOL_H_
#define TCOMP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
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
/// shard w+1), so any data owned by a shard — a slice of `neighbors[]`, a
/// per-worker counter — is written by exactly one thread and the results
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

/// Shard count actually worth using for a loop of `n` items: the requested
/// thread count clamped to [1, n]. A result of 1 means "run serially".
int EffectiveShards(int threads, size_t n);

/// Runs body(shard, num_shards) with num_shards == max(threads, 1) on a
/// lazily created process-wide pool. threads <= 1 calls body(0, 1) inline
/// on the calling thread — the pool is never touched, so single-threaded
/// configurations behave exactly as if this facility did not exist. On a
/// host with one hardware thread every shard runs inline, in shard order.
/// Concurrent calls from different threads are serialized on the shared
/// pool; parallelize within one region, not across regions. This is the
/// one fan-out facility: `--threads` loops and `--shards` stripes both
/// run on it.
void ParallelForShards(int threads, const std::function<void(int, int)>& body);

/// Contiguous-slice helper over an index range: partitions [0, n) into
/// `threads` near-equal slices and runs body(begin, end, shard) for each.
/// Use when per-item cost is uniform; for triangular loops prefer
/// ParallelForShards with a strided (i = shard; i < n; i += num_shards)
/// walk, which balances the load while keeping per-item ownership fixed.
void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t, size_t, int)>& body);

}  // namespace tcomp

#endif  // TCOMP_UTIL_THREAD_POOL_H_
