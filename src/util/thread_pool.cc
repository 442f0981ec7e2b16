#include "util/thread_pool.h"

#include <memory>

#include "util/logging.h"

namespace tcomp {

ThreadPool::ThreadPool(int num_workers) {
  TCOMP_CHECK_GE(num_workers, 0);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop(int worker_index) {
  uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return shutdown_ || epoch_ != seen_epoch; });
    if (shutdown_) return;
    seen_epoch = epoch_;
    if (worker_index + 1 >= num_shards_) continue;  // no shard this epoch
    const std::function<void(int, int)>* body = body_;
    int shards = num_shards_;
    lock.unlock();
    (*body)(worker_index + 1, shards);
    lock.lock();
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::RunShards(int num_shards,
                           const std::function<void(int, int)>& body) {
  TCOMP_CHECK_GE(num_shards, 1);
  TCOMP_CHECK_LE(num_shards, num_workers() + 1);
  if (num_shards == 1) {
    body(0, 1);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    num_shards_ = num_shards;
    remaining_ = num_shards - 1;
    ++epoch_;
  }
  work_cv_.notify_all();
  body(0, num_shards);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return remaining_ == 0; });
  body_ = nullptr;
  num_shards_ = 0;
}

namespace {

// One shared pool, grown on demand. The mutex is held for the whole
// parallel region: regions are serialized, which both protects the pool
// against resizing mid-flight and keeps the facility trivially safe for
// callers running independent streams on their own threads.
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

void ParallelForShards(int threads,
                       const std::function<void(int, int)>& body) {
  if (threads <= 1) {
    body(0, 1);
    return;
  }
  // On a host with a single hardware thread the shards cannot overlap, so
  // background workers would only add futex wake-ups and context switches
  // to every region: run them in shard order on the caller instead. The
  // shard decomposition, and so every product and counter, is unchanged.
  static const bool single_hw_thread =
      std::thread::hardware_concurrency() <= 1;
  if (single_hw_thread) {
    for (int shard = 0; shard < threads; ++shard) body(shard, threads);
    return;
  }
  std::lock_guard<std::mutex> lock(g_pool_mu);
  std::unique_ptr<ThreadPool>& pool = GlobalPoolSlot();
  if (pool == nullptr || pool->num_workers() < threads - 1) {
    pool.reset();  // join the smaller pool before replacing it
    pool = std::make_unique<ThreadPool>(threads - 1);
  }
  pool->RunShards(threads, body);
}

}  // namespace tcomp
