// Fork-join thread pool plus parallel_for helpers.
//
// Monte-Carlo experiments (many independent trials) are the dominant parallel
// workload in this library; trials carry deterministic child seeds so results
// are identical regardless of thread count or scheduling order. The executor
// therefore optimizes throughput freely — scheduling never leaks into output.
//
// Structure: the workers pop one mutex-guarded FIFO of runner tasks. A
// parallel_for queues at most one runner per worker; each runner claims
// chunks of its loop from the loop's shared counter until none is left, and
// the calling thread claims chunks beside them. The counter balances load at
// chunk granularity, so the queue sees a few pushes per loop rather than one
// per chunk, and a single queue is all the loops need.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace p2pvod::util {

class ThreadPool;

/// Run body(i) for i in [begin, end) across the pool; blocks until all done.
/// Falls back to a serial loop when the range is tiny, the pool has a single
/// thread, or the caller is already running another parallel_for's chunks
/// (the nested parallelism guard: pool workers only ever run chunks, so this
/// covers them too). `grain` is the number of consecutive indices per chunk;
/// 0 selects count / (4 * workers) rounded up. Chunk boundaries depend only
/// on (range, grain, pool size), never on scheduling, so deterministic bodies
/// stay deterministic. The calling thread executes chunks of THIS loop
/// alongside the workers. Every chunk runs before the first exception a chunk
/// threw is rethrown.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr, std::size_t grain = 0);

/// Cumulative counters for one pool instance. parallel_for queues
/// min(chunks, workers) runner tasks per loop it does not run serially;
/// `submitted` counts them as they are queued and executed() as workers
/// finish them. A runner can finish after its loop has returned (it then
/// finds no chunk left), so the two agree only once the queue is idle. Both
/// depend on the pool size, so the mirrored obs metric "pool/submitted" is
/// tagged Stability::kScheduling.
struct PoolStats {
  std::uint64_t submitted = 0;  ///< runner tasks queued
  std::uint64_t finished = 0;   ///< runner tasks a worker has run
  /// Always 0: one queue leaves nothing to steal. Kept only because the
  /// benchmark's pool.steal_frac (benchmark/workloads.cpp) reads it.
  std::uint64_t executed_stolen = 0;

  [[nodiscard]] std::uint64_t executed() const noexcept { return finished; }
};

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  /// Runs every runner still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Global pool shared by the library's parallel helpers. Sized from the
  /// P2PVOD_THREADS environment variable when set (> 0), else from
  /// hardware_concurrency.
  static ThreadPool& global();

  /// Snapshot of this pool's cumulative counters.
  [[nodiscard]] PoolStats stats() const;

 private:
  friend void parallel_for(std::size_t, std::size_t,
                           const std::function<void(std::size_t)>&,
                           ThreadPool*, std::size_t);

  /// Queue one runner; a worker pops it in FIFO order.
  void push(std::function<void()> runner);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable ready_;  ///< signalled on push and on shutdown
  std::deque<std::function<void()>> queue_;  ///< guarded by mutex_
  bool stopping_ = false;                    ///< guarded by mutex_
  std::atomic<std::uint64_t> stat_submitted_{0};
  std::atomic<std::uint64_t> stat_finished_{0};
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

/// Map-reduce over [0, count): results[i] = map(i), combined serially in index
/// order so reduction is deterministic.
template <typename Result>
std::vector<Result> parallel_map(std::size_t count,
                                 const std::function<Result(std::size_t)>& map,
                                 ThreadPool* pool = nullptr,
                                 std::size_t grain = 0) {
  std::vector<Result> results(count);
  parallel_for(
      0, count, [&](std::size_t i) { results[i] = map(i); }, pool, grain);
  return results;
}

}  // namespace p2pvod::util
