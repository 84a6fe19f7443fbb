// Work-stealing thread pool plus parallel_for helpers.
//
// Monte-Carlo experiments (many independent trials) are the dominant parallel
// workload in this library; trials carry deterministic child seeds so results
// are identical regardless of thread count or scheduling order. The executor
// therefore optimizes throughput freely — scheduling never leaks into output.
//
// Structure: every worker owns one deque. A worker pushes and pops its own
// work LIFO (hot caches, bounded space under nested submission) and steals
// FIFO from a victim's opposite end (oldest task first, the one least likely
// to be in the victim's cache). External submitters distribute round-robin
// across the worker deques, so there is no single contended queue. Each deque
// is guarded by its worker's mutex — steals use try_lock so a contended
// victim is skipped, which makes the fast paths lock-free-ish in practice
// without the memory-ordering hazards of a full Chase-Lev deque. Tasks run
// in no specified order; callers that need an order wait on futures.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace p2pvod::util {

/// Cumulative scheduling counters for one pool instance. Every task leaves a
/// queue through exactly one of pop_local (own deque) or steal (another
/// deque), so after all submitted futures complete,
/// submitted == executed_local + executed_stolen — the exactly-once
/// accounting the concurrency tests assert. helping_runs counts the subset
/// executed through try_run_one()/wait() (a waiter pitching in), and
/// per_worker_executed[i] counts tasks that ran on worker thread i. All of
/// these depend on scheduling, so the mirrored obs metrics ("pool/...") are
/// tagged Stability::kScheduling and excluded from cross-thread-count
/// determinism checks.
struct PoolStats {
  std::uint64_t submitted = 0;        ///< tasks accepted by submit()
  std::uint64_t executed_local = 0;   ///< dequeued LIFO by the owning worker
  std::uint64_t executed_stolen = 0;  ///< dequeued FIFO from another deque
  std::uint64_t helping_runs = 0;     ///< ran via try_run_one()/wait()
  std::vector<std::uint64_t> per_worker_executed;  ///< ran on worker i

  [[nodiscard]] std::uint64_t executed() const noexcept {
    return executed_local + executed_stolen;
  }
};

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Submit a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// True when the calling thread is one of this pool's workers. Parallel
  /// helpers use this to degrade to a serial loop instead of deadlocking:
  /// a worker that blocked on nested futures would wait for queue slots that
  /// only it could drain.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Execute one pending task on the calling thread if any is available
  /// (own deque first for workers, then a steal sweep). Returns false when
  /// nothing was run. Safe to call from any thread.
  bool try_run_one();

  /// Block until `future` is ready, executing pending pool tasks while
  /// waiting ("helping"). This is what makes nested submit-then-wait safe at
  /// any pool size: a worker waiting on a task it just queued will execute
  /// it itself rather than deadlock. Tradeoff of the explicit opt-in: the
  /// helped task is arbitrary (any queue) and runs nested on the waiter's
  /// stack — callers with deep chains of waits-inside-tasks should bound
  /// that nesting themselves. parallel_for does not use this; it only
  /// executes chunks of its own loop.
  void wait(std::future<void>& future);

  /// Global pool shared by the library's parallel helpers. Sized from the
  /// P2PVOD_THREADS environment variable when set (> 0), else from
  /// hardware_concurrency.
  static ThreadPool& global();

  /// Snapshot of this pool's cumulative scheduling counters. Consistent (the
  /// exactly-once identity holds) once all submitted futures have completed;
  /// a mid-flight read may see a task submitted but not yet executed.
  [[nodiscard]] PoolStats stats() const;

 private:
  using Task = std::packaged_task<void()>;

  /// One worker's deque and its mutex. Owner pushes/pops at the back
  /// (LIFO), thieves pop at the front (FIFO).
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
    /// Tasks executed BY this queue's owning worker thread (wherever they
    /// were dequeued from), for PoolStats::per_worker_executed.
    std::atomic<std::uint64_t> executed{0};
  };

  void worker_loop(std::size_t self);
  void push(std::size_t target, Task task);
  bool pop_local(std::size_t self, Task& out);
  /// Steal sweep over every queue except `self` (pass size() to sweep all,
  /// e.g. from threads that are not workers of this pool).
  bool steal(std::size_t self, Task& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  /// Tasks queued but not yet popped, across all deques. Incremented BEFORE
  /// a task is published (never after — a steal racing a late increment
  /// would wrap the counter), decremented on successful pop/steal. Workers
  /// sleep only when this is zero.
  std::atomic<std::size_t> pending_{0};
  /// Workers currently blocked (or about to block) on idle_cv_. Lets the
  /// submit fast path skip the shared idle_mutex_ + notify when nobody is
  /// asleep; modified only under idle_mutex_ so the wakeup handshake stays
  /// lossless.
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<std::size_t> next_queue_{0};  ///< round-robin external target
  /// PoolStats sources (relaxed; read via stats()). Dequeue-site counters —
  /// every task is counted at the pop_local/steal that removes it, exactly
  /// once, regardless of which thread then runs it.
  std::atomic<std::uint64_t> stat_submitted_{0};
  std::atomic<std::uint64_t> stat_executed_local_{0};
  std::atomic<std::uint64_t> stat_executed_stolen_{0};
  std::atomic<std::uint64_t> stat_helping_runs_{0};
  std::atomic<bool> stopping_{false};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
};

/// Run body(i) for i in [begin, end) across the pool; blocks until all done.
/// Falls back to a serial loop when the range is tiny, the pool has a single
/// thread, or the caller is already inside a parallel region (a worker of
/// this pool, or any thread running another parallel_for's chunks: the
/// nested parallelism guard). `grain` is the number of consecutive indices
/// per chunk; 0 selects count / (4 * workers) rounded up. Chunk boundaries
/// depend only on (range, grain, pool size), never on scheduling, so
/// deterministic bodies stay deterministic. The calling thread executes
/// chunks of THIS loop alongside the workers (never arbitrary other pool
/// tasks, so waiting cannot nest unrelated work).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr, std::size_t grain = 0);

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
