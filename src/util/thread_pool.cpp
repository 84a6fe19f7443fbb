#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "util/cli.hpp"

namespace p2pvod::util {

namespace {

// Process-wide mirror of the per-pool submit counter, so pool activity shows
// up in the BENCH metrics block without threading pool handles around.
// Tagged kScheduling: the runner count follows the pool size. The handle
// resolves once (the leaked registry keeps it valid through static
// destruction, which matters here — global() pool workers run late).
obs::Counter& obs_submitted() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "pool/submitted", obs::Stability::kScheduling);
  return counter;
}

// Depth of parallel_for chunk-claiming loops on this thread. Pool workers
// only run loop runners, so a thread running chunks — a worker or a loop's
// caller — is inside a parallel region exactly when this is positive, and
// nested parallel helpers degrade to serial there.
thread_local int t_parallel_for_depth = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::push(std::function<void()> runner) {
  stat_submitted_.fetch_add(1, std::memory_order_relaxed);
  obs_submitted().add();
  {
    const std::lock_guard lock(mutex_);
    queue_.push_back(std::move(runner));
  }
  ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> runner;
    {
      std::unique_lock lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain everything queued before shutdown: a runner holds its loop's
      // state alive, and it must run to release it.
      if (queue_.empty()) return;
      runner = std::move(queue_.front());
      queue_.pop_front();
    }
    runner();
    stat_finished_.fetch_add(1, std::memory_order_relaxed);
  }
}

PoolStats ThreadPool::stats() const {
  PoolStats out;
  out.submitted = stat_submitted_.load(std::memory_order_relaxed);
  out.finished = stat_finished_.load(std::memory_order_relaxed);
  return out;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    // Cap far above any sane machine: a garbage value (or strtol
    // saturation) must not make the constructor spawn billions of threads.
    if (const auto threads = env_positive_long("P2PVOD_THREADS")) {
      return static_cast<std::size_t>(std::min(*threads, 512L));
    }
    return std::size_t{0};  // hardware_concurrency
  }());
  return pool;
}

namespace {

/// Chunk length for parallel_for when the caller passed 0: count /
/// (4 * workers) rounded up (4 chunks per worker absorbs moderate cost
/// imbalance without drowning in task bookkeeping).
std::size_t default_grain(std::size_t count, std::size_t workers) {
  const std::size_t chunks = workers * 4;
  return (count + chunks - 1) / chunks;
}

}  // namespace

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool, std::size_t grain) {
  if (begin >= end) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t count = end - begin;
  // Serial fallbacks: tiny ranges, serial pools, and nested parallelism — a
  // thread already running some loop's chunks (going parallel again would
  // only add scheduling overhead and make sibling chunks' nested structure
  // nondeterministic).
  if (pool->size() <= 1 || count <= 1 || t_parallel_for_depth > 0) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  if (grain == 0) grain = default_grain(count, pool->size());
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (count + grain - 1) / grain;
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Static chunking, dynamic claiming: chunk BOUNDARIES depend only on
  // (range, grain) — so the seed->index mapping of deterministic bodies is
  // scheduling-independent — while chunk->thread assignment comes from a
  // shared claim counter, which balances load at chunk granularity. The
  // caller claims chunks alongside `runners` worker tasks, and a thread
  // running chunks runs only this loop's chunks, so waiting cannot nest
  // unrelated work (stack depth stays the program's logical nesting).
  //
  // Heap-shared state: a runner scheduled after the loop already finished
  // must find valid memory (it claims nothing and returns). Every chunk runs
  // under its own catch — all chunks execute before the first error
  // rethrows, so `body`'s captures stay alive until no chunk references
  // them, and nothing of the loop runs after parallel_for returns.
  struct State {
    std::function<void(std::size_t)> body;
    std::size_t begin = 0, end = 0, grain = 0, chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    std::promise<void> done;
  };
  auto state = std::make_shared<State>();
  state->body = body;
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->chunks = chunks;

  const auto run_claimed_chunks = [](State& s) {
    // Mark the executing thread as inside the parallel region for the whole
    // claiming loop, on the caller and on the workers alike, so nested
    // parallel helpers degrade to serial on every thread that runs chunks.
    // (Chunk errors are captured below, never thrown, but RAII keeps the
    // depth balanced regardless.)
    struct DepthGuard {
      DepthGuard() { ++t_parallel_for_depth; }
      ~DepthGuard() { --t_parallel_for_depth; }
    } guard;
    for (;;) {
      const std::size_t chunk = s.next.fetch_add(1);
      if (chunk >= s.chunks) return;
      const std::size_t lo = s.begin + chunk * s.grain;
      const std::size_t hi = std::min(s.end, lo + s.grain);
      try {
        for (std::size_t i = lo; i < hi; ++i) s.body(i);
      } catch (...) {
        const std::lock_guard lock(s.error_mutex);
        if (!s.first_error) s.first_error = std::current_exception();
      }
      if (s.completed.fetch_add(1) + 1 == s.chunks) s.done.set_value();
    }
  };

  const std::size_t runners = std::min(chunks, pool->size());
  for (std::size_t runner = 0; runner < runners; ++runner) {
    pool->push([state, run_claimed_chunks] { run_claimed_chunks(*state); });
  }
  run_claimed_chunks(*state);
  // Completion is tracked through state->done, not through the runners: a
  // runner queued behind other loops' runners must not delay the return
  // once every chunk has finished elsewhere.
  state->done.get_future().wait();
  // Take the error out of the shared state, so the exception is released on
  // this thread. A runner that has not run yet may drop the state last, and
  // ThreadSanitizer cannot see the atomic reference count inside the
  // uninstrumented libstdc++: a release on that runner's thread would read
  // as a race with the caller's handler.
  if (std::exception_ptr error = std::exchange(state->first_error, nullptr))
    std::rethrow_exception(error);
}

}  // namespace p2pvod::util
