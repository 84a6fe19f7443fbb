#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "util/cli.hpp"

namespace p2pvod::util {

namespace {

// Process-wide mirrors of the per-pool counters, so pool activity shows up
// in the BENCH metrics block without threading pool handles around. Tagged
// kScheduling: steal/help counts depend on thread count and timing by
// nature. Handles resolve once (leaked registry keeps them valid through
// static destruction, which matters here — global() pool workers run late).
obs::Counter& obs_submitted() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "pool/submitted", obs::Stability::kScheduling);
  return counter;
}
obs::Counter& obs_executed_local() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "pool/executed_local", obs::Stability::kScheduling);
  return counter;
}
obs::Counter& obs_executed_stolen() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "pool/executed_stolen", obs::Stability::kScheduling);
  return counter;
}
obs::Counter& obs_helping_runs() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "pool/helping_runs", obs::Stability::kScheduling);
  return counter;
}

// Which pool (if any) owns the current thread, and the worker's own queue
// index within it; set once per worker thread.
thread_local ThreadPool* t_current_pool = nullptr;
thread_local std::size_t t_worker_index = 0;
// Depth of parallel_for chunk-claiming loops on this thread. Non-worker
// callers execute chunks themselves; while they do, they are "inside" the
// parallel region exactly like a pool worker is, and nested parallel
// helpers must degrade to serial the same way.
thread_local int t_parallel_for_depth = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true);
  {
    // Empty critical section: pairs with the recheck workers do under
    // idle_mutex_ before sleeping, so none can miss the shutdown.
    const std::lock_guard lock(idle_mutex_);
  }
  idle_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  Task packaged(std::move(task));
  auto future = packaged.get_future();
  // Workers push to their own deque (LIFO locality for nested submission);
  // external threads spread round-robin so no single deque becomes the old
  // global bottleneck.
  const std::size_t target =
      on_worker_thread()
          ? t_worker_index
          : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                queues_.size();
  stat_submitted_.fetch_add(1, std::memory_order_relaxed);
  obs_submitted().add();
  push(target, std::move(packaged));
  return future;
}

void ThreadPool::push(std::size_t target, Task task) {
  // Bump pending_ BEFORE the task becomes stealable: if a thief popped (and
  // decremented) between publish and a later increment, the unsigned counter
  // would wrap to SIZE_MAX and every idle worker would busy-spin on the
  // "pending but contended" path. Overcounting this way is safe — a worker
  // that sees pending_ > 0 with nothing queued yet just yields and retries.
  pending_.fetch_add(1);
  {
    const std::lock_guard lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  // Wake a sleeper only when one might exist: submitters on a busy pool skip
  // the shared idle_mutex_ entirely, keeping the submit fast path on the
  // per-worker mutexes alone. Workers advertise themselves in sleepers_
  // under idle_mutex_ before rechecking pending_, and both counters are
  // seq_cst, so either this push sees the sleeper (and notifies through the
  // empty critical section, which cannot be lost) or the sleeper's recheck
  // sees this push's pending_ increment and never blocks.
  if (sleepers_.load() > 0) {
    {
      const std::lock_guard lock(idle_mutex_);
    }
    idle_cv_.notify_one();
  }
}

bool ThreadPool::pop_local(std::size_t self, Task& out) {
  WorkerQueue& queue = *queues_[self];
  const std::lock_guard lock(queue.mutex);
  if (queue.tasks.empty()) return false;
  out = std::move(queue.tasks.back());
  queue.tasks.pop_back();
  pending_.fetch_sub(1);
  stat_executed_local_.fetch_add(1, std::memory_order_relaxed);
  obs_executed_local().add();
  return true;
}

bool ThreadPool::steal(std::size_t self, Task& out) {
  const std::size_t count = queues_.size();
  for (std::size_t offset = 1; offset <= count; ++offset) {
    const std::size_t victim = (self + offset) % count;
    if (victim == self) continue;
    WorkerQueue& queue = *queues_[victim];
    const std::unique_lock lock(queue.mutex, std::try_to_lock);
    if (!lock.owns_lock()) continue;  // contended victim: move on
    if (queue.tasks.empty()) continue;
    out = std::move(queue.tasks.front());
    queue.tasks.pop_front();
    pending_.fetch_sub(1);
    stat_executed_stolen_.fetch_add(1, std::memory_order_relaxed);
    obs_executed_stolen().add();
    return true;
  }
  return false;
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_current_pool == this;
}

bool ThreadPool::try_run_one() {
  Task task;
  const bool mine = on_worker_thread();
  // Non-workers pass size() so the steal sweep visits every deque.
  const std::size_t self = mine ? t_worker_index : queues_.size();
  const bool got = (mine && pop_local(self, task)) || steal(self, task);
  if (!got) return false;
  stat_helping_runs_.fetch_add(1, std::memory_order_relaxed);
  obs_helping_runs().add();
  if (mine) queues_[self]->executed.fetch_add(1, std::memory_order_relaxed);
  task();
  return true;
}

void ThreadPool::wait(std::future<void>& future) {
  using namespace std::chrono_literals;
  // Exponential backoff on idle: stay responsive while work is flowing, but
  // escalate toward plain blocking when the awaited task runs long and the
  // queues are empty — otherwise a waiter burns thousands of timed wakeups
  // per second doing nothing. Running a task resets the backoff (fresh work
  // may have arrived while we were busy).
  auto backoff = 200us;
  constexpr auto kMaxBackoff = 10ms;
  while (future.wait_for(0s) != std::future_status::ready) {
    if (try_run_one()) {
      backoff = 200us;
    } else {
      future.wait_for(backoff);
      backoff = std::min<std::chrono::microseconds>(backoff * 2, kMaxBackoff);
    }
  }
}

PoolStats ThreadPool::stats() const {
  PoolStats out;
  out.submitted = stat_submitted_.load(std::memory_order_relaxed);
  out.executed_local = stat_executed_local_.load(std::memory_order_relaxed);
  out.executed_stolen = stat_executed_stolen_.load(std::memory_order_relaxed);
  out.helping_runs = stat_helping_runs_.load(std::memory_order_relaxed);
  out.per_worker_executed.reserve(queues_.size());
  for (const auto& queue : queues_)
    out.per_worker_executed.push_back(
        queue->executed.load(std::memory_order_relaxed));
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

void ThreadPool::worker_loop(std::size_t self) {
  t_current_pool = this;
  t_worker_index = self;
  Task task;
  for (;;) {
    if (pop_local(self, task) || steal(self, task)) {
      queues_[self]->executed.fetch_add(1, std::memory_order_relaxed);
      task();
      task = Task{};
      continue;
    }
    if (pending_.load() > 0) {
      // A task exists but its deque was try_lock-contended (or is mid-push);
      // retry instead of sleeping past it.
      std::this_thread::yield();
      continue;
    }
    {
      std::unique_lock lock(idle_mutex_);
      sleepers_.fetch_add(1);
      idle_cv_.wait(lock, [this] {
        return stopping_.load() || pending_.load() > 0;
      });
      sleepers_.fetch_sub(1);
    }
    // Drain everything queued before shutdown (same contract as the old
    // single-queue pool: submitted futures always complete).
    if (stopping_.load() && pending_.load() == 0) {
      return;
    }
  }
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
  // Serial fallbacks: tiny ranges, serial pools, and nested parallelism —
  // whether the caller is a pool worker or a non-worker thread currently
  // executing another parallel_for's chunks (both are "inside" a parallel
  // region; going parallel again would only add scheduling overhead and
  // make sibling chunks' nested structure nondeterministic).
  if (pool->size() <= 1 || count <= 1 || pool->on_worker_thread() ||
      t_parallel_for_depth > 0) {
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
  // shared claim counter, which load-balances like stealing at chunk
  // granularity. The caller claims chunks alongside `runners` worker tasks
  // instead of executing arbitrary foreign pool tasks while blocked: helping
  // restricted to this loop's own chunks cannot nest unrelated work (stack
  // depth stays the program's logical nesting).
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
    // claiming loop — this covers the originating caller AND any non-worker
    // thread that picks up a runner task through wait()/try_run_one(), so
    // nested parallel helpers degrade to serial on every thread that runs
    // chunks. (Chunk errors are captured below, never thrown, but RAII
    // keeps the depth balanced regardless.)
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
    // Completion is tracked through state->done, not these futures: a
    // runner queued behind long foreign work must not delay the return
    // once every chunk has finished elsewhere.
    (void)pool->submit([state, run_claimed_chunks] {
      run_claimed_chunks(*state);
    });
  }
  run_claimed_chunks(*state);
  state->done.get_future().wait();
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace p2pvod::util
