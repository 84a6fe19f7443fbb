// Concurrency stress tests for the work-stealing executor: task floods,
// nested submission from workers, exception propagation through futures,
// steal-path correctness under contention, and helping waits.
//
// These tests are the ones the TSan CI job (P2PVOD_SANITIZE=thread) runs:
// they are written to maximize cross-thread interleavings (many more tasks
// than workers, submitters racing workers, gates forcing queues to fill)
// rather than to measure anything.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace u = p2pvod::util;

namespace {

/// Blocks pool workers until release() — lets a test queue work behind a
/// running task so pop/steal behaviour becomes observable.
class Gate {
 public:
  void release() {
    {
      const std::lock_guard lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Submit a gate-wait blocker and don't return until a worker has actually
/// started executing it: tests that rely on "the worker is busy, the queue
/// is backed up" would otherwise race task pickup (and a test thread helping
/// via try_run_one() could even steal the blocker and deadlock on its own
/// gate).
std::future<void> submit_started_blocker(u::ThreadPool& pool, Gate& gate) {
  // shared_ptr because submit() takes a (copyable) std::function.
  auto started = std::make_shared<std::promise<void>>();
  auto running = started->get_future();
  auto blocker = pool.submit([&gate, started] {
    started->set_value();
    gate.wait();
  });
  running.get();
  return blocker;
}

}  // namespace

TEST(Concurrency, ThousandsOfTasksAllRunExactlyOnce) {
  u::ThreadPool pool(4);
  constexpr std::size_t kTasks = 3000;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([&runs, i] { runs[i].fetch_add(1); }));
  }
  for (auto& future : futures) future.get();
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(Concurrency, NestedSubmitFromWorkersCompletes) {
  // Outer tasks submit inner tasks and block on them with the helping
  // wait(). Must complete at any pool size — including 1, where the lone
  // worker has to execute its own nested submissions while "waiting".
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    u::ThreadPool pool(threads);
    std::atomic<int> inner_runs{0};
    std::vector<std::future<void>> outer;
    for (int i = 0; i < 16; ++i) {
      outer.push_back(pool.submit([&pool, &inner_runs] {
        EXPECT_TRUE(pool.on_worker_thread());
        std::vector<std::future<void>> inner;
        for (int j = 0; j < 8; ++j) {
          inner.push_back(pool.submit([&inner_runs] { ++inner_runs; }));
        }
        for (auto& future : inner) pool.wait(future);
      }));
    }
    for (auto& future : outer) future.get();
    EXPECT_EQ(inner_runs.load(), 16 * 8) << "threads=" << threads;
  }
}

TEST(Concurrency, ExceptionsPropagateThroughFutures) {
  u::ThreadPool pool(2);
  auto throwing = pool.submit(
      [] { throw std::runtime_error("boom from worker"); });
  EXPECT_THROW(
      {
        try {
          throwing.get();
        } catch (const std::runtime_error& error) {
          EXPECT_STREQ(error.what(), "boom from worker");
          throw;
        }
      },
      std::runtime_error);

  // The pool survives a throwing task: later tasks still run.
  std::atomic<int> after{0};
  auto ok = pool.submit([&after] { ++after; });
  ok.get();
  EXPECT_EQ(after.load(), 1);

  // parallel_for drains every chunk before rethrowing the first error, even
  // when several chunks throw on different workers. Chunk boundaries are
  // static: grain 4 over [0, 64) with throws at multiples of 8 means every
  // even chunk visits exactly its first index before throwing (1 each) and
  // every odd chunk completes (4 each) — 8*1 + 8*4 = 40 visits, no more, no
  // less, and none after parallel_for returns.
  std::atomic<int> visited{0};
  EXPECT_THROW(
      u::parallel_for(
          0, 64,
          [&visited](std::size_t i) {
            ++visited;
            if (i % 8 == 0) throw std::invalid_argument("chunk error");
          },
          &pool, /*grain=*/4),
      std::invalid_argument);
  const int at_return = visited.load();
  EXPECT_EQ(at_return, 40);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(visited.load(), at_return) << "chunk still ran after the rethrow";
}

TEST(Concurrency, StealPathCoversWorkerLocalBacklog) {
  // One worker builds a large local backlog (nested submits go to its own
  // deque) while it stays busy; the other workers must steal the backlog.
  // Every task runs exactly once and at least one steal must have happened
  // for the producer's work to finish this fast... correctness is what we
  // assert: exactly-once execution and no lost tasks.
  u::ThreadPool pool(4);
  constexpr std::size_t kTasks = 2000;
  std::vector<std::atomic<int>> runs(kTasks);
  Gate gate;

  std::vector<std::future<void>> nested(kTasks);
  auto producer = pool.submit([&pool, &runs, &nested, &gate] {
    for (std::size_t i = 0; i < kTasks; ++i) {
      nested[i] = pool.submit([&runs, i] { runs[i].fetch_add(1); });
    }
    gate.release();
    // Keep the producer busy so thieves (not the local LIFO pop) get a
    // chance at most of the backlog.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  producer.get();
  gate.wait();
  for (auto& future : nested) future.get();
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(Concurrency, ExternalSubmittersRaceWorkers) {
  // Several plain std::threads hammer submit() concurrently; round-robin
  // distribution plus stealing must neither lose nor duplicate tasks.
  u::ThreadPool pool(3);
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 500;
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  std::mutex futures_mutex;
  std::vector<std::future<void>> futures;
  futures.reserve(kSubmitters * kPerSubmitter);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &total, &futures, &futures_mutex] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        auto future = pool.submit([&total] { ++total; });
        const std::lock_guard lock(futures_mutex);
        futures.push_back(std::move(future));
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  for (auto& future : futures) future.get();
  EXPECT_EQ(total.load(), kSubmitters * kPerSubmitter);
}

TEST(Concurrency, TryRunOneHelpsFromNonWorkerThreads) {
  // A gated pool cannot make progress on its own; the main thread drains the
  // backlog through try_run_one() steals.
  u::ThreadPool pool(1);
  Gate gate;
  auto blocker = submit_started_blocker(pool, gate);
  std::atomic<int> runs{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&runs] { ++runs; }));
  }
  EXPECT_FALSE(pool.on_worker_thread());
  while (runs.load() < 32) {
    if (!pool.try_run_one()) std::this_thread::yield();
  }
  EXPECT_EQ(runs.load(), 32);
  gate.release();
  blocker.get();
  for (auto& future : futures) future.get();
  // Nothing left: try_run_one reports idle.
  EXPECT_FALSE(pool.try_run_one());
}

TEST(Concurrency, DestructorDrainsQueuedTasks) {
  // Same contract as the old single-queue pool: every submitted future
  // completes even when the pool is destroyed immediately after submission.
  std::atomic<int> runs{0};
  std::vector<std::future<void>> futures;
  {
    u::ThreadPool pool(2);
    for (int i = 0; i < 256; ++i) {
      futures.push_back(pool.submit([&runs] { ++runs; }));
    }
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(runs.load(), 256);
}

TEST(Concurrency, CurrentPoolIdentifiesOwningPoolOnly) {
  u::ThreadPool pool_a(2);
  u::ThreadPool pool_b(2);
  auto in_a = pool_a.submit([&pool_a, &pool_b] {
    EXPECT_TRUE(pool_a.on_worker_thread());
    EXPECT_FALSE(pool_b.on_worker_thread());
  });
  in_a.get();
}

TEST(Concurrency, PoolStatsCountEveryTaskExactlyOnce) {
  // The accounting identity: every task leaves a queue through exactly one of
  // pop-local or steal, so after a full drain submitted == executed_local +
  // executed_stolen, with the local/stolen split free to vary run to run.
  u::ThreadPool pool(4);
  constexpr std::size_t kTasks = 2000;
  std::atomic<std::size_t> runs{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([&runs] { runs.fetch_add(1); }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(runs.load(), kTasks);

  const u::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, kTasks);
  EXPECT_EQ(stats.executed_local + stats.executed_stolen, kTasks);
  EXPECT_EQ(stats.executed(), kTasks);
  // No try_run_one()/wait() in this test: nothing ran via helping.
  EXPECT_EQ(stats.helping_runs, 0u);
  ASSERT_EQ(stats.per_worker_executed.size(), pool.size());
  std::uint64_t on_workers = 0;
  for (const std::uint64_t executed : stats.per_worker_executed) {
    on_workers += executed;
  }
  // Every execution happened on a worker thread (the main thread only
  // blocked on futures).
  EXPECT_EQ(on_workers, kTasks);
}

TEST(Concurrency, PoolStatsAttributeHelpingRunsToTheIdentity) {
  // Block both workers, drain the backlog from the main thread: helping runs
  // are counted separately but the dequeued tasks still land in the
  // local/stolen split, so the exactly-once identity keeps holding.
  u::ThreadPool pool(2);
  Gate gate;
  auto blocker_a = submit_started_blocker(pool, gate);
  auto blocker_b = submit_started_blocker(pool, gate);
  constexpr std::size_t kTasks = 64;
  std::atomic<std::size_t> runs{0};
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([&runs] { runs.fetch_add(1); }));
  }
  while (runs.load() < kTasks) {
    if (!pool.try_run_one()) std::this_thread::yield();
  }
  gate.release();
  blocker_a.get();
  blocker_b.get();
  for (auto& future : futures) future.get();

  const u::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, kTasks + 2);
  EXPECT_EQ(stats.executed(), kTasks + 2);
  // Workers were gated, so the main thread ran the entire backlog.
  EXPECT_EQ(stats.helping_runs, kTasks);
  std::uint64_t on_workers = 0;
  for (const std::uint64_t executed : stats.per_worker_executed) {
    on_workers += executed;
  }
  // Only the two blockers actually ran on worker threads.
  EXPECT_EQ(on_workers, 2u);
}

TEST(Concurrency, ParallelForUnderContentionIsExactlyOnce) {
  // Two concurrent parallel_for calls from different external threads over
  // the same pool: chunks interleave arbitrarily but each index of each
  // range must be visited exactly once.
  u::ThreadPool pool(4);
  constexpr std::size_t kCount = 4096;
  std::vector<std::atomic<int>> hits_a(kCount);
  std::vector<std::atomic<int>> hits_b(kCount);
  std::thread other([&pool, &hits_b] {
    u::parallel_for(
        0, kCount, [&hits_b](std::size_t i) { hits_b[i].fetch_add(1); }, &pool,
        /*grain=*/16);
  });
  u::parallel_for(
      0, kCount, [&hits_a](std::size_t i) { hits_a[i].fetch_add(1); }, &pool,
      /*grain=*/16);
  other.join();
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits_a[i].load(), 1) << i;
    ASSERT_EQ(hits_b[i].load(), 1) << i;
  }
}
