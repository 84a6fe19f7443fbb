// Concurrency stress tests for the fork-join executor behind parallel_for:
// index floods, drain-then-rethrow, concurrent and nested loops, shutdown
// with runners still queued, and the pool's runner accounting.
//
// These tests are the ones the TSan CI job (P2PVOD_SANITIZE=thread) runs:
// they are written to maximize cross-thread interleavings (many more chunks
// than workers, loops racing each other, gates holding workers busy while
// runners queue) rather than to measure anything.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace u = p2pvod::util;

namespace {

/// Blocks the threads that call wait() until release() — lets a test hold
/// workers inside a loop's chunks while other loops queue runners.
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

}  // namespace

TEST(Concurrency, ThousandsOfTasksAllRunExactlyOnce) {
  // Grain 1: every index is its own chunk, claimed by four runners and the
  // caller from one counter.
  u::ThreadPool pool(4);
  constexpr std::size_t kTasks = 3000;
  std::vector<std::atomic<int>> runs(kTasks);
  u::parallel_for(
      0, kTasks, [&runs](std::size_t i) { runs[i].fetch_add(1); }, &pool,
      /*grain=*/1);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(Concurrency, LoopExceptionsDrainThenRethrow) {
  u::ThreadPool pool(2);
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

  // The caller sees the exception a chunk threw, whichever thread ran it.
  EXPECT_THROW(
      {
        try {
          u::parallel_for(
              0, 8,
              [](std::size_t i) {
                if (i == 5) throw std::runtime_error("boom from index 5");
              },
              &pool, /*grain=*/1);
        } catch (const std::runtime_error& error) {
          EXPECT_STREQ(error.what(), "boom from index 5");
          throw;
        }
      },
      std::runtime_error);

  // The pool survives throwing loops: a later loop runs every index.
  std::vector<std::atomic<int>> hits(64);
  u::parallel_for(
      0, 64, [&hits](std::size_t i) { hits[i].fetch_add(1); }, &pool,
      /*grain=*/4);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
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

TEST(Concurrency, NestedLoopsRunOnTheClaimingThread) {
  // A loop started inside another loop's chunk, on the same pool or on
  // another, runs serially on the thread that claimed the outer chunk and
  // queues no runner.
  u::ThreadPool pool(4);
  u::ThreadPool other(2);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 8;
  std::atomic<int> inner_runs{0};
  std::atomic<int> off_thread{0};
  u::parallel_for(
      0, kOuter,
      [&](std::size_t) {
        const std::thread::id claimer = std::this_thread::get_id();
        const auto inner = [&](std::size_t) {
          ++inner_runs;
          if (std::this_thread::get_id() != claimer) ++off_thread;
        };
        u::parallel_for(0, kInner, inner, &pool, /*grain=*/1);
        u::parallel_for(0, kInner, inner, &other, /*grain=*/1);
      },
      &pool, /*grain=*/1);
  EXPECT_EQ(inner_runs.load(), static_cast<int>(2 * kOuter * kInner));
  EXPECT_EQ(off_thread.load(), 0);
  // Only the outer loop queued runners.
  EXPECT_EQ(pool.stats().submitted, pool.size());
  EXPECT_EQ(other.stats().submitted, 0u);
}

TEST(Concurrency, DestructorDrainsQueuedTasks) {
  // A loop can finish on its caller while its runners still sit in the
  // queue; the pool's destructor runs them (each finds no chunk left and
  // drops the loop's state) before joining the workers. Both workers are
  // held inside a gated loop while more loops queue runners behind them,
  // and the gate opens only after the destructor has begun.
  constexpr std::size_t kLoops = 8;
  constexpr std::size_t kCount = 64;
  Gate gate;
  std::atomic<int> blocked{0};
  std::vector<std::atomic<int>> hits(kLoops * kCount);
  std::thread holder;
  std::thread opener;
  {
    u::ThreadPool pool(2);
    holder = std::thread([&pool, &gate, &blocked] {
      u::parallel_for(
          0, 3,
          [&gate, &blocked](std::size_t) {
            blocked.fetch_add(1);
            gate.wait();
          },
          &pool, /*grain=*/1);
    });
    // Three chunks, each held by the thread that claimed it: the holder and
    // both workers. The holder touches the pool no more after this.
    while (blocked.load() < 3) std::this_thread::yield();
    for (std::size_t loop = 0; loop < kLoops; ++loop) {
      u::parallel_for(
          0, kCount,
          [&hits, loop](std::size_t i) {
            hits[loop * kCount + i].fetch_add(1);
          },
          &pool, /*grain=*/1);
    }
    const u::PoolStats stats = pool.stats();
    EXPECT_EQ(stats.submitted, 2 + 2 * kLoops);
    EXPECT_EQ(stats.executed(), 0u);
    opener = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      gate.release();
    });
  }
  opener.join();
  holder.join();
  EXPECT_EQ(blocked.load(), 3);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(Concurrency, PoolStatsCountEveryTaskExactlyOnce) {
  // Each parallel loop queues min(chunks, workers) runners, counted once
  // when queued and once when a worker has run them; serial fallbacks queue
  // none. A runner may run after its loop returned, so the finished count
  // catches up once the queue is idle.
  u::ThreadPool pool(4);
  struct Loop {
    std::size_t count;
    std::size_t grain;
    std::uint64_t runners;
  };
  const Loop loops[] = {
      {3000, 1, 4},  // chunks >> workers
      {2, 1, 2},     // fewer chunks than workers
      {64, 0, 4},    // default grain: 16 chunks
      {1, 1, 0},     // one index: serial
      {10, 10, 0},   // one chunk: serial
  };
  std::uint64_t expected = 0;
  for (const Loop& loop : loops) {
    std::atomic<std::size_t> runs{0};
    u::parallel_for(
        0, loop.count, [&runs](std::size_t) { runs.fetch_add(1); }, &pool,
        loop.grain);
    EXPECT_EQ(runs.load(), loop.count);
    expected += loop.runners;
    EXPECT_EQ(pool.stats().submitted, expected) << "count=" << loop.count;
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pool.stats().executed() < expected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const u::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, expected);
  EXPECT_EQ(stats.executed(), expected);
  EXPECT_EQ(stats.executed_stolen, 0u);
}
