// Tests for the shared execution layer: pool mechanics (parallel_for
// claiming, submit/wait_idle, worker growth, the parallelism sanity cap)
// and the cooperative-task properties the Monte-Carlo sweeps and the
// sharded ingest rely on. These suites run under ThreadSanitizer in CI
// next to the Sharded* and *Sweep suites.
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/exec/task_pool.hpp"

namespace fex = flowrank::exec;

TEST(TaskPool, ParallelForRunsEveryIndexExactlyOnce) {
  fex::TaskPool pool(3);
  // count == 0 is the empty job: a no-op that must not call fn at all.
  for (std::size_t count : {0u, 257u}) {
    for (std::size_t parallelism : {1u, 2u, 4u, 7u}) {
      std::vector<std::atomic<int>> hits(257);
      for (auto& h : hits) h.store(0);
      pool.parallel_for(
          count,
          [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
          parallelism);
      for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), i < count ? 1 : 0)
            << "index " << i << " count " << count << " parallelism " << parallelism;
      }
    }
  }
}

TEST(TaskPool, ZeroWorkerPoolRunsEverythingInline) {
  fex::TaskPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  int sum = 0;
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
  bool ran = false;
  pool.submit([&] { ran = true; });  // inline: completes before returning
  EXPECT_TRUE(ran);
  pool.wait_idle();
}

TEST(TaskPool, SubmitTasksAllRunAndWaitIdleBlocksUntilDone) {
  fex::TaskPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 200);
}

TEST(TaskPool, EnsureWorkersGrowsAndNeverShrinks) {
  fex::TaskPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  pool.ensure_workers(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  pool.ensure_workers(2);  // no-op
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(TaskPool, ParallelForExceptionPropagatesAndPoolSurvives) {
  fex::TaskPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(
          100,
          [&](std::size_t i) {
            if (i == 37) throw std::runtime_error("cell 37");
            ran.fetch_add(1, std::memory_order_relaxed);
          },
          4),
      std::runtime_error);
  std::atomic<int> after{0};
  pool.parallel_for(
      16, [&](std::size_t) { after.fetch_add(1, std::memory_order_relaxed); }, 4);
  EXPECT_EQ(after.load(), 16);
}

TEST(TaskPool, ParallelismCapFailsFast) {
  EXPECT_THROW(fex::TaskPool{fex::TaskPool::kMaxParallelism + 1},
               std::invalid_argument);
  EXPECT_THROW(
      (void)fex::TaskPool::resolve_parallelism(fex::TaskPool::kMaxParallelism + 1),
      std::invalid_argument);
  fex::TaskPool pool(1);
  EXPECT_THROW(pool.ensure_workers(fex::TaskPool::kMaxParallelism + 1),
               std::invalid_argument);
  EXPECT_THROW(pool.parallel_for(
                   4, [](std::size_t) {}, fex::TaskPool::kMaxParallelism + 1),
               std::invalid_argument);
  EXPECT_THROW(pool.parallel_for(4, [](std::size_t) {}, 0), std::invalid_argument);
}

TEST(TaskPool, ResolveParallelismZeroMeansHardware) {
  EXPECT_GE(fex::TaskPool::resolve_parallelism(0), 1u);
  EXPECT_EQ(fex::TaskPool::resolve_parallelism(5), 5u);
}

TEST(TaskPool, SharedPoolPersistsAcrossUses) {
  auto& a = fex::TaskPool::shared();
  auto& b = fex::TaskPool::shared();
  EXPECT_EQ(&a, &b);
  a.ensure_workers(2);
  std::atomic<int> ran{0};
  a.parallel_for(
      32, [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); }, 3);
  EXPECT_EQ(ran.load(), 32);
}

TEST(TaskPool, CooperativeTasksInterleaveWithParallelFor) {
  // Streaming tasks (the ingest shape) and a fork-join job (the sweep
  // shape) share the pool without starving each other.
  fex::TaskPool pool(2);
  std::atomic<int> streamed{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] { streamed.fetch_add(1, std::memory_order_relaxed); });
  }
  std::atomic<int> swept{0};
  pool.parallel_for(
      100, [&](std::size_t) { swept.fetch_add(1, std::memory_order_relaxed); }, 3);
  pool.wait_idle();
  EXPECT_EQ(streamed.load(), 50);
  EXPECT_EQ(swept.load(), 100);
}
