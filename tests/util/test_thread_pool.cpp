// Tests for the experiment-sweep thread pool.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace larp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  pool.parallel_for(7, 3, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 37) throw std::logic_error("bad index");
                        }),
      std::logic_error);
}

TEST(ThreadPool, ParallelForSurvivesExceptionAndStaysUsable) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(0, 10, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(0, 50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasksAndIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&] { ++done; }));
  }
  pool.shutdown();
  EXPECT_TRUE(pool.stopped());
  EXPECT_EQ(done.load(), 32);  // queued work ran before the join
  for (auto& f : futures) f.get();
  pool.shutdown();  // second call is a no-op
  EXPECT_TRUE(pool.stopped());
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW((void)pool.submit([] { return 1; }), std::runtime_error);
}

TEST(ThreadPool, ParallelForAfterShutdownThrowsWithoutHanging) {
  ThreadPool pool(2);
  pool.shutdown();
  std::atomic<int> count{0};
  EXPECT_THROW(pool.parallel_for(0, 10, [&](std::size_t) { ++count; }),
               std::runtime_error);
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, ParallelForFewerIterationsThanChunkSlots) {
  // total < size()*4 requested chunks: every index must run exactly once and
  // the call must return (no lost completion credit for skipped slots).
  ThreadPool pool(8);
  for (std::size_t total : {1u, 2u, 3u, 5u, 7u}) {
    std::vector<std::atomic<int>> hits(total);
    pool.parallel_for(0, total, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ParallelForTailChunksPastEnd) {
  // Ceil-division overshoot regression: with 2 workers (8 chunk slots) and
  // 10 iterations, chunk_size is 2, so slots 5..7 start at or past `end`.
  // They used to submit anyway; now they must neither run fn out of range
  // nor deadlock the completion count.  Offsets exercise begin != 0.
  ThreadPool pool(2);
  for (std::size_t begin : {0u, 5u, 123u}) {
    const std::size_t total = 10;
    std::vector<std::atomic<int>> hits(total);
    pool.parallel_for(begin, begin + total, [&](std::size_t i) {
      ASSERT_GE(i, begin);
      ASSERT_LT(i, begin + total);
      hits[i - begin].fetch_add(1);
    });
    for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ManyTinyParallelForsCompleteCleanly) {
  // Completion-handoff regression: the last job of a parallel_for used to
  // publish `remaining == 0` before locking the caller's done_mutex, so the
  // caller could return and destroy that mutex while the job was about to
  // lock it.  Thousands of back-to-back tiny calls keep the caller's frame
  // being torn down and reused while workers finish; sanitizer builds flag
  // the old handoff, plain builds may abort in pthread_mutex_lock.
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  constexpr std::size_t kCalls = 20000;
  for (std::size_t call = 0; call < kCalls; ++call) {
    const std::size_t width = 2 + call % 4;
    pool.parallel_for(0, width, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::size_t want = 0;
  for (std::size_t call = 0; call < kCalls; ++call) want += 2 + call % 4;
  EXPECT_EQ(total.load(), want);
}

TEST(ThreadPool, ParallelForWritesAreVisibleWhenItReturns) {
  // Plain (non-atomic) slots: the caller may read what the workers wrote
  // the moment parallel_for returns — the completion handoff is the only
  // synchronisation, and TSan builds check that it orders the writes.
  ThreadPool pool(4);
  for (std::size_t round = 0; round < 200; ++round) {
    std::vector<std::size_t> out(37, 0);
    pool.parallel_for(0, out.size(), [&](std::size_t i) { out[i] = i + round; });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], i + round) << "round " << round;
    }
  }
}

TEST(ThreadPool, ParallelForFromSeveralCallersAtOnce) {
  // Each caller's completion state lives in its own frame: interleaved
  // chunks from concurrent calls must never credit the wrong caller.
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 3;
  constexpr std::size_t kCalls = 300;
  std::vector<std::size_t> totals(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t call = 0; call < kCalls; ++call) {
        std::vector<std::size_t> hits(5 + c, 0);
        pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = 1; });
        totals[c] += std::accumulate(hits.begin(), hits.end(), std::size_t{0});
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(totals[c], kCalls * (5 + c)) << "caller " << c;
  }
}

TEST(ThreadPool, ParallelForRethrowsOnlyAfterEverySiblingChunkFinished) {
  // 4 workers give 16 chunk slots; 100 iterations make chunks of 7, so index
  // 0 throwing ends chunk [0, 7) early and every other chunk still runs in
  // full before the exception reaches the caller.
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 0) throw std::logic_error("first");
                                   ran.fetch_add(1);
                                 }),
               std::logic_error);
  EXPECT_EQ(ran.load(), 100u - 7u);
}

TEST(ThreadPool, ParallelForOnOneWorkerRunsInIndexOrder) {
  // A single worker drains the FIFO queue chunk by chunk, so the visit
  // order is exactly begin..end.
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(10, 30, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> want(20);
  std::iota(want.begin(), want.end(), std::size_t{10});
  EXPECT_EQ(order, want);
}

TEST(ParallelMap, CollectsResultsInOrder) {
  const auto results = parallel_map(64, [](std::size_t i) {
    return static_cast<int>(i) * 3;
  });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 3);
  }
}

TEST(ParallelMap, SingleElementRunsInline) {
  const auto results = parallel_map(1, [](std::size_t) { return 7; });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 7);
}

TEST(ParallelMap, ZeroElements) {
  const auto results = parallel_map(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(results.empty());
}

TEST(ThreadPool, DeterministicWorkWithSplitRngs) {
  // The canonical usage pattern: per-task private RNG streams make parallel
  // results independent of scheduling.
  const auto run = [] {
    Rng parent(2024);
    return parallel_map(16, [&](std::size_t i) {
      Rng rng = parent.split(i);
      double acc = 0.0;
      for (int j = 0; j < 100; ++j) acc += rng.uniform();
      return acc;
    });
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace larp
