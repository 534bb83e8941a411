#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mmr {
namespace {

TEST(ThreadPool, ReusedPoolRunsEveryIndexOfEveryCall) {
  // One pool serves many ranges in turn (a streaming service calls it
  // every epoch), including empty ones and ranges shorter than the pool.
  ThreadPool pool(4);
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 200u, 0u, 2u, 64u}) {
    std::vector<int> hits(n, 0);
    pool.parallel_for(n, [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << n << ":" << i;
  }
}

TEST(ThreadPool, ZeroThreadsMeansHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_jobs());
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  const std::size_t n = 500;
  std::vector<int> hits(n, 0);
  pool.parallel_for(n, [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 7) throw std::invalid_argument("seven");
      if (i == 31) throw std::runtime_error("thirty-one");
      ++completed;
    });
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "seven");
  }
  // Every non-throwing iteration still ran.
  EXPECT_EQ(completed.load(), 62);
  // The pool survives a throwing range, and the next call starts clean.
  std::atomic<int> after{0};
  pool.parallel_for(16, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 16);
}

TEST(ThreadPool, ConcurrentSubmissionStress) {
  // Several threads share one pool; their ranges run one after another.
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 8; ++p) {
    producers.emplace_back([&pool, &sum, p] {
      for (int round = 0; round < 5; ++round) {
        pool.parallel_for(50, [&sum, p, round](std::size_t i) {
          sum += p * 1000 + round * 50 + static_cast<long>(i);
        });
      }
    });
  }
  for (auto& t : producers) t.join();
  long expected = 0;
  for (int p = 0; p < 8; ++p) {
    for (int i = 0; i < 250; ++i) expected += p * 1000 + i;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, IdleWorkersClaimIndicesPastABlockedOne) {
  // Index 0 blocks until every other index has run; with 4 workers the
  // other 3 must claim all 40 of them or this test times out.
  ThreadPool pool(4);
  std::atomic<int> fast_done{0};
  pool.parallel_for(41, [&fast_done](std::size_t i) {
    if (i != 0) {
      ++fast_done;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fast_done.load() < 40 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(fast_done.load(), 40);
  });
  EXPECT_EQ(fast_done.load(), 40);
}

}  // namespace
}  // namespace mmr
