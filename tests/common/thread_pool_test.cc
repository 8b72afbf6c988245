#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <utility>
#include <vector>

namespace freshsel {
namespace {

TEST(ThreadPoolTest, SizeIsClampedToAtLeastOne) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.size(), 1u);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4u);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 17u, 100u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ChunkBoundariesDependOnlyOnSizeAndN) {
  // Two runs over the same n must produce the same partition - the
  // determinism guarantee the selection layer builds on.
  ThreadPool pool(3);
  auto partition = [&](std::size_t n) {
    Mutex mutex;
    std::set<std::pair<std::size_t, std::size_t>> chunks;
    pool.ParallelFor(n, [&](std::size_t begin, std::size_t end) {
      MutexLock lock(mutex);
      chunks.emplace(begin, end);
    });
    return chunks;
  };
  for (std::size_t n : {1u, 7u, 64u, 311u}) {
    const auto first = partition(n);
    const auto second = partition(n);
    EXPECT_EQ(first, second) << "n=" << n;
    // Chunks are contiguous and non-overlapping.
    std::size_t expected_begin = 0;
    for (const auto& [begin, end] : first) {
      EXPECT_EQ(begin, expected_begin) << "n=" << n;
      EXPECT_GT(end, begin) << "n=" << n;
      expected_begin = end;
    }
    EXPECT_EQ(expected_begin, n);
  }
}

TEST(ThreadPoolTest, InlinePoolRunsOnCallingThread) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.ParallelFor(5, [&](std::size_t begin, std::size_t end) {
    (void)begin;
    (void)end;
    seen.push_back(std::this_thread::get_id());
  });
  ASSERT_FALSE(seen.empty());
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  // Hammer the batch handoff: many small ParallelFor calls on one pool.
  // Under FRESHSEL_SANITIZE=thread this exercises the pool's
  // synchronization; a data race in the handoff is a TSan failure here.
  ThreadPool pool(4);
  std::vector<std::int64_t> values(257);
  std::iota(values.begin(), values.end(), 1);
  for (int batch = 0; batch < 500; ++batch) {
    std::vector<std::int64_t> doubled(values.size());
    pool.ParallelFor(values.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        doubled[i] = 2 * values[i];
      }
    });
    std::int64_t total = 0;
    for (std::int64_t v : doubled) total += v;
    EXPECT_EQ(total, 257 * 258);  // 2 * sum(1..257).
  }
}

TEST(ThreadPoolTest, SharedPoolIsUsableSingleton) {
  ThreadPool& shared = ThreadPool::Shared();
  EXPECT_GE(shared.size(), 2u);
  EXPECT_LE(shared.size(), 8u);
  std::atomic<std::size_t> covered{0};
  shared.ParallelFor(100, [&](std::size_t begin, std::size_t end) {
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 100u);
  EXPECT_EQ(&shared, &ThreadPool::Shared());
}

TEST(RunLargestFirstTest, RunsEveryTaskExactlyOnce) {
  for (std::size_t n : {0u, 1u, 2u, 3u, 9u, 44u, 300u}) {
    std::vector<std::uint64_t> sizes(n);
    for (std::size_t i = 0; i < n; ++i) sizes[i] = (i * 7919) % 13;
    std::vector<std::atomic<int>> hits(n);
    RunLargestFirst(sizes, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(RunLargestFirstTest, ResultsByIndexDoNotDependOnSchedule) {
  std::vector<std::uint64_t> sizes = {5, 900, 5, 900, 1, 0, 70};
  std::vector<std::int64_t> expected(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    expected[i] = static_cast<std::int64_t>(sizes[i] * 3 + i);
  }
  for (int repeat = 0; repeat < 50; ++repeat) {
    std::vector<std::int64_t> out(sizes.size(), -1);
    RunLargestFirst(sizes, [&](std::size_t i) {
      out[i] = static_cast<std::int64_t>(sizes[i] * 3 + i);
    });
    EXPECT_EQ(out, expected);
  }
}

TEST(RunLargestFirstTest, ConcurrentCallersUseSeparatePools) {
  // Two coordinators at once (as two daemon connections loading scenarios
  // would be) must each see all of their own tasks run.
  std::atomic<std::size_t> total{0};
  auto caller = [&total] {
    for (int round = 0; round < 20; ++round) {
      RunLargestFirst(std::vector<std::uint64_t>(16, 1), [&](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2u * 20u * 16u);
}

}  // namespace
}  // namespace freshsel
