#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>

#include "common/task_context.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace freshsel {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(threads, 1);
  if (n == 1) return;  // Inline execution; no workers.
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  MutexLock lock(mutex_);
  while (true) {
    while (!shutdown_ && !(has_batch_ && batch_.next < batch_.chunks)) {
      work_cv_.Wait(mutex_);
    }
    if (shutdown_) return;
    RunChunks();
  }
}

void ThreadPool::RunChunks() {
  while (has_batch_ && batch_.next < batch_.chunks) {
    const std::size_t index = batch_.next++;
    const std::size_t begin = index * batch_.chunk;
    const std::size_t end = std::min(begin + batch_.chunk, batch_.n);
    const auto* body = batch_.body;
    const std::uint64_t context = batch_.context;
    mutex_.Unlock();
    {
      // Run the chunk under the scheduling thread's task context so trace
      // spans opened inside attribute to the span that called ParallelFor.
      ScopedTaskContext scoped_context(context);
      (*body)(begin, end);
    }
    mutex_.Lock();
    if (++batch_.done == batch_.chunks) {
      has_batch_ = false;
      done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (threads_.empty()) {
    body(0, n);
    return;
  }
  MutexLock lock(mutex_);
  batch_.body = &body;
  batch_.context = CurrentTaskContext();
  batch_.n = n;
  batch_.chunks = std::min(n, threads_.size() + 1);
  batch_.chunk = (n + batch_.chunks - 1) / batch_.chunks;
  // Recompute: with ceil-sized chunks the last chunk may be empty; derive
  // the true chunk count from the chunk size.
  batch_.chunks = (n + batch_.chunk - 1) / batch_.chunk;
  batch_.next = 0;
  batch_.done = 0;
  has_batch_ = true;
  work_cv_.NotifyAll();
  // The caller helps: claim chunks like a worker, then wait for stragglers.
  RunChunks();
  while (has_batch_) done_cv_.Wait(mutex_);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t n =
        std::min<std::size_t>(8, std::max<std::size_t>(2, hw));
    return new ThreadPool(n);
  }();
  return *pool;
}

void RunLargestFirst(const std::vector<std::uint64_t>& sizes,
                     const std::function<void(std::size_t)>& task) {
  const std::size_t n = sizes.size();
  if (n == 0) return;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&sizes](std::size_t a, std::size_t b) {
                     return sizes[a] > sizes[b];
                   });
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min({hw, std::size_t{8}, n});
  {
    ThreadPool pool(threads);
    std::atomic<std::size_t> next{0};
    // `threads` one-index chunks, so at most `threads` claim loops run
    // (the caller's among them) however the pool's threads pick them up.
    pool.ParallelFor(threads, [&](std::size_t, std::size_t) {
      for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
           k < n; k = next.fetch_add(1, std::memory_order_relaxed)) {
        task(order[k]);
      }
    });
  }
#if defined(__GLIBC__)
  // Each worker allocated from its own malloc arena, and glibc keeps what
  // the tasks freed (line buffers, fit scratch) mapped in those arenas after
  // the threads exit. Without the trim, a daemon serving four BL scenarios
  // peaked 24-31% higher in resident memory than with serial ingest
  // (DESIGN.md §15).
  malloc_trim(0);
#endif
}

}  // namespace freshsel
