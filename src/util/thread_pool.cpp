#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace larp {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

bool ThreadPool::stopped() const {
  std::lock_guard lock(mutex_);
  return stopping_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t chunks = std::min(total, std::max<std::size_t>(1, size() * 4));
  const std::size_t chunk_size = (total + chunks - 1) / chunks;
  // Ceil-division twice over: `chunks * chunk_size` can overshoot `total`,
  // leaving trailing chunks with lo >= end.  Those carry no iterations but
  // would still burn a submit slot (and a queue wakeup) each — skip them by
  // submitting only the chunks that contain work.
  const std::size_t used_chunks = (total + chunk_size - 1) / chunk_size;

  // `remaining` is guarded by done_mutex, and the last job notifies while
  // still holding it: the caller cannot observe zero (and destroy this
  // frame's mutex and condition variable) until that job has unlocked and
  // touches nothing here again.
  std::size_t remaining = used_chunks;
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  // Shutdown safety: if submit() throws mid-loop (pool shut down
  // concurrently), the already-submitted jobs still reference this frame's
  // locals — so never leave before `remaining` reaches zero.  The
  // unsubmitted chunks are credited below and the submit error is rethrown
  // only after the in-flight jobs have drained.
  std::exception_ptr submit_error;
  for (std::size_t c = 0; c < used_chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    try {
      // Fire-and-forget job; completion is tracked via `remaining`.
      (void)submit([&, lo, hi] {
        try {
          for (std::size_t i = lo; i < hi; ++i) fn(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        std::lock_guard lock(done_mutex);
        if (--remaining == 0) done_cv.notify_all();
      });
    } catch (...) {
      submit_error = std::current_exception();
      std::lock_guard lock(done_mutex);
      remaining -= used_chunks - c;
      break;
    }
  }

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  lock.unlock();
  if (submit_error) std::rethrow_exception(submit_error);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace larp
