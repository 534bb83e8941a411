#include "common/thread_pool.h"

#include <utility>

namespace mmr {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = hardware_jobs();
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void ThreadPool::worker_loop() {
  std::size_t seen = 0;
  for (;;) {
    const IndexFn* body = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      n = n_;
    }
    for (std::size_t i = next_.fetch_add(1); i < n; i = next_.fetch_add(1)) {
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_ || i < error_index_) {
          error_ = std::current_exception();
          error_index_ = i;
        }
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_ == 0) done_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n, IndexFn body) {
  if (n == 0) return;
  std::lock_guard<std::mutex> call(call_mutex_);
  std::unique_lock<std::mutex> lock(mutex_);
  body_ = &body;
  n_ = n;
  next_.store(0);
  busy_ = workers_.size();
  ++generation_;
  wake_.notify_all();
  // Every worker checks in before `body` goes out of scope.
  done_.wait(lock, [this] { return busy_ == 0; });
  body_ = nullptr;
  std::exception_ptr error = std::move(error_);
  error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace mmr
