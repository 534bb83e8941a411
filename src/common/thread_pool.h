// Fixed-size thread pool for trial-level parallelism.
//
// The pool's one operation is parallel_for: persistent workers claim
// indices from one shared atomic counter, so uneven trial durations
// balance dynamically (a worker stuck on a long trial never holds back
// the rest), and a call allocates nothing -- the body is passed by a
// non-owning reference, not packaged per index. The pool makes no
// ordering promises; determinism is the caller's job (see
// sim::SweepRunner, which gives every trial an independent seed-derived
// Rng stream and writes results into index-addressed slots).
#pragma once

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mmr {

class ThreadPool {
 public:
  /// Non-owning reference to a callable `void(std::size_t)`; it refers
  /// to the caller's callable, which outlives the parallel_for call.
  class IndexFn {
   public:
    template <typename F>
      requires(!std::same_as<std::remove_cvref_t<F>, IndexFn> &&
               std::invocable<F&, std::size_t>)
    IndexFn(F&& f)  // NOLINT(google-explicit-constructor)
        : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
          call_([](void* obj, std::size_t i) {
            (*static_cast<std::remove_reference_t<F>*>(obj))(i);
          }) {}

    void operator()(std::size_t i) const { call_(obj_, i); }

   private:
    void* obj_;
    void (*call_)(void*, std::size_t);
  };

  /// Spawn `num_threads` workers; 0 means hardware_jobs().
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Joins the workers (no call is in flight: parallel_for blocks).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run body(i) for every i in [0, n) on the pool's workers and block
  /// until all complete. If any invocation throws, the exception from the
  /// lowest index is rethrown (the remaining iterations still run).
  /// Concurrent calls from several threads run one after another. Must be
  /// called from outside the pool's own workers.
  void parallel_for(std::size_t n, IndexFn body);

  /// Hardware concurrency, clamped to at least 1.
  static std::size_t hardware_jobs();

 private:
  void worker_loop();

  /// Serializes parallel_for calls: the pool runs one index range at a
  /// time.
  std::mutex call_mutex_;
  /// Guards the current range and the workers' bookkeeping below.
  std::mutex mutex_;
  std::condition_variable wake_;  ///< a new range, or stop
  std::condition_variable done_;  ///< the last worker left the range
  const IndexFn* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t generation_ = 0;
  std::size_t busy_ = 0;  ///< workers not yet done with this range
  bool stop_ = false;
  std::exception_ptr error_;  ///< lowest-index exception of the range
  std::size_t error_index_ = 0;
  /// Next unclaimed index of the current range (claimed without mutex_;
  /// reset under it between ranges).
  std::atomic<std::size_t> next_{0};
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace mmr
