/// \file thread_pool.h
/// \brief Reusable work-stealing thread pool shared by a node's parallel
/// executor and pre-verifier (`RunOnWorkers`) and its background LSM
/// compactions (`Submit`); replaces the per-block
/// `std::vector<std::thread>` spawns.
///
/// Each worker owns a deque: the owner pops from the front, idle workers
/// steal from the back of their neighbours. Submissions round-robin
/// across the deques so independent long-running tasks (a compaction)
/// spread out while short helper tasks stay stealable.
///
/// Deadlock freedom: `RunOnWorkers` always runs the function inline on
/// the calling thread in addition to the pool helpers, and only waits
/// for helpers that actually *started*. A fully saturated pool therefore
/// degrades to inline execution instead of blocking — safe to call from
/// inside a pool task.

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace confide {

class ThreadPool {
 public:
  /// \brief Starts `workers` threads (at least 1).
  explicit ThreadPool(uint32_t workers);

  /// \brief Drains every queued task, then joins the workers. Work
  /// submitted before destruction is guaranteed to run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues `fn`; the future completes when it ran (and carries
  /// any exception it threw).
  std::future<void> Submit(std::function<void()> fn);

  /// \brief Runs `fn` on up to `helpers` pool workers *and* inline on the
  /// calling thread; returns when the inline run and every helper that
  /// started have finished. Helpers that never got a worker are cancelled.
  /// The first exception thrown (inline run preferred) is rethrown.
  void RunOnWorkers(uint32_t helpers, const std::function<void()>& fn);

  uint32_t worker_count() const { return uint32_t(workers_.size()); }

 private:
  struct WorkQueue {
    std::mutex mu;
    std::deque<std::packaged_task<void()>> tasks;
  };

  void WorkerLoop(size_t self);
  /// \brief Pops own front or steals a neighbour's back; runs one task.
  bool TryRunOne(size_t self);

  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<size_t> next_queue_{0};
  std::atomic<size_t> pending_{0};  ///< queued, not yet popped
  bool stopping_ = false;           ///< guarded by wake_mu_
};

}  // namespace confide
