#ifndef DMTL_COMMON_THREAD_POOL_H_
#define DMTL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace dmtl {

// A fixed-size pool of worker threads driving index-addressed task batches.
//
// The pool hosts the fleet's work-stealing scheduler (one task per
// scheduler worker): parallelism is across sessions, and every engine run
// itself is sequential. ParallelFor reports outcomes by task index, never
// by completion order, so a failure is attributed the same way on every
// run:
//
//   - every task's Status is collected; the first non-OK Status *by task
//     index* is returned (not the first to fail in wall-clock order);
//   - an exception escaping a task is captured and rethrown on the calling
//     thread, again picking the lowest-index one. Remaining tasks still
//     run to completion either way - a batch is all-or-nothing observable.
//
// The calling thread participates in the batch, so ThreadPool(1) degrades
// to a plain sequential loop with zero thread traffic, and the pool is
// reusable across any number of ParallelFor batches (one batch at a time;
// ParallelFor itself is not reentrant).
class ThreadPool {
 public:
  // Total worker count *including* the calling thread: N threads means
  // N-1 background workers. num_threads < 1 is clamped to 1.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size() + 1; }

  // Maps a FleetOptions-style request to a concrete thread count:
  // 0 (or negative) selects std::thread::hardware_concurrency(), any
  // positive value is taken as-is. Always returns >= 1.
  static size_t ResolveThreads(int requested);

  using TaskFn = std::function<Status(size_t task_index)>;

  // Runs fn(0) ... fn(num_tasks - 1) across the pool (calling thread
  // included) and blocks until every task finished. See the class comment
  // for the deterministic error contract.
  Status ParallelFor(size_t num_tasks, const TaskFn& fn);

 private:
  void WorkerLoop();
  // Claims and runs tasks of the batch published as `epoch` until none are
  // left; shared by workers and the calling thread.
  void RunTasks(size_t epoch);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a new batch is published
  std::condition_variable done_cv_;  // caller: all tasks of the batch done
  bool shutdown_ = false;

  // State of the currently published batch; written by ParallelFor under
  // mu_, read by workers after the cv wait (which synchronizes).
  const TaskFn* fn_ = nullptr;
  size_t batch_epoch_ = 0;
  size_t num_tasks_ = 0;
  size_t tasks_done_ = 0;
  std::vector<Status>* statuses_ = nullptr;
  std::vector<std::exception_ptr>* exceptions_ = nullptr;
  size_t next_task_ = 0;
};

}  // namespace dmtl

#endif  // DMTL_COMMON_THREAD_POOL_H_
