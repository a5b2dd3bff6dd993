#include "src/common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "src/common/fault_injector.h"

namespace dmtl {

size_t ThreadPool::ResolveThreads(int requested) {
  if (requested > 0) return static_cast<size_t>(requested);
  size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(hw, 1);
}

ThreadPool::ThreadPool(size_t num_threads) {
  size_t extra = num_threads < 1 ? 0 : num_threads - 1;
  workers_.reserve(extra);
  for (size_t i = 0; i < extra; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  size_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (fn_ != nullptr && batch_epoch_ != seen_epoch);
      });
      if (shutdown_) return;
      seen_epoch = batch_epoch_;
    }
    RunTasks(seen_epoch);
  }
}

void ThreadPool::RunTasks(size_t epoch) {
  for (;;) {
    const TaskFn* fn;
    std::vector<Status>* statuses;
    std::vector<std::exception_ptr>* exceptions;
    size_t i;
    {
      // Claims are mutex-guarded: a worker waking late for a superseded
      // batch sees the epoch mismatch here and backs off instead of racing
      // the next batch's state. Tasks are whole scheduler workers, so one
      // lock round-trip per claim is noise.
      std::lock_guard<std::mutex> lock(mu_);
      if (batch_epoch_ != epoch || fn_ == nullptr) return;
      if (next_task_ >= num_tasks_) return;
      i = next_task_++;
      fn = fn_;
      statuses = statuses_;
      exceptions = exceptions_;
    }
    try {
      Status injected = FaultInjector::Fire("thread_pool.task");
      (*statuses)[i] = injected.ok() ? (*fn)(i) : std::move(injected);
    } catch (...) {
      (*exceptions)[i] = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (++tasks_done_ == num_tasks_) done_cv_.notify_all();
  }
}

Status ThreadPool::ParallelFor(size_t num_tasks, const TaskFn& fn) {
  if (num_tasks == 0) return Status::Ok();

  std::vector<Status> statuses(num_tasks);
  std::vector<std::exception_ptr> exceptions(num_tasks);

  if (workers_.empty() || num_tasks == 1) {
    // No pool traffic needed; run inline with the same error contract.
    for (size_t i = 0; i < num_tasks; ++i) {
      try {
        Status injected = FaultInjector::Fire("thread_pool.task");
        statuses[i] = injected.ok() ? fn(i) : std::move(injected);
      } catch (...) {
        exceptions[i] = std::current_exception();
      }
    }
  } else {
    size_t epoch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      epoch = ++batch_epoch_;
      num_tasks_ = num_tasks;
      tasks_done_ = 0;
      next_task_ = 0;
      statuses_ = &statuses;
      exceptions_ = &exceptions;
    }
    work_cv_.notify_all();
    RunTasks(epoch);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return tasks_done_ == num_tasks_; });
      // Unpublish so a worker that never woke for this batch cannot touch
      // the (stack-allocated) result vectors after we return.
      fn_ = nullptr;
      statuses_ = nullptr;
      exceptions_ = nullptr;
    }
  }

  for (size_t i = 0; i < num_tasks; ++i) {
    if (exceptions[i]) std::rethrow_exception(exceptions[i]);
  }
  for (size_t i = 0; i < num_tasks; ++i) {
    if (!statuses[i].ok()) return statuses[i];
  }
  return Status::Ok();
}

}  // namespace dmtl
