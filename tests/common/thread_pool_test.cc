#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace dmtl {
namespace {

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
  EXPECT_GE(ThreadPool::ResolveThreads(-3), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(7), 7u);
}

TEST(ThreadPoolTest, NumThreadsIncludesCaller) {
  ThreadPool one(1);
  EXPECT_EQ(one.num_threads(), 1u);
  ThreadPool four(4);
  EXPECT_EQ(four.num_threads(), 4u);
}

TEST(ThreadPoolTest, ResultsLandAtTaskIndex) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 200;
  std::vector<size_t> out(kTasks, 0);
  Status status = pool.ParallelFor(kTasks, [&](size_t i) -> Status {
    out[i] = i * i;
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok()) << status;
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(out[i], i * i) << "task " << i;
  }
}

TEST(ThreadPoolTest, SequentialPoolRunsInline) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  Status status = pool.ParallelFor(8, [&](size_t i) -> Status {
    seen[i] = std::this_thread::get_id();
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok());
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, FirstErrorByTaskIndexWins) {
  ThreadPool pool(4);
  // Task 7 usually *finishes* before task 3 on some interleavings; the
  // contract picks the error with the lowest index regardless.
  Status status = pool.ParallelFor(10, [&](size_t i) -> Status {
    if (i == 3) return Status::EvalError("task three");
    if (i == 7) return Status::Internal("task seven");
    return Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kEvalError);
  EXPECT_EQ(status.message(), "task three");
}

TEST(ThreadPoolTest, AllTasksRunDespiteErrors) {
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  Status status = pool.ParallelFor(64, [&](size_t i) -> Status {
    ++executed;
    return i % 2 == 0 ? Status::EvalError("even") : Status::Ok();
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(executed.load(), 64u);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  auto run = [&] {
    (void)pool.ParallelFor(16, [&](size_t i) -> Status {
      ++executed;
      if (i == 2) throw std::runtime_error("task two blew up");
      if (i == 9) throw std::logic_error("task nine blew up");
      return Status::Ok();
    });
  };
  // The lowest-index exception is the one rethrown.
  EXPECT_THROW(run(), std::runtime_error);
  EXPECT_EQ(executed.load(), 16u);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<int> out(batch + 1, -1);
    Status status = pool.ParallelFor(out.size(), [&](size_t i) -> Status {
      out[i] = batch;
      return Status::Ok();
    });
    ASSERT_TRUE(status.ok());
    for (int v : out) EXPECT_EQ(v, batch);
  }
}

TEST(ThreadPoolTest, ReusableAfterThrowingBatch) {
  ThreadPool pool(3);
  EXPECT_THROW((void)pool.ParallelFor(8,
                                      [&](size_t i) -> Status {
                                        if (i == 5) {
                                          throw std::runtime_error("boom");
                                        }
                                        return Status::Ok();
                                      }),
               std::runtime_error);
  // The pool must come back healthy: full batch, every result lands.
  std::vector<int> out(16, -1);
  Status status = pool.ParallelFor(out.size(), [&](size_t i) -> Status {
    out[i] = static_cast<int>(i);
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok()) << status;
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ThreadPoolTest, ReusableAfterFailingBatch) {
  ThreadPool pool(3);
  Status failed = pool.ParallelFor(8, [&](size_t i) -> Status {
    return i == 2 ? Status::EvalError("bad task") : Status::Ok();
  });
  ASSERT_FALSE(failed.ok());
  std::atomic<size_t> executed{0};
  Status status = pool.ParallelFor(32, [&](size_t) -> Status {
    ++executed;
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(executed.load(), 32u);
}

TEST(ThreadPoolTest, TasksActuallyRunConcurrently) {
  // A four-way rendezvous: every task blocks until all four have started,
  // which can only resolve when four threads run tasks at the same time.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  size_t arrived = 0;
  Status status = pool.ParallelFor(4, [&](size_t) -> Status {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return arrived == 4; });
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(arrived, 4u);
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(4);
  size_t calls = 0;
  Status status = pool.ParallelFor(0, [&](size_t) -> Status {
    ++calls;
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 0u);
}

}  // namespace
}  // namespace dmtl
