// Copyright 2026 The streambid Authors
// TaskExecutor contract tests: RunAll aligns results positionally and
// surfaces the lowest-index failure, a single worker runs queued tasks
// in FIFO order, and concurrent RunAll callers each get their own
// results back.

#include "cluster/task_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace streambid::cluster {
namespace {

TEST(TaskExecutorTest, RunAllAlignsPositionally) {
  for (int threads : {1, 2, 8}) {
    TaskExecutor executor(ExecutorOptions{threads});
    std::vector<TaskExecutor::Task<int>> tasks;
    for (int i = 0; i < 20; ++i) {
      tasks.push_back([i]() -> Result<int> { return i * i; });
    }
    const Result<std::vector<int>> results =
        executor.RunAll(std::move(tasks));
    ASSERT_TRUE(results.ok()) << threads << " threads";
    ASSERT_EQ(results->size(), 20u);
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ((*results)[static_cast<size_t>(i)], i * i) << i;
    }
  }
}

TEST(TaskExecutorTest, RunAllEmptyBatchIsEmpty) {
  TaskExecutor executor(ExecutorOptions{2});
  const Result<std::vector<int>> results = executor.RunAll<int>({});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(TaskExecutorTest, RunAllReportsLowestIndexFailure) {
  TaskExecutor executor(ExecutorOptions{4});
  std::atomic<int> executed{0};
  std::vector<TaskExecutor::Task<int>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i, &executed]() -> Result<int> {
      ++executed;
      if (i == 2) return Status::Internal("boom at 2");
      if (i == 5) return Status::InvalidArgument("boom at 5");
      return i;
    });
  }
  const Result<std::vector<int>> results =
      executor.RunAll(std::move(tasks));
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInternal);
  EXPECT_EQ(results.status().message(), "boom at 2");
  // All tasks still ran; failure reporting does not cancel the batch.
  EXPECT_EQ(executed.load(), 8);
  const ExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.executed, 8);
  EXPECT_EQ(stats.failed, 2);
}

TEST(TaskExecutorTest, ClosureErrorPropagatesThroughTicket) {
  // A closure's own error Result comes back to the caller unchanged,
  // counts as one failed task, and leaves the pool serving.
  TaskExecutor executor(ExecutorOptions{1});
  std::vector<TaskExecutor::Task<int>> failing;
  failing.push_back([]() -> Result<int> {
    return Status::OutOfRange("task failed");
  });
  const Result<std::vector<int>> result =
      executor.RunAll(std::move(failing));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(result.status().message(), "task failed");
  ExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.executed, 1);

  std::vector<TaskExecutor::Task<int>> next;
  next.push_back([]() -> Result<int> { return 7; });
  const Result<std::vector<int>> after = executor.RunAll(std::move(next));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, std::vector<int>{7});
  stats = executor.StatsReport();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.executed, 2);
}

/// Parks a worker on a latch so the queue state is fully deterministic:
/// one running task, everything submitted after it queued.
struct Latch {
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;

  void WaitStarted() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return started; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
  }
};

TEST(TaskExecutorTest, StatsTrackWorkersAndQueueHighWater) {
  TaskExecutor executor(ExecutorOptions{2});
  std::vector<TaskExecutor::Task<int>> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back([i]() -> Result<int> { return i; });
  }
  ASSERT_TRUE(executor.RunAll(std::move(tasks)).ok());

  const ExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.submitted, 30);
  EXPECT_EQ(stats.executed, 30);
  EXPECT_EQ(stats.failed, 0);
  ASSERT_EQ(stats.tasks_per_worker.size(), 2u);
  // Every task is accounted to one of the two pool workers — work
  // cannot land anywhere else.
  EXPECT_EQ(std::accumulate(stats.tasks_per_worker.begin(),
                            stats.tasks_per_worker.end(), int64_t{0}),
            30);
  EXPECT_GE(stats.queue_high_water, 1);
  EXPECT_LE(stats.queue_high_water, 30);
}

/// Runs `count` tasks starting at `first` as one RunAll from a new
/// thread; each task appends its value to `order`.
std::thread RunAllInBackground(TaskExecutor& executor, int first,
                               int count, std::vector<int>& order) {
  return std::thread([&executor, first, count, &order] {
    std::vector<TaskExecutor::Task<int>> tasks;
    for (int i = first; i < first + count; ++i) {
      tasks.push_back([&order, i]() -> Result<int> {
        order.push_back(i);
        return i;
      });
    }
    ASSERT_TRUE(executor.RunAll(std::move(tasks)).ok());
  });
}

void WaitForSubmitted(const TaskExecutor& executor, int64_t submitted) {
  while (executor.StatsReport().submitted < submitted) {
    std::this_thread::yield();
  }
}

TEST(TaskExecutorTest, SingleWorkerRunsTasksInSubmissionOrder) {
  TaskExecutor executor(ExecutorOptions{1});
  Latch latch;
  std::thread blocker([&executor, &latch] {
    std::vector<TaskExecutor::Task<int>> tasks;
    tasks.push_back([&latch]() -> Result<int> {
      std::unique_lock<std::mutex> lock(latch.mutex);
      latch.started = true;
      latch.cv.notify_all();
      latch.cv.wait(lock, [&latch] { return latch.release; });
      return -1;
    });
    ASSERT_TRUE(executor.RunAll(std::move(tasks)).ok());
  });
  latch.WaitStarted();
  // Two batches from two more threads queue behind the parked worker,
  // one after the other.
  std::vector<int> order;  // Only the single worker writes it.
  std::thread first = RunAllInBackground(executor, 0, 8, order);
  WaitForSubmitted(executor, 1 + 8);
  std::thread second = RunAllInBackground(executor, 8, 4, order);
  WaitForSubmitted(executor, 1 + 8 + 4);
  latch.Release();
  blocker.join();
  first.join();
  second.join();
  std::vector<int> expected(12);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(TaskExecutorTest, StressEightWorkersRacingSubmittersAndBatches) {
  // Several threads race RunAll on one pool; every caller must get
  // exactly its own results back, in its own task order.
  TaskExecutor executor(ExecutorOptions{8});
  constexpr int kCallers = 6;
  constexpr int kBatches = 60;
  constexpr int kMaxBatchSize = 9;
  std::atomic<int64_t> tasks_run{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&executor, &tasks_run, c] {
      for (int b = 0; b < kBatches; ++b) {
        const int size = 1 + (b + c) % kMaxBatchSize;
        std::vector<TaskExecutor::Task<int>> tasks;
        for (int i = 0; i < size; ++i) {
          const int value = (c * kBatches + b) * kMaxBatchSize + i;
          tasks.push_back([value]() -> Result<int> {
            return value;
          });
        }
        const Result<std::vector<int>> results =
            executor.RunAll(std::move(tasks));
        ASSERT_TRUE(results.ok());
        ASSERT_EQ(results->size(), static_cast<size_t>(size));
        for (int i = 0; i < size; ++i) {
          ASSERT_EQ((*results)[static_cast<size_t>(i)],
                    (c * kBatches + b) * kMaxBatchSize + i)
              << "caller " << c << " batch " << b;
        }
        tasks_run.fetch_add(size);
      }
    });
  }
  for (std::thread& t : callers) t.join();

  const ExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.submitted, tasks_run.load());
  EXPECT_EQ(stats.executed, stats.submitted);
  EXPECT_EQ(stats.failed, 0);
  ASSERT_EQ(stats.tasks_per_worker.size(), 8u);
  EXPECT_EQ(std::accumulate(stats.tasks_per_worker.begin(),
                            stats.tasks_per_worker.end(), int64_t{0}),
            stats.executed);
}

}  // namespace
}  // namespace streambid::cluster
