// Copyright 2026 The streambid Authors
// TaskExecutor contract tests: typed tickets round-trip arbitrary
// closure results, RunAll aligns positionally and surfaces the
// lowest-index failure, a single worker runs tasks in FIFO order,
// destruction never hangs waiters, and every failure mode (error
// Result, consumed or recycled ticket) returns a typed error.

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

TEST(TaskExecutorTest, SubmitWaitRoundTripsTypedResults) {
  TaskExecutor executor(ExecutorOptions{2});
  EXPECT_EQ(executor.num_threads(), 2);

  const auto int_ticket = executor.Submit<int>(
      [](WorkerContext&) -> Result<int> { return 41 + 1; });
  ASSERT_TRUE(int_ticket.ok());
  const auto string_ticket = executor.Submit<std::string>(
      [](WorkerContext&) -> Result<std::string> {
        return std::string("pipelined");
      });
  ASSERT_TRUE(string_ticket.ok());

  const Result<int> n = executor.Wait(*int_ticket);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 42);
  const Result<std::string> s = executor.Wait(*string_ticket);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "pipelined");
  EXPECT_EQ(executor.pending_tasks(), 0);
}

TEST(TaskExecutorTest, WorkerContextExposesWorkerLocalService) {
  TaskExecutor executor(ExecutorOptions{3});
  std::mutex mutex;
  std::vector<const service::AdmissionService*> seen;
  std::vector<int> ids;
  std::vector<Ticket<bool>> tickets;
  for (int i = 0; i < 12; ++i) {
    const auto ticket = executor.Submit<bool>(
        [&](WorkerContext& context) -> Result<bool> {
          std::lock_guard<std::mutex> lock(mutex);
          seen.push_back(context.service);
          ids.push_back(context.worker_id);
          return true;
        });
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  for (const Ticket<bool> ticket : tickets) {
    ASSERT_TRUE(executor.Wait(ticket).ok());
  }
  for (size_t k = 0; k < seen.size(); ++k) {
    ASSERT_NE(seen[k], nullptr);
    ASSERT_GE(ids[k], 0);
    ASSERT_LT(ids[k], 3);
    // The context service is the worker's own, never another worker's.
    EXPECT_EQ(seen[k], &executor.worker_service(ids[k]));
  }
}

TEST(TaskExecutorTest, RunAllAlignsPositionally) {
  for (int threads : {1, 2, 8}) {
    TaskExecutor executor(ExecutorOptions{threads});
    std::vector<TaskExecutor::Task<int>> tasks;
    for (int i = 0; i < 20; ++i) {
      tasks.push_back(
          [i](WorkerContext&) -> Result<int> { return i * i; });
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
    tasks.push_back([i, &executed](WorkerContext&) -> Result<int> {
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
}

TEST(TaskExecutorTest, ClosureErrorPropagatesThroughTicket) {
  TaskExecutor executor(ExecutorOptions{1});
  const auto ticket = executor.Submit<int>(
      [](WorkerContext&) -> Result<int> {
        return Status::OutOfRange("task failed");
      });
  ASSERT_TRUE(ticket.ok());
  const Result<int> result = executor.Wait(*ticket);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(result.status().message(), "task failed");
  // The error consumed the ticket like any other result.
  EXPECT_EQ(executor.Wait(*ticket).status().code(), StatusCode::kNotFound);
  const TaskExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.executed, 1);
}

TEST(TaskExecutorTest, WaitOnConsumedOrUnknownTicketIsNotFound) {
  TaskExecutor executor(ExecutorOptions{1});
  const auto ticket = executor.Submit<int>(
      [](WorkerContext&) -> Result<int> { return 7; });
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(executor.Wait(*ticket).ok());
  EXPECT_EQ(executor.Wait(*ticket).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(executor.Wait(Ticket<int>{0}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(executor.Wait(Ticket<int>{999}).status().code(),
            StatusCode::kNotFound);
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

TEST(TaskExecutorTest, DestructionWithoutShutdownNeverHangsWaiters) {
  // Queue deep work behind a parked worker, then destroy: queued tasks
  // are dropped and a concurrent-free Wait before destruction still
  // sees a typed error, not a hang (contract: the destructor completes
  // unconsumed tickets with kFailedPrecondition).
  std::optional<TaskExecutor> executor;
  executor.emplace(ExecutorOptions{1});
  Latch latch;
  const auto blocker = executor->Submit<int>(
      [&latch](WorkerContext&) -> Result<int> {
        {
          std::unique_lock<std::mutex> lock(latch.mutex);
          latch.started = true;
          latch.cv.notify_all();
          latch.cv.wait(lock, [&latch] { return latch.release; });
        }
        return 1;
      });
  ASSERT_TRUE(blocker.ok());
  latch.WaitStarted();
  const auto queued = executor->Submit<int>(
      [](WorkerContext&) -> Result<int> { return 2; });
  ASSERT_TRUE(queued.ok());
  latch.Release();
  executor.reset();  // Joins the worker; drops whatever was still queued.
  SUCCEED();
}

TEST(TaskExecutorTest, StatsTrackWorkersAndQueueHighWater) {
  TaskExecutor executor(ExecutorOptions{2});
  std::vector<TaskExecutor::Task<int>> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back([i](WorkerContext&) -> Result<int> { return i; });
  }
  ASSERT_TRUE(executor.RunAll(std::move(tasks)).ok());

  const TaskExecutorStats stats = executor.StatsReport();
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

/// Submits a task that parks its worker on `latch` until Release(),
/// then returns `value`.
Result<Ticket<int>> SubmitLatched(TaskExecutor& executor, Latch& latch,
                                  int value) {
  return executor.Submit<int>(
      [&latch, value](WorkerContext&) -> Result<int> {
        std::unique_lock<std::mutex> lock(latch.mutex);
        latch.started = true;
        latch.cv.notify_all();
        latch.cv.wait(lock, [&latch] { return latch.release; });
        return value;
      });
}

TEST(TaskExecutorTest, SingleWorkerRunsTasksInSubmissionOrder) {
  TaskExecutor executor(ExecutorOptions{1});
  Latch latch;
  const auto blocker = SubmitLatched(executor, latch, -1);
  ASSERT_TRUE(blocker.ok());
  latch.WaitStarted();
  // Everything below queues behind the parked worker, mixing async
  // tickets with a batch submitted from another thread.
  std::vector<int> order;  // Only the single worker writes it.
  std::vector<Ticket<int>> tickets;
  for (int i = 0; i < 8; ++i) {
    const auto ticket = executor.Submit<int>(
        [&order, i](WorkerContext&) -> Result<int> {
          order.push_back(i);
          return i;
        });
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  std::vector<TaskExecutor::Task<int>> batch;
  for (int i = 8; i < 12; ++i) {
    batch.push_back([&order, i](WorkerContext&) -> Result<int> {
      order.push_back(i);
      return i;
    });
  }
  std::thread batcher([&executor, &batch] {
    ASSERT_TRUE(executor.RunAll(std::move(batch)).ok());
  });
  while (executor.StatsReport().submitted < 1 + 8 + 4) {
    std::this_thread::yield();
  }
  latch.Release();
  batcher.join();
  EXPECT_EQ(*executor.Wait(*blocker), -1);
  for (const Ticket<int> ticket : tickets) {
    ASSERT_TRUE(executor.Wait(ticket).ok());
  }
  std::vector<int> expected(12);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(TaskExecutorTest, RecycledSlotNeverAnswersStaleTicket) {
  TaskExecutor executor(ExecutorOptions{1});
  const auto stale = executor.Submit<int>(
      [](WorkerContext&) -> Result<int> { return 1; });
  ASSERT_TRUE(stale.ok());
  ASSERT_EQ(*executor.Wait(*stale), 1);

  // The next task reuses the consumed ticket's slot (same low 32 bits)
  // under a new generation, and stays pending behind the latch.
  Latch latch;
  const auto fresh = SubmitLatched(executor, latch, 2);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->id & 0xffffffffu, stale->id & 0xffffffffu);
  ASSERT_NE(fresh->id, stale->id);
  latch.WaitStarted();

  // The stale handle neither blocks on nor captures the new occupant.
  EXPECT_EQ(executor.Wait(*stale).status().code(), StatusCode::kNotFound);
  latch.Release();
  EXPECT_EQ(executor.Wait(*stale).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*executor.Wait(*fresh), 2);
  EXPECT_EQ(executor.pending_tasks(), 0);
}

TEST(TaskExecutorTest, StressEightWorkersRacingSubmittersAndBatches) {
  TaskExecutor executor(ExecutorOptions{8});
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 200;
  constexpr int kBatchEvery = 20;
  constexpr int kBatchSize = 5;
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> batch_sum{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&executor, &sum, &batch_sum, s] {
      std::vector<Ticket<int>> tickets;
      tickets.reserve(kPerSubmitter);
      for (int i = 0; i < kPerSubmitter; ++i) {
        const int value = s * kPerSubmitter + i;
        const auto ticket = executor.Submit<int>(
            [value](WorkerContext&) -> Result<int> { return value; });
        ASSERT_TRUE(ticket.ok());
        tickets.push_back(*ticket);
        if (i % kBatchEvery == 0) {
          // A blocking batch while this thread's own tickets and the
          // other submitters' work are still in flight.
          std::vector<TaskExecutor::Task<int>> batch;
          for (int k = 0; k < kBatchSize; ++k) {
            batch.push_back([k](WorkerContext&) -> Result<int> { return k; });
          }
          const auto results = executor.RunAll(std::move(batch));
          ASSERT_TRUE(results.ok());
          for (const int r : *results) batch_sum.fetch_add(r);
        }
      }
      for (const Ticket<int>& ticket : tickets) {
        const Result<int> r = executor.Wait(ticket);
        ASSERT_TRUE(r.ok());
        sum.fetch_add(*r);
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  constexpr int64_t kTotal = kSubmitters * kPerSubmitter;
  constexpr int64_t kBatches = kSubmitters * (kPerSubmitter / kBatchEvery);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(batch_sum.load(),
            kBatches * kBatchSize * (kBatchSize - 1) / 2);
  const TaskExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.submitted, kTotal + kBatches * kBatchSize);
  EXPECT_EQ(stats.executed, stats.submitted);
  ASSERT_EQ(stats.tasks_per_worker.size(), 8u);
  EXPECT_EQ(std::accumulate(stats.tasks_per_worker.begin(),
                            stats.tasks_per_worker.end(), int64_t{0}),
            stats.executed);
  EXPECT_EQ(executor.pending_tasks(), 0);
}

}  // namespace
}  // namespace streambid::cluster
