// Copyright 2026 The streambid Authors
// AdmissionExecutor contract tests: parallel batches are byte-identical
// to the serial AdmitBatch at every pool size, AdmitOn from pool tasks
// completes out of order, and the rolling stats aggregate diagnostics.

#include "cluster/admission_executor.h"

#include <gtest/gtest.h>

#include <vector>

#include "workload/generator.h"

namespace streambid::cluster {
namespace {

/// A workload big enough that every mechanism does real work and shards
/// actually interleave across workers.
auction::AuctionInstance TestInstance() {
  workload::WorkloadParams params;
  params.num_queries = 60;
  params.base_num_operators = 25;
  Rng rng(0xFEEDu);
  return workload::GenerateBaseWorkload(params, rng).ToInstance().value();
}

/// The sweep shape of the benches: mechanisms x capacities x trials.
std::vector<service::AdmissionRequest> TestRequests(
    const auction::AuctionInstance& instance) {
  std::vector<service::AdmissionRequest> requests;
  for (const char* name : {"cat", "car", "two-price", "random", "caf+"}) {
    for (double capacity : {20.0, 60.0}) {
      for (uint32_t trial = 0; trial < 3; ++trial) {
        service::AdmissionRequest request;
        request.instance = &instance;
        request.capacity = capacity;
        request.mechanism = name;
        request.seed = 77;
        request.request_index = trial;
        requests.push_back(std::move(request));
      }
    }
  }
  return requests;
}

/// Everything except the timing fields must match byte for byte.
void ExpectIdentical(const service::AdmissionResponse& a,
                     const service::AdmissionResponse& b, size_t index) {
  EXPECT_EQ(a.allocation.admitted, b.allocation.admitted) << index;
  EXPECT_EQ(a.allocation.payments, b.allocation.payments) << index;
  EXPECT_EQ(a.allocation.mechanism, b.allocation.mechanism) << index;
  EXPECT_EQ(a.metrics.profit, b.metrics.profit) << index;
  EXPECT_EQ(a.metrics.admission_rate, b.metrics.admission_rate) << index;
  EXPECT_EQ(a.metrics.total_payoff, b.metrics.total_payoff) << index;
  EXPECT_EQ(a.metrics.utilization, b.metrics.utilization) << index;
  EXPECT_EQ(a.diagnostics.mechanism, b.diagnostics.mechanism) << index;
  EXPECT_EQ(a.diagnostics.capacity, b.diagnostics.capacity) << index;
  EXPECT_EQ(a.diagnostics.used_capacity, b.diagnostics.used_capacity)
      << index;
  EXPECT_EQ(a.diagnostics.capacity_utilization,
            b.diagnostics.capacity_utilization)
      << index;
  EXPECT_EQ(a.diagnostics.num_queries, b.diagnostics.num_queries) << index;
  EXPECT_EQ(a.diagnostics.admitted_count, b.diagnostics.admitted_count)
      << index;
  EXPECT_EQ(a.diagnostics.rejected_count, b.diagnostics.rejected_count)
      << index;
}

TEST(AdmissionExecutorTest, ParallelBatchMatchesSerialAtEveryPoolSize) {
  const auction::AuctionInstance instance = TestInstance();
  const std::vector<service::AdmissionRequest> requests =
      TestRequests(instance);

  service::AdmissionService serial_service;
  const auto serial = serial_service.AdmitBatch(requests);
  ASSERT_TRUE(serial.ok());

  for (int threads : {1, 2, 8}) {
    AdmissionExecutor executor(ExecutorOptions{threads});
    EXPECT_EQ(executor.num_threads(), threads);
    const auto parallel = executor.AdmitBatchParallel(requests);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      ExpectIdentical((*parallel)[i], (*serial)[i], i);
    }
  }
}

TEST(AdmissionExecutorTest, RepeatedParallelBatchesAreStable) {
  // Worker contexts are reused across batches; the per-request streams
  // must keep results independent of what ran before.
  const auction::AuctionInstance instance = TestInstance();
  const std::vector<service::AdmissionRequest> requests =
      TestRequests(instance);
  AdmissionExecutor executor(ExecutorOptions{4});
  const auto first = executor.AdmitBatchParallel(requests);
  const auto second = executor.AdmitBatchParallel(requests);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < first->size(); ++i) {
    ExpectIdentical((*first)[i], (*second)[i], i);
  }
}

TEST(AdmissionExecutorTest, BatchValidationMatchesSerialErrorSpelling) {
  const auction::AuctionInstance instance = TestInstance();
  std::vector<service::AdmissionRequest> requests(2);
  requests[0].instance = &instance;
  requests[0].capacity = 10.0;
  requests[0].mechanism = "cat";
  requests[1].instance = &instance;
  requests[1].capacity = 10.0;
  requests[1].mechanism = "bogus";

  service::AdmissionService serial_service;
  const auto serial = serial_service.AdmitBatch(requests);
  AdmissionExecutor executor(ExecutorOptions{2});
  const auto parallel = executor.AdmitBatchParallel(requests);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().code(), serial.status().code());
  EXPECT_EQ(parallel.status().message(), serial.status().message());
}

TEST(AdmissionExecutorTest, EmptyBatchIsEmpty) {
  AdmissionExecutor executor(ExecutorOptions{2});
  const auto responses = executor.AdmitBatchParallel({});
  ASSERT_TRUE(responses.ok());
  EXPECT_TRUE(responses->empty());
}

TEST(AdmissionExecutorTest, AsyncCompletionsDrainOutOfOrder) {
  const auction::AuctionInstance instance = TestInstance();
  AdmissionExecutor executor(ExecutorOptions{2});
  service::AdmissionService serial_service;

  // Requests are built before any task runs: the tasks read them by
  // reference, as the ClusterCenter's period chains do.
  std::vector<service::AdmissionRequest> requests;
  for (uint32_t t = 0; t < 6; ++t) {
    service::AdmissionRequest request;
    request.instance = &instance;
    request.capacity = 30.0;
    request.mechanism = t % 2 == 0 ? "two-price" : "cat";
    request.seed = 5;
    request.request_index = t;
    requests.push_back(std::move(request));
  }
  std::vector<Ticket<service::AdmissionResponse>> tickets;
  for (const service::AdmissionRequest& request : requests) {
    const auto ticket = executor.tasks().Submit<service::AdmissionResponse>(
        [&executor, &request](WorkerContext& context) {
          return executor.AdmitOn(context, request);
        });
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }

  // Drain newest-first: completion order must not matter.
  for (size_t k = tickets.size(); k-- > 0;) {
    const auto response = executor.tasks().Wait(tickets[k]);
    ASSERT_TRUE(response.ok()) << k;
    const auto expected = serial_service.Admit(requests[k]);
    ASSERT_TRUE(expected.ok());
    ExpectIdentical(*response, *expected, k);
  }
  EXPECT_EQ(executor.tasks().pending_tasks(), 0);
  EXPECT_EQ(executor.StatsReport().total_requests, 6);
}

TEST(AdmissionExecutorTest, UnknownTicketIsNotFound) {
  AdmissionExecutor executor(ExecutorOptions{1});
  EXPECT_EQ(executor.tasks()
                .Wait(Ticket<service::AdmissionResponse>{123})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(AdmissionExecutorTest, StatsAggregatePerMechanism) {
  const auction::AuctionInstance instance = TestInstance();
  AdmissionExecutor executor(ExecutorOptions{4});
  const std::vector<service::AdmissionRequest> requests =
      TestRequests(instance);
  ASSERT_TRUE(executor.AdmitBatchParallel(requests).ok());

  const ExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.total_requests,
            static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.failed_requests, 0);
  // The generic pool counters ride along: every request executed on
  // one of the 4 pool workers, and the queue was observed non-empty.
  ASSERT_EQ(stats.tasks_per_worker.size(), 4u);
  int64_t pool_tasks = 0;
  for (const int64_t t : stats.tasks_per_worker) pool_tasks += t;
  EXPECT_EQ(pool_tasks, static_cast<int64_t>(requests.size()));
  EXPECT_GE(stats.queue_high_water, 1);
  ASSERT_EQ(stats.per_mechanism.size(), 5u);
  for (const auto& [name, m] : stats.per_mechanism) {
    // 2 capacities x 3 trials per mechanism.
    EXPECT_EQ(m.count, 6) << name;
    EXPECT_EQ(m.admit_rate.count(), 6) << name;
    EXPECT_GT(m.admit_rate.mean(), 0.0) << name;
    EXPECT_GT(m.utilization.mean(), 0.0) << name;
    EXPECT_GE(m.elapsed_ms.mean(), 0.0) << name;
    EXPECT_EQ(m.deadline_overruns, 0) << name;
  }
}

TEST(AdmissionExecutorTest, DestructionWithInFlightAuctionIsSafe) {
  // Regression: the executor destroys its pool before the stats shards
  // (members in reverse declaration order), so an auction still running
  // at destruction records its stats into live memory. Without the
  // ordering this is a heap-use-after-free the ASan CI job catches.
  const auction::AuctionInstance instance = TestInstance();
  for (int round = 0; round < 20; ++round) {
    service::AdmissionRequest request;
    request.instance = &instance;
    request.capacity = 30.0;
    request.mechanism = "cat";
    request.request_index = static_cast<uint32_t>(round);
    AdmissionExecutor executor(ExecutorOptions{2});
    ASSERT_TRUE(executor.tasks()
                    .Submit<service::AdmissionResponse>(
                        [&executor, &request](WorkerContext& context) {
                          return executor.AdmitOn(context, request);
                        })
                    .ok());
    // Destroy immediately: the auction may be queued, running, or done.
  }
  SUCCEED();
}

TEST(AdmissionExecutorTest, StatsCountDeadlineOverruns) {
  const auction::AuctionInstance instance = TestInstance();
  AdmissionExecutor executor(ExecutorOptions{1});
  service::AdmissionRequest request;
  request.instance = &instance;
  request.capacity = 30.0;
  request.mechanism = "cat";
  // Any positive elapsed time overruns a denormal budget.
  request.options.time_budget_ms = 1e-300;
  ASSERT_TRUE(executor.AdmitBatchParallel({request}).ok());
  const ExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.per_mechanism.at("cat").deadline_overruns, 1);
}

}  // namespace
}  // namespace streambid::cluster
