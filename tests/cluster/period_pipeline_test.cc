// Copyright 2026 The streambid Authors
// Period pipelining contract: a cluster whose periods run as per-shard
// prepare -> admit -> complete chains on the persistent executor pool
// must produce ClusterPeriodReports byte-identical to the barriered
// reference implementation, at pool sizes 1/2/8, with and without
// autoscaling — and all period work must land on pool workers (no
// per-period threads). Also covers the BeginPeriod/EndPeriod surface.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "cluster/cluster_center.h"
#include "cluster/task_executor.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace streambid::cluster {
namespace {

constexpr int kPeriods = 8;
constexpr int kShards = 4;

Status RegisterQuotes(stream::Engine& engine) {
  return engine.RegisterSource(stream::MakeStockQuoteSource(
      "quotes", {"IBM", "AAPL", "MSFT"}, 100.0, 11));
}

stream::QuerySubmission MakeSubmission(int id, auction::UserId user,
                                       double bid, double threshold) {
  stream::QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                           stream::Value(threshold));
  stream::QuerySubmission sub;
  sub.query_id = id;
  sub.user = user;
  sub.bid = bid;
  sub.plan = b.Build(sel);
  return sub;
}

/// Bursty tenant count: spikes, a trickle, and one fully idle period,
/// so the identity check covers loaded, light, and no-auction shards.
int TenantsFor(int period) {
  if (period == 5) return 0;
  return period % 3 == 0 ? 10 : 4;
}

ClusterOptions BaseOptions(int executor_threads, bool autoscale) {
  ClusterOptions options;
  options.num_shards = kShards;
  options.total_capacity = 8.0;
  options.routing = RoutingPolicy::kHashUser;
  options.mechanism = "cat";
  options.period_length = 5.0;
  options.seed = 61;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 4;
  options.executor_threads = executor_threads;
  if (autoscale) {
    options.autoscale.enabled = true;
    options.autoscale.min_capacity_ratio = 0.25;
    options.autoscale.min_dwell_periods = 2;
  }
  return options;
}

void SubmitTenants(ClusterCenter& cluster, int period) {
  for (int t = 1; t <= TenantsFor(period); ++t) {
    ASSERT_TRUE(cluster
                    .Submit(MakeSubmission(t, t, 55.0 - 3.0 * t,
                                           100.0 + 5.0 * (t % 4)))
                    .ok());
  }
}

void ExpectReportsIdentical(const cloud::PeriodReport& a,
                            const cloud::PeriodReport& b) {
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.mechanism, b.mechanism);
  EXPECT_EQ(a.submissions, b.submissions);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.admitted_ids, b.admitted_ids);
  EXPECT_EQ(a.payments, b.payments);
  // Byte-identical doubles: pipelining must be invisible, not "close".
  EXPECT_EQ(a.revenue, b.revenue);
  EXPECT_EQ(a.total_payoff, b.total_payoff);
  EXPECT_EQ(a.auction_utilization, b.auction_utilization);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  EXPECT_EQ(a.shed_fraction, b.shed_fraction);
  EXPECT_EQ(a.provisioned_capacity, b.provisioned_capacity);
  EXPECT_EQ(a.energy_cost, b.energy_cost);
  ASSERT_EQ(a.autoscale_decision.has_value(),
            b.autoscale_decision.has_value());
  if (a.autoscale_decision.has_value()) {
    EXPECT_EQ(a.autoscale_decision->capacity,
              b.autoscale_decision->capacity);
    EXPECT_EQ(a.autoscale_decision->changed,
              b.autoscale_decision->changed);
    EXPECT_EQ(a.autoscale_decision->reason,
              b.autoscale_decision->reason);
  }
}

void ExpectClusterReportsIdentical(const ClusterPeriodReport& a,
                                   const ClusterPeriodReport& b) {
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.submissions, b.submissions);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.revenue, b.revenue);
  EXPECT_EQ(a.total_payoff, b.total_payoff);
  EXPECT_EQ(a.auction_utilization, b.auction_utilization);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  EXPECT_EQ(a.provisioned_capacity, b.provisioned_capacity);
  EXPECT_EQ(a.energy_cost, b.energy_cost);
  ASSERT_EQ(a.shard_reports.size(), b.shard_reports.size());
  for (size_t s = 0; s < a.shard_reports.size(); ++s) {
    ExpectReportsIdentical(a.shard_reports[s], b.shard_reports[s]);
  }
}

/// Runs kPeriods through either the pipelined or the barriered path.
std::vector<ClusterPeriodReport> RunPeriods(int executor_threads,
                                            bool autoscale,
                                            bool pipelined) {
  ClusterCenter cluster(BaseOptions(executor_threads, autoscale),
                        RegisterQuotes);
  std::vector<ClusterPeriodReport> reports;
  for (int period = 0; period < kPeriods; ++period) {
    SubmitTenants(cluster, period);
    const auto report =
        pipelined ? cluster.RunPeriod() : cluster.RunPeriodBarriered();
    EXPECT_TRUE(report.ok());
    reports.push_back(*report);
  }
  return reports;
}

TEST(PeriodPipelineTest, PipelinedMatchesBarrieredAtEveryPoolSize) {
  const auto barriered = RunPeriods(2, /*autoscale=*/false,
                                    /*pipelined=*/false);
  ASSERT_EQ(barriered.size(), static_cast<size_t>(kPeriods));
  for (int threads : {1, 2, 8}) {
    const auto pipelined = RunPeriods(threads, /*autoscale=*/false,
                                      /*pipelined=*/true);
    ASSERT_EQ(pipelined.size(), barriered.size()) << threads;
    for (size_t p = 0; p < barriered.size(); ++p) {
      ExpectClusterReportsIdentical(pipelined[p], barriered[p]);
    }
  }
}

TEST(PeriodPipelineTest, PipelinedMatchesBarrieredUnderAutoscaling) {
  // The prepare stage now fans out per shard (candidate grid and all);
  // autoscaled provisioning decisions must still replay identically.
  const auto barriered = RunPeriods(2, /*autoscale=*/true,
                                    /*pipelined=*/false);
  for (int threads : {1, 2, 8}) {
    const auto pipelined = RunPeriods(threads, /*autoscale=*/true,
                                      /*pipelined=*/true);
    ASSERT_EQ(pipelined.size(), barriered.size()) << threads;
    for (size_t p = 0; p < barriered.size(); ++p) {
      ExpectClusterReportsIdentical(pipelined[p], barriered[p]);
    }
  }
  // The runs must actually have moved capacity to count as coverage.
  bool any_change = false;
  for (const ClusterPeriodReport& report : barriered) {
    for (const cloud::PeriodReport& shard : report.shard_reports) {
      any_change = any_change || (shard.autoscale_decision.has_value() &&
                                  shard.autoscale_decision->changed);
    }
  }
  EXPECT_TRUE(any_change);
}

TEST(PeriodPipelineTest, AllPeriodWorkLandsOnPoolWorkers) {
  // The satellite check for "no per-period threads": after P pipelined
  // periods, every task is accounted to one of the pool's workers, and
  // the chain count is exactly periods x shards — there is nowhere else
  // work could have run.
  ClusterCenter cluster(BaseOptions(2, /*autoscale=*/false),
                        RegisterQuotes);
  for (int period = 0; period < 3; ++period) {
    SubmitTenants(cluster, period);
    ASSERT_TRUE(cluster.RunPeriod().ok());
  }
  const ExecutorStats stats = cluster.executor().StatsReport();
  ASSERT_EQ(stats.tasks_per_worker.size(), 2u);
  EXPECT_EQ(std::accumulate(stats.tasks_per_worker.begin(),
                            stats.tasks_per_worker.end(), int64_t{0}),
            static_cast<int64_t>(3 * kShards));
  // Every shard auction that ran went through a worker-local service
  // and landed in the rolling stats.
  int64_t mechanism_count = 0;
  for (const auto& [name, m] : stats.per_mechanism) {
    EXPECT_EQ(name, "cat");
    mechanism_count += m.count;
  }
  EXPECT_EQ(stats.total_requests, mechanism_count);
  EXPECT_GT(mechanism_count, 0);
}

TEST(PeriodPipelineTest, DroppingPendingPeriodWithoutEndIsSafe) {
  // Regression: the executor is the cluster's last-declared member, so
  // destruction joins the pool before freeing the shards a still-running
  // period chain dereferences. Without the ordering this is a
  // heap-use-after-free the ASan CI job catches.
  for (int round = 0; round < 10; ++round) {
    ClusterCenter cluster(BaseOptions(2, /*autoscale=*/false),
                          RegisterQuotes);
    SubmitTenants(cluster, 0);
    const auto period = cluster.BeginPeriod();
    ASSERT_TRUE(period.ok());
    // Drop the handle and the cluster with chains possibly in flight.
  }
  SUCCEED();
}

TEST(PeriodPipelineTest, EndPeriodRejectsForeignAndStaleHandles) {
  ClusterCenter cluster(BaseOptions(2, /*autoscale=*/false),
                        RegisterQuotes);
  auto first = cluster.BeginPeriod();
  ASSERT_TRUE(first.ok());
  PendingPeriod foreign;  // Default-constructed: no owner, no tickets.
  EXPECT_EQ(cluster.EndPeriod(foreign).status().code(),
            StatusCode::kFailedPrecondition);

  // Another cluster's live handle must not end this cluster's period.
  ClusterCenter other(BaseOptions(2, /*autoscale=*/false),
                      RegisterQuotes);
  auto other_period = other.BeginPeriod();
  ASSERT_TRUE(other_period.ok());
  EXPECT_EQ(cluster.EndPeriod(*other_period).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(other.EndPeriod(*other_period).ok());

  // A stale copy of an already-ended handle must not end a LATER
  // period: ending period 2 with period 1's copy would unfreeze Submit
  // while period 2's chains still run and strand period 2's tickets.
  PendingPeriod stale_copy = *first;
  ASSERT_TRUE(cluster.EndPeriod(*first).ok());
  auto second = cluster.BeginPeriod();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cluster.EndPeriod(stale_copy).status().code(),
            StatusCode::kFailedPrecondition);
  // The live handle still works and the surface stayed frozen in between.
  ASSERT_TRUE(cluster.EndPeriod(*second).ok());
  EXPECT_EQ(cluster.history().size(), 2u);
}

TEST(PeriodPipelineTest, BeginEndPeriodSurface) {
  ClusterCenter cluster(BaseOptions(2, /*autoscale=*/false),
                        RegisterQuotes);
  SubmitTenants(cluster, 0);

  auto period = cluster.BeginPeriod();
  ASSERT_TRUE(period.ok());

  // The surface freezes while the period is in flight.
  EXPECT_EQ(cluster.Submit(MakeSubmission(99, 99, 10.0, 110.0))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.BeginPeriod().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.RunPeriod().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.RunPeriodBarriered().status().code(),
            StatusCode::kFailedPrecondition);

  const auto report = cluster.EndPeriod(*period);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->submissions, TenantsFor(0));
  EXPECT_EQ(cluster.history().size(), 1u);

  // The handle is consumed exactly once.
  EXPECT_EQ(cluster.EndPeriod(*period).status().code(),
            StatusCode::kFailedPrecondition);

  // The surface thaws: Submit and the next period work again, and the
  // split path produced the same thing RunPeriod would have.
  ASSERT_TRUE(cluster.Submit(MakeSubmission(7, 7, 20.0, 105.0)).ok());
  const auto next = cluster.RunPeriod();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->period, 1);

  ClusterCenter twin(BaseOptions(2, /*autoscale=*/false), RegisterQuotes);
  SubmitTenants(twin, 0);
  const auto twin_report = twin.RunPeriod();
  ASSERT_TRUE(twin_report.ok());
  ExpectClusterReportsIdentical(*report, *twin_report);
}

}  // namespace
}  // namespace streambid::cluster
