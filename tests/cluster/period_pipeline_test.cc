// Copyright 2026 The streambid Authors
// Period pipelining contract: a cluster whose periods run as per-shard
// prepare -> admit -> complete chains on the persistent executor pool
// must produce ClusterPeriodReports byte-identical to the barriered
// reference implementation, at pool sizes 1/2/8, with and without
// autoscaling and rebalancing — and all period work must land on pool
// workers (no per-period threads).

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

ClusterOptions BaseOptions(int executor_threads, bool autoscale,
                           bool rebalance = false) {
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
  options.rebalance.enabled = rebalance;
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
/// When `migrations` is set, it receives the number of tenants the
/// rebalancer moved.
std::vector<ClusterPeriodReport> RunPeriods(int executor_threads,
                                            bool autoscale, bool pipelined,
                                            bool rebalance = false,
                                            size_t* migrations = nullptr) {
  ClusterCenter cluster(BaseOptions(executor_threads, autoscale, rebalance),
                        RegisterQuotes);
  std::vector<ClusterPeriodReport> reports;
  for (int period = 0; period < kPeriods; ++period) {
    SubmitTenants(cluster, period);
    const auto report =
        pipelined ? cluster.RunPeriod() : cluster.RunPeriodBarriered();
    EXPECT_TRUE(report.ok());
    reports.push_back(*report);
  }
  if (migrations != nullptr) {
    *migrations = 0;
    for (const MigrationPlan& plan : cluster.migrations()) {
      *migrations += plan.moves.size();
    }
  }
  return reports;
}

TEST(PeriodPipelineTest, PipelinedMatchesBarrieredAtEveryPoolSize) {
  // Rebalancing on runs the serial migration stage of the period tail
  // after both variants; it must not open a gap between them.
  for (const bool rebalance : {false, true}) {
    size_t migrations = 0;
    const auto barriered = RunPeriods(2, /*autoscale=*/false,
                                      /*pipelined=*/false, rebalance,
                                      &migrations);
    ASSERT_EQ(barriered.size(), static_cast<size_t>(kPeriods));
    if (rebalance) {
      EXPECT_GT(migrations, 0u);
    }
    for (int threads : {1, 2, 8}) {
      size_t pipelined_migrations = 0;
      const auto pipelined = RunPeriods(threads, /*autoscale=*/false,
                                        /*pipelined=*/true, rebalance,
                                        &pipelined_migrations);
      ASSERT_EQ(pipelined.size(), barriered.size()) << threads;
      EXPECT_EQ(pipelined_migrations, migrations) << threads;
      for (size_t p = 0; p < barriered.size(); ++p) {
        ExpectClusterReportsIdentical(pipelined[p], barriered[p]);
      }
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
  // Every shard-period with submissions ran its auction inside that
  // pool task, on the shard's own service, and reports it.
  int auctions = 0;
  for (const ClusterPeriodReport& report : cluster.history()) {
    for (const cloud::PeriodReport& shard : report.shard_reports) {
      if (shard.submissions == 0) continue;
      ++auctions;
      EXPECT_EQ(shard.mechanism, "cat");
      EXPECT_GE(shard.auction_elapsed_ms, 0.0);
    }
  }
  EXPECT_GT(auctions, 0);
}

}  // namespace
}  // namespace streambid::cluster
