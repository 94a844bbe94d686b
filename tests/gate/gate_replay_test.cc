// Copyright 2026 The streambid Authors
// The gate's replay-identity contract: for a closed-loop workload that
// never exhausts tickets, per-period cluster reports with the gate
// enabled are byte-identical to direct ClusterCenter::Submit — at
// executor pool sizes 1/2/8. Plus the concurrency property: the
// ticket bound holds under racing producers.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "gate/stream_ingress.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace streambid::gate {
namespace {

constexpr int kPeriods = 6;

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

/// Spiky but closed-loop: every period's batch fits far under the
/// ticket pools, including one idle period.
int TenantsFor(int period) {
  if (period == 4) return 0;
  return period % 2 == 0 ? 9 : 4;
}

stream::QuerySubmission TenantSubmission(int period, int t) {
  return MakeSubmission(100 * period + t, t, 55.0 - 3.0 * t,
                        100.0 + 5.0 * (t % 4));
}

cluster::ClusterOptions BaseClusterOptions(int executor_threads) {
  cluster::ClusterOptions options;
  options.num_shards = 3;
  options.total_capacity = 6.0;
  options.routing = cluster::RoutingPolicy::kHashUser;
  options.mechanism = "cat";
  options.period_length = 5.0;
  options.seed = 61;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 4;
  options.executor_threads = executor_threads;
  return options;
}

IngressOptions AmpleTickets() {
  IngressOptions options;
  options.tenant_classes = 2;
  options.tickets_per_class = 32;
  return options;
}

void ExpectShardReportsIdentical(const cloud::PeriodReport& a,
                                 const cloud::PeriodReport& b) {
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.mechanism, b.mechanism);
  EXPECT_EQ(a.submissions, b.submissions);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.admitted_ids, b.admitted_ids);
  EXPECT_EQ(a.payments, b.payments);
  // Byte-identical doubles: the gate must be invisible, not "close".
  EXPECT_EQ(a.revenue, b.revenue);
  EXPECT_EQ(a.total_payoff, b.total_payoff);
  EXPECT_EQ(a.auction_utilization, b.auction_utilization);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  EXPECT_EQ(a.shed_fraction, b.shed_fraction);
  EXPECT_EQ(a.provisioned_capacity, b.provisioned_capacity);
  EXPECT_EQ(a.energy_cost, b.energy_cost);
}

void ExpectClusterReportsIdentical(const cluster::ClusterPeriodReport& a,
                                   const cluster::ClusterPeriodReport& b) {
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
    ExpectShardReportsIdentical(a.shard_reports[s], b.shard_reports[s]);
  }
}

std::vector<cluster::ClusterPeriodReport> RunDirect(int executor_threads) {
  cluster::ClusterCenter center(BaseClusterOptions(executor_threads),
                                RegisterQuotes);
  std::vector<cluster::ClusterPeriodReport> reports;
  for (int period = 0; period < kPeriods; ++period) {
    for (int t = 1; t <= TenantsFor(period); ++t) {
      EXPECT_TRUE(center.Submit(TenantSubmission(period, t)).ok());
    }
    const auto report = center.RunPeriod();
    EXPECT_TRUE(report.ok());
    reports.push_back(*report);
  }
  return reports;
}

std::vector<cluster::ClusterPeriodReport> RunGated(int executor_threads) {
  cluster::ClusterCenter center(BaseClusterOptions(executor_threads),
                                RegisterQuotes);
  StreamIngress gate(&center, AmpleTickets());
  std::vector<cluster::ClusterPeriodReport> reports;
  for (int period = 0; period < kPeriods; ++period) {
    for (int t = 1; t <= TenantsFor(period); ++t) {
      EXPECT_TRUE(gate.Offer(TenantSubmission(period, t)).ok());
    }
    const auto gated = gate.ClosePeriod();
    EXPECT_TRUE(gated.ok());
    EXPECT_EQ(gated->gate.shed, 0);     // Closed loop: no shedding...
    EXPECT_EQ(gated->gate.dropped, 0);  // ...and no drain refusals.
    reports.push_back(gated->report);
  }
  return reports;
}

TEST(GateReplayTest, GatedMatchesDirectSubmitAtEveryPoolSize) {
  const std::vector<cluster::ClusterPeriodReport> reference = RunDirect(1);
  for (const int threads : {1, 2, 8}) {
    const std::vector<cluster::ClusterPeriodReport> gated =
        RunGated(threads);
    ASSERT_EQ(gated.size(), reference.size());
    for (size_t p = 0; p < reference.size(); ++p) {
      ExpectClusterReportsIdentical(gated[p], reference[p]);
    }
    // Direct runs are themselves pool-size invariant (the existing
    // pipelining contract) — assert it so a regression here cannot
    // masquerade as a gate bug.
    const std::vector<cluster::ClusterPeriodReport> direct =
        RunDirect(threads);
    for (size_t p = 0; p < reference.size(); ++p) {
      ExpectClusterReportsIdentical(direct[p], reference[p]);
    }
  }
}

TEST(GateReplayTest, TicketBoundHoldsUnderRacingProducers) {
  cluster::ClusterCenter center(BaseClusterOptions(2), RegisterQuotes);
  IngressOptions options;
  options.tenant_classes = 2;
  options.tickets_per_class = 4;  // 8 tickets total, 64 offers.
  StreamIngress gate(&center, options);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 16;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&gate, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int t = p * kPerProducer + i + 1;
        (void)gate.Offer(MakeSubmission(t, t, 50.0 - (t % 7),
                                        100.0 + 5.0 * (t % 4)));
      }
    });
  }
  for (std::thread& t : producers) t.join();

  // The open-loop invariant: the buffer can never outgrow the pools.
  EXPECT_LE(gate.buffered_high_water(), 8);
  EXPECT_LE(gate.buffered(), 8);
  const auto gated = gate.ClosePeriod();
  ASSERT_TRUE(gated.ok());
  EXPECT_EQ(gated->gate.offered, kProducers * kPerProducer);
  EXPECT_EQ(gated->gate.admitted + gated->gate.shed,
            kProducers * kPerProducer);
  EXPECT_LE(gated->gate.admitted, 8);
  EXPECT_GT(gated->gate.shed, 0);
  EXPECT_EQ(gate.pool(0).used() + gate.pool(1).used(), 0);
}

}  // namespace
}  // namespace streambid::gate
