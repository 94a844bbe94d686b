// Copyright 2026 The streambid Authors
// ClusterCenter: sharded periods through the parallel executor must be
// indistinguishable from each shard running alone, and routing policies
// must steer submissions as documented.

#include "cluster/cluster_center.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace streambid::cluster {
namespace {

using stream::CompareOp;
using stream::QueryBuilder;
using stream::QuerySubmission;
using stream::Value;

Status RegisterQuotes(stream::Engine& engine) {
  return engine.RegisterSource(stream::MakeStockQuoteSource(
      "quotes", {"IBM", "AAPL", "MSFT"}, 100.0, 11));
}

QuerySubmission MakeSubmission(int id, auction::UserId user, double bid,
                               double threshold) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(threshold));
  QuerySubmission sub;
  sub.query_id = id;
  sub.user = user;
  sub.bid = bid;
  sub.plan = b.Build(sel);
  return sub;
}

ClusterOptions BaseOptions(int num_shards, RoutingPolicy routing) {
  ClusterOptions options;
  options.num_shards = num_shards;
  // 2 capacity units per shard — each distinct select costs ~1 unit, so
  // auctions actually reject (same regime as the DsmsCenter tests).
  options.total_capacity = 2.0 * num_shards;
  options.routing = routing;
  options.mechanism = "cat";
  options.period_length = 5.0;
  options.seed = 21;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 8;
  options.executor_threads = 2;
  return options;
}

TEST(ClusterCenterTest, MergesShardReports) {
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kHashUser),
                        RegisterQuotes);
  // Enough tenants that both shards receive submissions.
  for (int id = 1; id <= 8; ++id) {
    const auto shard =
        cluster.Submit(MakeSubmission(id, id, 60.0 - 5.0 * id,
                                      100.0 + 5.0 * (id % 3)));
    ASSERT_TRUE(shard.ok());
    EXPECT_GE(*shard, 0);
    EXPECT_LT(*shard, 2);
  }

  const auto report = cluster.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->period, 0);
  EXPECT_EQ(report->submissions, 8);
  ASSERT_EQ(report->shard_reports.size(), 2u);

  int admitted = 0;
  int submissions = 0;
  double revenue = 0.0;
  for (const cloud::PeriodReport& shard : report->shard_reports) {
    EXPECT_EQ(shard.mechanism, "cat");
    admitted += shard.admitted;
    submissions += shard.submissions;
    revenue += shard.revenue;
  }
  EXPECT_EQ(report->admitted, admitted);
  EXPECT_EQ(report->submissions, submissions);
  EXPECT_DOUBLE_EQ(report->revenue, revenue);
  EXPECT_DOUBLE_EQ(cluster.total_revenue(), revenue);
  EXPECT_GT(report->admitted, 0);
  // Capacity 2 per shard and ~1 unit per distinct select: at least one
  // of the 8 submissions must lose.
  EXPECT_LT(report->admitted, report->submissions);
  EXPECT_GE(report->elapsed_ms, 0.0);
  EXPECT_EQ(cluster.history().size(), 1u);
}

TEST(ClusterCenterTest, ShardsMatchStandaloneCenters) {
  // The acceptance bar for the cluster layer: N shards driven through
  // the parallel executor produce exactly the periods each center would
  // produce on its own.
  const ClusterOptions options = BaseOptions(2, RoutingPolicy::kHashUser);
  ClusterCenter cluster(options, RegisterQuotes);

  // Standalone twins of the two shards: same capacity split, same
  // per-shard seeds, same engine configuration.
  stream::EngineOptions engine_options = options.engine_options;
  engine_options.capacity = options.total_capacity / 2;
  stream::Engine engine_a(engine_options);
  stream::Engine engine_b(engine_options);
  ASSERT_TRUE(RegisterQuotes(engine_a).ok());
  ASSERT_TRUE(RegisterQuotes(engine_b).ok());
  cloud::DsmsCenterOptions center_options;
  center_options.period_length = options.period_length;
  center_options.mechanism = options.mechanism;
  center_options.load_options = options.load_options;
  center_options.seed = options.seed;
  cloud::DsmsCenter center_a(center_options, &engine_a);
  center_options.seed = options.seed + 1;
  cloud::DsmsCenter center_b(center_options, &engine_b);
  cloud::DsmsCenter* standalone[2] = {&center_a, &center_b};

  for (int period = 0; period < 2; ++period) {
    for (int id = 1; id <= 8; ++id) {
      QuerySubmission sub = MakeSubmission(
          id, id, 70.0 - 4.0 * id - period, 100.0 + 5.0 * (id % 3));
      const int shard =
          static_cast<int>(ShardRouter::HashUser(sub.user) % 2ull);
      ASSERT_TRUE(standalone[shard]->Submit(sub).ok());
      const auto routed = cluster.Submit(std::move(sub));
      ASSERT_TRUE(routed.ok());
      ASSERT_EQ(*routed, shard);
    }
    const auto merged = cluster.RunPeriod();
    ASSERT_TRUE(merged.ok());
    for (int s = 0; s < 2; ++s) {
      const auto expected = standalone[s]->RunPeriod();
      ASSERT_TRUE(expected.ok());
      const cloud::PeriodReport& actual =
          merged->shard_reports[static_cast<size_t>(s)];
      EXPECT_EQ(actual.period, expected->period);
      EXPECT_EQ(actual.submissions, expected->submissions);
      EXPECT_EQ(actual.admitted, expected->admitted);
      EXPECT_EQ(actual.admitted_ids, expected->admitted_ids);
      EXPECT_EQ(actual.payments, expected->payments);
      EXPECT_EQ(actual.revenue, expected->revenue);
      EXPECT_EQ(actual.total_payoff, expected->total_payoff);
      EXPECT_EQ(actual.auction_utilization,
                expected->auction_utilization);
      EXPECT_EQ(actual.measured_utilization,
                expected->measured_utilization);
    }
  }
}

TEST(ClusterCenterTest, LeastLoadedBalancesIdenticalTenants) {
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kLeastLoaded),
                        RegisterQuotes);
  // Distinct thresholds -> distinct loads per submission, so every
  // submission raises its shard's pending load and the next one goes to
  // the other shard.
  std::vector<int> counts(2, 0);
  for (int id = 1; id <= 6; ++id) {
    const auto shard = cluster.Submit(
        MakeSubmission(id, 1, 30.0, 100.0 + id));
    ASSERT_TRUE(shard.ok());
    ++counts[static_cast<size_t>(*shard)];
  }
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 3);
  const auto& statuses = cluster.shard_statuses();
  EXPECT_EQ(statuses[0].pending_count, 3);
  EXPECT_EQ(statuses[1].pending_count, 3);
  EXPECT_GT(statuses[0].pending_load, 0.0);

  // After the period the pending accumulators reset.
  ASSERT_TRUE(cluster.RunPeriod().ok());
  EXPECT_EQ(cluster.shard_statuses()[0].pending_count, 0);
  EXPECT_DOUBLE_EQ(cluster.shard_statuses()[0].pending_load, 0.0);
}

TEST(ClusterCenterTest, PriceAwareFallsBackToHashThenExplores) {
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kPriceAware),
                        RegisterQuotes);
  // Period 0: no history anywhere — routing falls back to hash(user).
  // Pick three users that all hash to the same shard so the other one
  // stays unexplored, and give them distinct ~1-unit selects so the
  // 2-unit auction clears at a positive price.
  std::vector<auction::UserId> users;
  const int hash_shard = static_cast<int>(ShardRouter::HashUser(1) % 2ull);
  for (auction::UserId u = 1; users.size() < 3; ++u) {
    if (static_cast<int>(ShardRouter::HashUser(u) % 2ull) == hash_shard) {
      users.push_back(u);
    }
  }
  for (size_t k = 0; k < users.size(); ++k) {
    const auto shard = cluster.Submit(
        MakeSubmission(static_cast<int>(k) + 1, users[k],
                       50.0 - 10.0 * static_cast<double>(k),
                       105.0 + 5.0 * static_cast<double>(k)));
    ASSERT_TRUE(shard.ok());
    EXPECT_EQ(*shard, hash_shard) << users[k];
  }
  const auto report = cluster.RunPeriod();
  ASSERT_TRUE(report.ok());
  const auto& status =
      cluster.shard_statuses()[static_cast<size_t>(hash_shard)];
  ASSERT_TRUE(status.has_history);
  ASSERT_GT(status.last_clearing_price, 0.0);

  // The other shard never saw traffic: optimistic exploration (price 0)
  // beats the positive clearing price, so every user routes there now.
  for (int id = 10; id <= 13; ++id) {
    const auto shard =
        cluster.Submit(MakeSubmission(id, id, 40.0, 110.0));
    ASSERT_TRUE(shard.ok());
    EXPECT_EQ(*shard, 1 - hash_shard) << id;
  }
}

TEST(ClusterCenterTest, SaturatedShardMarkedInfinitelyExpensive) {
  // Capacity so small nothing fits: the period admits nobody, and the
  // shard's clearing must read as +infinity (saturation), not 0 (free).
  ClusterOptions options = BaseOptions(1, RoutingPolicy::kPriceAware);
  options.total_capacity = 1e-3;
  ClusterCenter cluster(options, RegisterQuotes);
  ASSERT_TRUE(cluster.Submit(MakeSubmission(1, 1, 50.0, 110.0)).ok());
  const auto report = cluster.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->admitted, 0);
  const ShardStatus& status = cluster.shard_statuses()[0];
  EXPECT_TRUE(status.has_history);
  EXPECT_TRUE(std::isinf(status.last_clearing_price));
  EXPECT_DOUBLE_EQ(status.last_admission_rate, 0.0);
}

TEST(ClusterCenterTest, EmptyPeriodRunsCleanly) {
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kHashUser),
                        RegisterQuotes);
  const auto report = cluster.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->submissions, 0);
  EXPECT_EQ(report->admitted, 0);
  EXPECT_DOUBLE_EQ(report->revenue, 0.0);
  ASSERT_EQ(report->shard_reports.size(), 2u);
  for (int s = 0; s < 2; ++s) {
    EXPECT_DOUBLE_EQ(cluster.shard(s).engine().now(), 5.0);
  }
}

TEST(ClusterCenterTest, SubmitValidationPropagates) {
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kHashUser),
                        RegisterQuotes);
  QueryBuilder b;
  const int src = b.Source("no_such_stream");
  QuerySubmission unknown;
  unknown.query_id = 1;
  unknown.user = 1;
  unknown.bid = 5.0;
  unknown.plan = b.Build(src);
  EXPECT_EQ(cluster.Submit(std::move(unknown)).status().code(),
            StatusCode::kNotFound);
}

TEST(ClusterCenterTest, UtilizationWeightedByDivergedCapacities) {
  // Autoscaling with all traffic hashed onto one shard: the idle shard
  // shrinks toward its floor while the busy one holds, so per-shard
  // capacities genuinely diverge — the regression regime for the
  // cluster report's utilization fields.
  ClusterOptions options = BaseOptions(2, RoutingPolicy::kHashUser);
  options.autoscale.enabled = true;
  options.autoscale.min_capacity_ratio = 0.25;
  options.autoscale.min_dwell_periods = 1;
  ClusterCenter cluster(options, RegisterQuotes);

  const int busy_shard =
      static_cast<int>(ShardRouter::HashUser(1) % 2ull);
  std::vector<auction::UserId> users;
  for (auction::UserId u = 1; users.size() < 3; ++u) {
    if (static_cast<int>(ShardRouter::HashUser(u) % 2ull) == busy_shard) {
      users.push_back(u);
    }
  }
  ClusterPeriodReport last;
  for (int period = 0; period < 4; ++period) {
    for (size_t k = 0; k < users.size(); ++k) {
      ASSERT_TRUE(cluster
                      .Submit(MakeSubmission(
                          static_cast<int>(k) + 1, users[k], 40.0,
                          105.0 + 5.0 * static_cast<double>(k)))
                      .ok());
    }
    const auto report = cluster.RunPeriod();
    ASSERT_TRUE(report.ok());
    last = *report;
  }

  // Capacities diverged; the reported utilizations must be the
  // capacity-weighted means over the shard reports, not plain means.
  const cloud::PeriodReport& a = last.shard_reports[0];
  const cloud::PeriodReport& b = last.shard_reports[1];
  ASSERT_NE(a.provisioned_capacity, b.provisioned_capacity);
  const double total = a.provisioned_capacity + b.provisioned_capacity;
  EXPECT_DOUBLE_EQ(last.auction_utilization,
                   (a.auction_utilization * a.provisioned_capacity +
                    b.auction_utilization * b.provisioned_capacity) /
                       total);
  EXPECT_DOUBLE_EQ(last.measured_utilization,
                   (a.measured_utilization * a.provisioned_capacity +
                    b.measured_utilization * b.provisioned_capacity) /
                       total);
  // The plain mean would over-credit the shrunken idle shard: make
  // sure the weighted figure actually differs from it.
  EXPECT_NE(last.measured_utilization,
            (a.measured_utilization + b.measured_utilization) / 2.0);
}

// --- Error paths: a submission the shard rejects must not bias the
// router's view, and a BeginPeriod that cannot reach the executor must
// leave the surface usable. ---

TEST(ClusterCenterTest, FailedSubmitLeavesStatusesUntouched) {
  // Hash routing: user 1 deterministically re-routes to the same
  // shard, so the duplicate below really reaches the pending check.
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kHashUser),
                        RegisterQuotes);
  ASSERT_TRUE(cluster.Submit(MakeSubmission(1, 1, 40.0, 105.0)).ok());
  const std::vector<ShardStatus> before = cluster.shard_statuses();

  // Load estimation fails after routing (unknown source)...
  QueryBuilder bad;
  const int src = bad.Source("no_such_stream");
  QuerySubmission unknown;
  unknown.query_id = 2;
  unknown.user = 2;
  unknown.bid = 5.0;
  unknown.plan = bad.Build(src);
  EXPECT_EQ(cluster.Submit(std::move(unknown)).status().code(),
            StatusCode::kNotFound);
  // ...and the shard's own Submit fails after estimation (duplicate
  // pending id routed to the same least-loaded shard as a duplicate).
  EXPECT_EQ(cluster.Submit(MakeSubmission(1, 1, 40.0, 105.0))
                .status()
                .code(),
            StatusCode::kAlreadyExists);

  const std::vector<ShardStatus>& after = cluster.shard_statuses();
  for (size_t s = 0; s < before.size(); ++s) {
    EXPECT_EQ(after[s].pending_count, before[s].pending_count) << s;
    EXPECT_DOUBLE_EQ(after[s].pending_load, before[s].pending_load) << s;
  }
}

TEST(ClusterCenterTest, SingleShardDegeneratesToOneCenter) {
  ClusterCenter cluster(BaseOptions(1, RoutingPolicy::kLeastLoaded),
                        RegisterQuotes);
  for (int id = 1; id <= 3; ++id) {
    const auto shard =
        cluster.Submit(MakeSubmission(id, id, 50.0 - id, 110.0 + id));
    ASSERT_TRUE(shard.ok());
    EXPECT_EQ(*shard, 0);
  }
  const auto report = cluster.RunPeriod();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->shard_reports.size(), 1u);
  EXPECT_EQ(report->submissions, 3);
}

}  // namespace
}  // namespace streambid::cluster
