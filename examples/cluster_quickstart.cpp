// Copyright 2026 The streambid Authors
// The cluster layer in one page: a 2-shard ClusterCenter routing tenant
// submissions by least-loaded, running each shard's period (prepare ->
// admit on the shard's own service -> complete) as one task on the
// executor's persistent TaskExecutor pool (no per-period threads), and
// merging the shard reports.
//
// Build & run:  ./build/examples/cluster_quickstart

#include <cstdio>
#include <map>
#include <string>

#include "cluster/cluster_center.h"
#include "common/table.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

using namespace streambid;

namespace {

stream::QuerySubmission Tenant(int id, double bid, double threshold) {
  stream::QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                           stream::Value(threshold));
  stream::QuerySubmission sub;
  sub.query_id = id;
  sub.user = id;
  sub.bid = bid;
  sub.plan = b.Build(sel);
  return sub;
}

}  // namespace

int main() {
  cluster::ClusterOptions options;
  options.num_shards = 2;
  options.total_capacity = 4.0;  // 2 units per shard.
  options.routing = cluster::RoutingPolicy::kLeastLoaded;
  options.mechanism = "cat";
  options.period_length = 60.0;
  options.seed = 7;

  cluster::ClusterCenter cluster(options, [](stream::Engine& engine) {
    return engine.RegisterSource(stream::MakeStockQuoteSource(
        "quotes", {"IBM", "AAPL", "MSFT"}, /*rate=*/100.0, 3));
  });

  std::printf("== 2-shard cluster, %s routing, mechanism %s ==\n",
              cluster::RoutingPolicyName(options.routing),
              options.mechanism.c_str());
  TextTable table({"period", "submitted", "admitted", "revenue",
                   "auction_util", "cluster_ms"});
  for (int period = 0; period < 2; ++period) {
    for (int id = 1; id <= 6; ++id) {
      const auto shard = cluster.Submit(
          Tenant(id, 60.0 - 8.0 * id + period, 95.0 + 5.0 * (id % 3)));
      if (!shard.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     shard.status().ToString().c_str());
        return 1;
      }
      if (period == 0) {
        std::printf("tenant %d -> shard %d\n", id, *shard);
      }
    }
    const auto report = cluster.RunPeriod();
    if (!report.ok()) {
      std::fprintf(stderr, "period failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    table.AddRow({std::to_string(report->period),
                  std::to_string(report->submissions),
                  std::to_string(report->admitted),
                  FormatDouble(report->revenue, 2),
                  FormatPercent(report->auction_utilization, 1),
                  FormatDouble(report->elapsed_ms, 2)});
  }
  std::fputs(table.ToAligned().c_str(), stdout);
  std::printf("total revenue: $%.2f across %d shards\n",
              cluster.total_revenue(), cluster.num_shards());

  // Each shard auctions on its own AdmissionService, and its period
  // report carries the auction: summarize them per mechanism. The pool
  // counters show where the per-shard period tasks ran.
  struct AuctionSummary {
    int count = 0;
    double admit_rate_sum = 0.0;
    double elapsed_ms_sum = 0.0;
  };
  std::map<std::string, AuctionSummary> auctions;
  for (const cluster::ClusterPeriodReport& report : cluster.history()) {
    for (const cloud::PeriodReport& shard : report.shard_reports) {
      if (shard.submissions == 0) continue;  // No auction this period.
      AuctionSummary& summary = auctions[shard.mechanism];
      ++summary.count;
      summary.admit_rate_sum +=
          static_cast<double>(shard.admitted) / shard.submissions;
      summary.elapsed_ms_sum += shard.auction_elapsed_ms;
    }
  }
  for (const auto& [name, summary] : auctions) {
    std::printf("mechanism %s: %d auctions, mean admit rate %.2f, "
                "mean %.3f ms\n",
                name.c_str(), summary.count,
                summary.admit_rate_sum / summary.count,
                summary.elapsed_ms_sum / summary.count);
  }
  const cluster::ExecutorStats stats = cluster.executor().StatsReport();
  for (size_t w = 0; w < stats.tasks_per_worker.size(); ++w) {
    std::printf("pool worker %zu ran %lld period tasks\n", w,
                static_cast<long long>(stats.tasks_per_worker[w]));
  }
  std::printf("queue high-water mark: %lld\n",
              static_cast<long long>(stats.queue_high_water));
  return 0;
}
