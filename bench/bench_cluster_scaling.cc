// Copyright 2026 The streambid Authors
// Cluster scaling bench. Two experiments:
//
//  1. One big center vs N shards at equal total capacity — the sharded
//     multi-center question: for each mechanism and routing policy, the
//     same tenant book runs three subscription periods against a
//     1-shard and a 4-shard ClusterCenter and we compare aggregate
//     revenue, admission, utilization, and wall clock. Sharding splits
//     operator sharing across shards (a tenant's operators are only
//     shared with co-located tenants), which is exactly the profit
//     tension the paper's single-center model cannot see.
//
//  2. Barriered vs pipelined periods — the same 4-shard cluster run
//     through RunPeriodBarriered and RunPeriod, with a byte-identity
//     CHECK on the reports and the wall-clock speedup written to
//     BENCH_cluster_scaling.json.
//
// Scales with the usual STREAMBID_* env knobs (see bench_common.h).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_center.h"
#include "common/table.h"
#include "common/timer.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace {

using namespace streambid;

// --- Experiment 1: one big center vs N shards. -----------------------

struct TenantBookEntry {
  int id;
  auction::UserId user;
  double bid;
  double threshold;
};

/// Deterministic tenant book: distinct users, Zipf-ish bids, a handful
/// of distinct select thresholds so tenants share operators — which is
/// precisely what sharding splits.
std::vector<TenantBookEntry> MakeTenantBook(int tenants) {
  std::vector<TenantBookEntry> book;
  Rng rng(0x7EA7u);
  book.reserve(static_cast<size_t>(tenants));
  for (int i = 1; i <= tenants; ++i) {
    TenantBookEntry entry;
    entry.id = i;
    entry.user = i;
    entry.bid = 5.0 + rng.NextRange(0.0, 95.0);
    entry.threshold = 95.0 + 2.0 * static_cast<double>(rng.NextBounded(8));
    book.push_back(entry);
  }
  return book;
}

stream::QuerySubmission MakeTenant(const TenantBookEntry& entry) {
  stream::QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                           stream::Value(entry.threshold));
  stream::QuerySubmission sub;
  sub.query_id = entry.id;
  sub.user = entry.user;
  sub.bid = entry.bid;
  sub.plan = b.Build(sel);
  return sub;
}

Status RegisterQuotes(stream::Engine& engine) {
  return engine.RegisterSource(stream::MakeStockQuoteSource(
      "quotes", {"IBM", "AAPL", "MSFT", "GOOG"}, /*rate=*/100.0, 5));
}

struct ShardingRow {
  std::string layout;
  double revenue = 0.0;
  int admitted = 0;
  int submitted = 0;
  double utilization = 0.0;
  double wall_ms = 0.0;
};

ShardingRow RunLayout(const std::string& mechanism, int num_shards,
                      cluster::RoutingPolicy policy, int tenants,
                      int periods, double total_capacity) {
  cluster::ClusterOptions options;
  options.num_shards = num_shards;
  options.total_capacity = total_capacity;
  options.routing = policy;
  options.mechanism = mechanism;
  options.period_length = 30.0;
  options.seed = 97;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 4;
  options.executor_threads = num_shards;
  cluster::ClusterCenter center(options, RegisterQuotes);

  const std::vector<TenantBookEntry> book = MakeTenantBook(tenants);
  ShardingRow row;
  row.layout = num_shards == 1
                   ? "1-center"
                   : std::to_string(num_shards) + "-shard/" +
                         cluster::RoutingPolicyName(policy);
  Timer timer;
  for (int period = 0; period < periods; ++period) {
    for (const TenantBookEntry& entry : book) {
      const auto shard = center.Submit(MakeTenant(entry));
      STREAMBID_CHECK(shard.ok());
    }
    const auto report = center.RunPeriod();
    STREAMBID_CHECK(report.ok());
    row.admitted += report->admitted;
    row.submitted += report->submissions;
    row.utilization += report->auction_utilization / periods;
  }
  row.wall_ms = timer.ElapsedMillis();
  row.revenue = center.total_revenue();
  return row;
}

void RunShardingExperiment(const bench::BenchConfig& config) {
  const int tenants =
      std::min(120, std::max(16, config.queries / 10));
  const int periods = 3;
  // Half the demand of distinct selects fits: the auction stays binding
  // in both layouts (each distinct threshold costs ~1 unit shared by
  // its tenants; 8 distinct thresholds -> ~8 units of demand).
  const double total_capacity = 4.0;
  std::printf("\n== 1 big center vs 4 shards at equal total capacity "
              "(%d tenants, %d periods) ==\n",
              tenants, periods);

  TextTable table({"mechanism", "layout", "revenue", "admit_rate",
                   "auction_util", "wall_ms"});
  for (const std::string& mechanism : {std::string("cat"),
                                       std::string("car"),
                                       std::string("two-price")}) {
    std::vector<ShardingRow> rows;
    rows.push_back(RunLayout(mechanism, 1,
                             cluster::RoutingPolicy::kHashUser, tenants,
                             periods, total_capacity));
    for (cluster::RoutingPolicy policy :
         {cluster::RoutingPolicy::kHashUser,
          cluster::RoutingPolicy::kLeastLoaded}) {
      rows.push_back(RunLayout(mechanism, 4, policy, tenants, periods,
                               total_capacity));
    }
    for (const ShardingRow& row : rows) {
      table.AddRow(
          {mechanism, row.layout, FormatDouble(row.revenue, 2),
           FormatDouble(row.submitted > 0 ? static_cast<double>(row.admitted) /
                                                row.submitted
                                          : 0.0,
                        3),
           FormatDouble(row.utilization, 3),
           FormatDouble(row.wall_ms, 1)});
    }
  }
  std::fputs(table.ToAligned().c_str(), stdout);
  std::printf("# sharding splits operator sharing: the 1-center layout "
              "admits tenants whose operators are shared cluster-wide,\n"
              "# shards only share within a shard — the revenue gap "
              "quantifies the paper's sharing effect at cluster scale\n");
}

// --- Experiment 2: barriered vs pipelined periods. -------------------

bool SameClusterReports(const cluster::ClusterPeriodReport& a,
                        const cluster::ClusterPeriodReport& b) {
  if (a.submissions != b.submissions || a.admitted != b.admitted ||
      a.revenue != b.revenue || a.total_payoff != b.total_payoff ||
      a.provisioned_capacity != b.provisioned_capacity ||
      a.energy_cost != b.energy_cost ||
      a.shard_reports.size() != b.shard_reports.size()) {
    return false;
  }
  for (size_t s = 0; s < a.shard_reports.size(); ++s) {
    const cloud::PeriodReport& sa = a.shard_reports[s];
    const cloud::PeriodReport& sb = b.shard_reports[s];
    if (sa.admitted_ids != sb.admitted_ids ||
        sa.payments != sb.payments || sa.revenue != sb.revenue) {
      return false;
    }
  }
  return true;
}

struct PipelineRow {
  double wall_ms = 0.0;
  std::vector<cluster::ClusterPeriodReport> reports;
};

PipelineRow RunPeriodMode(bool pipelined, int tenants, int periods) {
  cluster::ClusterOptions options;
  options.num_shards = 4;
  options.total_capacity = 4.0;
  options.routing = cluster::RoutingPolicy::kHashUser;
  options.mechanism = "cat";
  // Long enough periods that engine execution dominates — the stage the
  // barriered loop cannot overlap with the next shard's auction.
  options.period_length = 120.0;
  options.seed = 97;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 4;
  options.executor_threads = 4;
  cluster::ClusterCenter center(options, RegisterQuotes);

  const std::vector<TenantBookEntry> book = MakeTenantBook(tenants);
  PipelineRow row;
  Timer timer;
  for (int period = 0; period < periods; ++period) {
    for (const TenantBookEntry& entry : book) {
      STREAMBID_CHECK(center.Submit(MakeTenant(entry)).ok());
    }
    const auto report =
        pipelined ? center.RunPeriod() : center.RunPeriodBarriered();
    STREAMBID_CHECK(report.ok());
    row.reports.push_back(*report);
  }
  row.wall_ms = timer.ElapsedMillis();
  return row;
}

void RunPipelineExperiment(const bench::BenchConfig& config) {
  const int tenants = std::min(120, std::max(16, config.queries / 10));
  const int periods = 4;
  std::printf("\n== Period pipelining: barriered vs per-shard chains "
              "(4 shards, %d tenants, %d periods) ==\n",
              tenants, periods);

  const PipelineRow barriered = RunPeriodMode(false, tenants, periods);
  const PipelineRow pipelined = RunPeriodMode(true, tenants, periods);

  STREAMBID_CHECK(barriered.reports.size() == pipelined.reports.size());
  bool identical = true;
  for (size_t p = 0; p < barriered.reports.size(); ++p) {
    identical = identical &&
                SameClusterReports(barriered.reports[p],
                                   pipelined.reports[p]);
  }
  STREAMBID_CHECK(identical);  // The determinism contract.

  TextTable table({"mode", "wall_ms", "speedup", "identical"});
  table.AddRow({"barriered", FormatDouble(barriered.wall_ms, 1), "1.00",
                "-"});
  table.AddRow({"pipelined", FormatDouble(pipelined.wall_ms, 1),
                FormatDouble(barriered.wall_ms / pipelined.wall_ms, 2),
                identical ? "yes" : "NO"});
  std::fputs(table.ToAligned().c_str(), stdout);
  bench::WriteBenchJson(
      "cluster_scaling",
      {{"barriered_wall_ms", barriered.wall_ms},
       {"pipelined_wall_ms", pipelined.wall_ms},
       {"pipeline_speedup", barriered.wall_ms / pipelined.wall_ms},
       {"reports_identical", identical ? 1.0 : 0.0}});
  std::printf("# pipelined periods run each shard's prepare/admit/"
              "complete as one chain on the persistent pool:\n"
              "# shard k's engine execution overlaps shard k+1's "
              "auction, and no per-period threads are spawned\n");
}

}  // namespace

int main() {
  bench::BenchConfig config = bench::LoadConfig();
  bench::PrintBanner("cluster scaling: sharded multi-center + period "
                     "pipelining",
                     config);
  RunShardingExperiment(config);
  RunPipelineExperiment(config);
  return 0;
}
