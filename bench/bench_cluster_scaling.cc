// Copyright 2026 The streambid Authors
// Cluster scaling bench. Two experiments:
//
//  1. Parallel admission speedup — the Table IV runtime workload
//     (2000-query instances at max sharing degree 5) submitted as one
//     batch, serial AdmissionService::AdmitBatch vs the cluster
//     AdmissionExecutor at 1/2/4/8 workers, with a byte-identity check
//     (the determinism contract) and the executor's per-mechanism
//     rolling stats.
//
//  2. One big center vs N shards at equal total capacity — the sharded
//     multi-center question: for each mechanism and routing policy, the
//     same tenant book runs three subscription periods against a
//     1-shard and a 4-shard ClusterCenter and we compare aggregate
//     revenue, admission, utilization, and wall clock. Sharding splits
//     operator sharing across shards (a tenant's operators are only
//     shared with co-located tenants), which is exactly the profit
//     tension the paper's single-center model cannot see.
//
// Scales with the usual STREAMBID_* env knobs (see bench_common.h).

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/admission_executor.h"
#include "cluster/cluster_center.h"
#include "common/table.h"
#include "common/timer.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace {

using namespace streambid;

// --- Experiment 1: parallel admission speedup. -----------------------

bool SameAllocations(const std::vector<service::AdmissionResponse>& a,
                     const std::vector<service::AdmissionResponse>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].allocation.admitted != b[i].allocation.admitted ||
        a[i].allocation.payments != b[i].allocation.payments) {
      return false;
    }
  }
  return true;
}

void RunSpeedupExperiment(const bench::BenchConfig& config) {
  std::printf("\n== Parallel admission: serial AdmitBatch vs "
              "AdmitBatchParallel ==\n");
  // The Table IV regime: max sharing degree 5 keeps the scaled capacity
  // binding (without it every mechanism short-circuits).
  workload::WorkloadSet ws(config.params, /*seed=*/0xABCDu);
  const auction::AuctionInstance& instance = ws.InstanceAt(5);
  const double capacity = 15000.0 * config.queries / 2000.0;

  // The fast Table IV mechanisms (the movement-window skip-variants are
  // measured by bench_table4_runtime; at full scale they would dominate
  // the batch and measure themselves, not the executor).
  const std::vector<std::string> mechanisms = {
      "random", "gv", "two-price", "caf", "cat", "car", "opt-c"};
  const int trials = config.trials * 8;
  std::vector<service::AdmissionRequest> requests;
  for (const std::string& name : mechanisms) {
    for (int t = 0; t < trials; ++t) {
      service::AdmissionRequest request;
      request.instance = &instance;
      request.capacity = capacity;
      request.mechanism = name;
      request.seed = 0xD00Du;
      request.request_index = static_cast<uint32_t>(t);
      requests.push_back(std::move(request));
    }
  }
  std::printf("# %zu requests (%zu mechanisms x %d trials), %d queries, "
              "capacity %.0f\n",
              requests.size(), mechanisms.size(), trials, config.queries,
              capacity);
  std::printf("# hardware threads: %u (speedup is bounded by physical "
              "cores; identity must hold regardless)\n",
              std::thread::hardware_concurrency());

  service::AdmissionService serial_service;
  Timer timer;
  const auto serial = serial_service.AdmitBatch(requests);
  const double serial_ms = timer.ElapsedMillis();
  STREAMBID_CHECK(serial.ok());

  TextTable table({"threads", "ms", "speedup", "identical"});
  table.AddRow({"serial", FormatDouble(serial_ms, 1), "1.00", "-"});
  cluster::ExecutorStats stats;
  for (int threads : {1, 2, 4, 8}) {
    cluster::AdmissionExecutor executor(
        cluster::ExecutorOptions{threads});
    timer.Start();
    const auto parallel = executor.AdmitBatchParallel(requests);
    const double parallel_ms = timer.ElapsedMillis();
    STREAMBID_CHECK(parallel.ok());
    const bool identical = SameAllocations(*serial, *parallel);
    STREAMBID_CHECK(identical);  // The determinism contract.
    table.AddRow({std::to_string(threads), FormatDouble(parallel_ms, 1),
                  FormatDouble(serial_ms / parallel_ms, 2),
                  identical ? "yes" : "NO"});
    stats = executor.StatsReport();
  }
  std::fputs(table.ToAligned().c_str(), stdout);

  std::printf("\n# executor rolling stats (8-thread run)\n");
  TextTable stats_table({"mechanism", "count", "admit_rate", "util",
                         "mean_ms", "max_ms", "overruns"});
  for (const auto& [name, m] : stats.per_mechanism) {
    stats_table.AddRow({name, std::to_string(m.count),
                        FormatDouble(m.admit_rate.mean(), 3),
                        FormatDouble(m.utilization.mean(), 3),
                        FormatDouble(m.elapsed_ms.mean(), 3),
                        FormatDouble(m.elapsed_ms.max(), 3),
                        std::to_string(m.deadline_overruns)});
  }
  std::fputs(stats_table.ToAligned().c_str(), stdout);
}

// --- Experiment 2: one big center vs N shards. -----------------------

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

// --- Experiment 3: barriered vs pipelined periods. -------------------

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
  bench::PrintBanner("cluster scaling: parallel admission + sharded "
                     "multi-center + period pipelining",
                     config);
  RunSpeedupExperiment(config);
  RunShardingExperiment(config);
  RunPipelineExperiment(config);
  return 0;
}
