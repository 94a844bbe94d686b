// Copyright 2026 The streambid Authors
// The repository benchmark. One process runs one workload through the
// real front door — gate::StreamIngress::Offer, then ClosePeriod over a
// 4-shard ClusterCenter running CAT — from one thread that generates,
// offers and closes periods, with a 3-worker executor pool. The loop is
// closed: the cluster surface takes one caller and every period waits
// for its report, so the measured rate is the highest period cadence
// the system sustains.
//
//   perfbench_e2e    --workload W --seed N --seconds S
//   perfbench_traced --workload W --seed N --seconds S
//
// The binary fixes the mode. perfbench_e2e prints the end-to-end metrics
// of an untraced run. perfbench_traced, the build that carries the
// counting operator new, prints the per-layer ledger of a traced run of
// the same workload and seed: the PeriodTracer and MetricsRegistry
// attach through their public options, and the benchmark times and
// counts heap allocations around its own calls into each module's
// public surface.
// Both modes replay the first periods through direct Submit plus
// RunPeriodBarriered at pool size 1 and require byte-identical reports.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/dsms_center.h"
#include "cluster/cluster_center.h"
#include "gate/stream_ingress.h"
#include "perfbench/ledger.h"
#include "perfbench/workloads.h"
#include "service/gate_status.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

#if defined(PERFBENCH_ALLOC_PROBE)
#include "bench/alloc_probe.h"
#endif

namespace streambid::perfbench {
namespace {

constexpr int kPoolSize = 3;
/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 9;
/// Share of --seconds the traced mode spends on its untraced reference
/// phase; the traced phases then repeat exactly as many periods.
constexpr double kTracedReferenceShare = 0.25;

using Clock = std::chrono::steady_clock;

/// The route recorded for an offer the gate refused.
constexpr int kNotGranted = -1;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The binary fixes the mode: only perfbench_traced counts allocations,
/// and only it prints the per-layer ledger.
#if defined(PERFBENCH_ALLOC_PROBE)
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

/// Heap allocations so far (always 0 in the binary without the probe).
int64_t Allocs() {
#if defined(PERFBENCH_ALLOC_PROBE)
  return bench::AllocCount();
#else
  return 0;
#endif
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

/// The traced-run instruments: attached to the stack through its
/// public options, plus what the benchmark measures around its own calls.
struct Instruments {
  telemetry::PeriodTracer tracer;
  telemetry::MetricsRegistry metrics;
  LogHistogram offer_us;
  int64_t offer_allocs = 0;
  /// (cluster epoch, ClosePeriod wall ms), one per period.
  std::vector<std::pair<uint64_t, double>> close_ms;
  /// Allocations inside the timed sections (Offer + ClosePeriod).
  int64_t timed_allocs = 0;
  /// Per period: operator-tuples summed over shards.
  std::vector<int64_t> op_tuples;

  /// Forgets everything recorded so far (used after the warm-up).
  void Reset() {
    tracer.Clear();
    offer_us = LogHistogram();
    offer_allocs = 0;
    close_ms.clear();
    timed_allocs = 0;
    op_tuples.clear();
  }
};

/// What a run of periods added up to.
struct Totals {
  int periods = 0;
  int64_t offered = 0;
  int64_t shed = 0;
  int64_t failed = 0;   ///< Errors other than a gate shed.
  int64_t auction_admitted = 0;
  int64_t auction_rejected = 0;
  int64_t autoscale_changes = 0;
  int64_t shard_auctions = 0;      ///< Shard-periods with candidates.
  int64_t shard_candidates = 0;
  double net = 0.0;                ///< Revenue minus energy cost.
  double timed_s = 0.0;            ///< Offer + ClosePeriod wall time.
  WindowStats windows;
};

/// Operator-tuples `engine` processed in its last period. Every query
/// lives exactly one period and the engine drops a node when its last
/// query leaves, so each non-source node's count is that period's work.
int64_t PeriodOpTuples(const stream::Engine& engine) {
  int64_t tuples = 0;
  for (const stream::OperatorLoadInfo& op : engine.OperatorLoads()) {
    if (!op.is_source) tuples += op.tuples_processed;
  }
  return tuples;
}

/// The same, summed over the cluster's shards.
int64_t PeriodOpTuples(const cluster::ClusterCenter& center) {
  int64_t tuples = 0;
  for (int s = 0; s < center.num_shards(); ++s) {
    tuples += PeriodOpTuples(center.shard(s).engine());
  }
  return tuples;
}

/// One cluster behind one gate, driven period by period. It keeps the
/// gated reports of the first check_periods periods, and where each
/// offer went in the first max(check_periods, keep_periods), for the
/// replays that must see exactly the submissions the cluster saw.
class Runner {
 public:
  Runner(const Workload& workload, int pool, Instruments* instruments,
         int keep_periods)
      : workload_(workload),
        instruments_(instruments),
        keep_periods_(std::max(workload.check_periods, keep_periods)) {
    cluster::ClusterOptions options = workload.cluster;
    options.executor_threads = pool;
    gate::IngressOptions ingress = workload.ingress;
    if (instruments != nullptr) {
      options.tracer = &instruments->tracer;
      options.metrics = &instruments->metrics;
      ingress.tracer = &instruments->tracer;
      ingress.metrics = &instruments->metrics;
    }
    center_ = std::make_unique<cluster::ClusterCenter>(
        options, workload.configure_engine);
    gate_ = std::make_unique<gate::StreamIngress>(center_.get(), ingress);
  }

  /// Generates the next period's batch (untimed), offers it and closes
  /// the period (timed). False once an error ends the run.
  bool Step() {
    const int period = next_period_++;
    std::vector<stream::QuerySubmission> batch =
        workload_.generator->Batch(period);
    const bool keep = period < keep_periods_;
    std::vector<int> routes;
    if (keep) {
      // Untimed. The workloads route by user hash, which reads only the
      // drained-shard flags and the rebalancer's overrides; both hold
      // still until ClosePeriod drains the gate, so each offer's route
      // is already fixed.
      routes.reserve(batch.size());
      for (const stream::QuerySubmission& sub : batch) {
        routes.push_back(center_->router().Route(
            sub, center_->shard_statuses(),
            &center_->placement_overrides()));
      }
    }
    starts_.clear();
    int64_t shed = 0;

    const int64_t period_allocs = Allocs();
    const Clock::time_point period_start = Clock::now();
    for (size_t i = 0; i < batch.size(); ++i) {
      const int64_t allocs_before = Allocs();
      const Clock::time_point offer_start = Clock::now();
      const Status status = gate_->Offer(std::move(batch[i]));
      if (instruments_ != nullptr) {
        const Clock::time_point offer_end = Clock::now();
        instruments_->offer_us.Add(1e6 * Seconds(offer_start, offer_end));
        instruments_->offer_allocs += Allocs() - allocs_before;
      }
      if (keep && !status.ok()) routes[i] = kNotGranted;
      if (status.ok()) {
        starts_.push_back(offer_start);
      } else if (service::IsShed(status)) {
        ++shed;
      } else {
        ++totals.failed;
        Fail("offer " + std::to_string(i) + " of period " +
             std::to_string(period) + ": " + status.ToString());
      }
    }
    const Clock::time_point close_start = Clock::now();
    Result<gate::GatedPeriodReport> gated = gate_->ClosePeriod();
    const Clock::time_point close_end = Clock::now();
    if (instruments_ != nullptr) {
      instruments_->timed_allocs += Allocs() - period_allocs;
      instruments_->close_ms.emplace_back(
          center_->period_epoch(), 1e3 * Seconds(close_start, close_end));
    }
    totals.timed_s += Seconds(period_start, close_end);
    totals.offered += static_cast<int64_t>(batch.size());
    totals.shed += shed;
    if (!gated.ok()) {
      totals.failed += static_cast<int64_t>(starts_.size());
      Fail("close of period " + std::to_string(period) + ": " +
           gated.status().ToString());
      return false;
    }
    for (const Clock::time_point start : starts_) {
      totals.windows.AddDecision(1e3 * Seconds(start, close_end));
    }
    totals.windows.EndPeriod(static_cast<int64_t>(batch.size()),
                             Seconds(period_start, close_end));
    Account(period, static_cast<int64_t>(batch.size()), shed, *gated);
    if (instruments_ != nullptr) {
      instruments_->op_tuples.push_back(PeriodOpTuples(*center_));
    }
    if (keep) routes_.push_back(std::move(routes));
    if (period < workload_.check_periods) reports_.push_back(gated->report);
    return error_.empty();
  }

  void ResetTotals() { totals = Totals(); }

  int periods_run() const { return next_period_; }
  /// Per kept period, per offer in offer order: the shard the offer was
  /// routed to, or kNotGranted when the gate refused it.
  const std::vector<std::vector<int>>& routes() const { return routes_; }
  const std::vector<cluster::ClusterPeriodReport>& reports() const {
    return reports_;
  }
  const std::string& error() const { return error_; }
  cluster::ClusterCenter& center() { return *center_; }
  const gate::StreamIngress& gate() const { return *gate_; }

  Totals totals;

 private:
  void Fail(const std::string& message) {
    if (error_.empty()) error_ = message;
  }

  /// Folds one closed period into the totals and checks the invariants
  /// every period must keep.
  void Account(int period, int64_t offered, int64_t shed,
               const gate::GatedPeriodReport& gated) {
    const gate::GatePeriodStats& g = gated.gate;
    const cluster::ClusterPeriodReport& r = gated.report;
    auto where = [period] {
      return "period " + std::to_string(period) + ": ";
    };
    if (g.offered != offered || g.shed != shed ||
        g.offered != g.admitted + g.shed + g.dropped) {
      Fail(where() + "gate accounting broke: offered " +
           std::to_string(g.offered) + " (counted " + std::to_string(offered) +
           ") != admitted " + std::to_string(g.admitted) + " + shed " +
           std::to_string(g.shed) + " (counted " + std::to_string(shed) +
           ") + dropped " + std::to_string(g.dropped));
    }
    // The paper's capacity guarantee, on every shard of every period.
    for (size_t s = 0; s < r.shard_reports.size(); ++s) {
      const cloud::PeriodReport& shard = r.shard_reports[s];
      if (!(shard.auction_utilization <= 1.0 + 1e-9)) {
        Fail(where() + "shard " + std::to_string(s) +
             " auction utilization " +
             std::to_string(shard.auction_utilization) + " exceeds 1");
      }
      if (shard.submissions > 0) {
        ++totals.shard_auctions;
        totals.shard_candidates += shard.submissions;
      }
      if (shard.autoscale_decision && shard.autoscale_decision->changed) {
        ++totals.autoscale_changes;
      }
    }
    totals.failed += g.dropped;
    totals.auction_admitted += r.admitted;
    totals.auction_rejected += r.submissions - r.admitted;
    totals.net += r.revenue - r.energy_cost;
    ++totals.periods;
  }

  const Workload& workload_;
  Instruments* instruments_;
  const int keep_periods_;
  std::unique_ptr<cluster::ClusterCenter> center_;
  std::unique_ptr<gate::StreamIngress> gate_;
  int next_period_ = 0;
  std::vector<Clock::time_point> starts_;
  std::vector<std::vector<int>> routes_;
  std::vector<cluster::ClusterPeriodReport> reports_;
  std::string error_;
};

/// Constructs a runner and runs the warm-up periods; returns the set-up
/// wall time (construction plus the warm-up's Offer/ClosePeriod time,
/// without input generation).
double SetUp(const Workload& workload, int pool, Instruments* instruments,
             int keep_periods, std::unique_ptr<Runner>* runner) {
  const Clock::time_point start = Clock::now();
  *runner =
      std::make_unique<Runner>(workload, pool, instruments, keep_periods);
  const double construct_s = Seconds(start, Clock::now());
  for (int p = 0; p < workload.warmup_periods; ++p) {
    if (!(*runner)->Step()) break;
  }
  const double setup_s = construct_s + (*runner)->totals.timed_s;
  (*runner)->ResetTotals();
  if (instruments != nullptr) instruments->Reset();
  return setup_s;
}

/// The engine-shape figures of the reference replay, taken over the
/// replayed periods (deterministic in the seed).
struct Shape {
  double op_tuples = 0.0;
  double runtime_nodes = 0.0;
  double shared_nodes = 0.0;
  double sharing_degree_sum = 0.0;
  double operator_nodes = 0.0;
  double utilization = 0.0;
  int periods = 0;
};

/// Replays the runner's first check_periods periods through direct
/// ClusterCenter::Submit and RunPeriodBarriered at pool size 1 and
/// requires every report to match the gated pipelined one. Returns an
/// error message or "".
std::string CheckReplay(const Workload& workload, const Runner& runner,
                        ReportDigest* digest, Shape* shape) {
  cluster::ClusterOptions options = workload.cluster;
  options.executor_threads = 1;
  cluster::ClusterCenter center(options, workload.configure_engine);
  const std::vector<cluster::ClusterPeriodReport>& gated = runner.reports();
  for (size_t p = 0; p < gated.size(); ++p) {
    std::vector<stream::QuerySubmission> batch =
        workload.generator->Batch(static_cast<int>(p));
    const std::vector<int>& routes = runner.routes()[p];
    if (batch.size() != routes.size()) {
      return "period " + std::to_string(p) + " regenerated differently";
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      // A refusal here mirrors a gate drop; the reports then compare.
      if (routes[i] != kNotGranted) (void)center.Submit(std::move(batch[i]));
    }
    const Result<cluster::ClusterPeriodReport> report =
        center.RunPeriodBarriered();
    if (!report.ok()) {
      return "reference period " + std::to_string(p) + ": " +
             report.status().ToString();
    }
    const std::string diff = CompareReports(gated[p], *report);
    if (!diff.empty()) {
      return "period " + std::to_string(p) +
             " differs from the pool-1 barriered replay\n" + diff;
    }
    digest->Add(*report);
    shape->op_tuples += static_cast<double>(PeriodOpTuples(center));
    for (int s = 0; s < center.num_shards(); ++s) {
      const stream::Engine& engine = center.shard(s).engine();
      shape->runtime_nodes += engine.num_runtime_nodes();
      shape->shared_nodes += engine.num_shared_nodes();
      for (const stream::OperatorLoadInfo& op : engine.OperatorLoads()) {
        if (op.is_source) continue;
        shape->sharing_degree_sum += op.sharing_degree;
        shape->operator_nodes += 1.0;
      }
    }
    shape->utilization += report->measured_utilization;
    ++shape->periods;
  }
  return "";
}

/// Empty when the workload's designed load happened; else why not.
std::string CheckStressor(const Workload& workload, const Totals& totals,
                          const Shape& shape,
                          const cluster::ClusterCenter& center) {
  const double net_per_period =
      totals.periods > 0 ? totals.net / totals.periods : 0.0;
  if (!(net_per_period > 0.0)) {
    return "net profit per period is " + std::to_string(net_per_period);
  }
  switch (workload.stressor) {
    case Stressor::kEngine:
      if (shape.op_tuples <= 0.0) return "no operator processed a tuple";
      if (shape.shared_nodes <= 0.0) return "no runtime node was shared";
      break;
    case Stressor::kAuction:
      if (totals.shed == 0) return "the gate shed nothing";
      if (totals.auction_rejected == 0) return "the auction rejected nothing";
      break;
    case Stressor::kControl:
      if (center.migrations().empty()) return "no tenant migrated";
      if (totals.autoscale_changes == 0) {
        return "no autoscale decision changed capacity";
      }
      break;
  }
  return "";
}

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs the correctness replay and the stressor guard over `totals`,
/// printing the digest. Returns "" when both hold.
std::string Verify(const Workload& workload, const Args& args,
                   Runner& runner, const Totals& totals, Shape* shape) {
  if (!runner.error().empty()) return runner.error();
  ReportDigest digest;
  const std::string replay = CheckReplay(workload, runner, &digest, shape);
  if (!replay.empty()) return replay;
  std::printf("report_digest %s seed=%" PRIu64 " periods=%d %016" PRIx64
              "\n",
              workload.name.c_str(), args.seed, shape->periods,
              digest.value());
  return CheckStressor(workload, totals, *shape, runner.center());
}

int RunEndToEnd(const Workload& workload, const Args& args) {
  std::vector<double> setups;
  std::unique_ptr<Runner> runner;
  for (int k = 0; k < kSetups; ++k) {
    runner.reset();
    setups.push_back(SetUp(workload, kPoolSize, nullptr, 0, &runner));
  }

  const int min_periods =
      std::max(workload.check_periods, workload.outcome_periods);
  double peak_rss_mb = 0.0;
  // The totals over a fixed range of periods, so the outcome figures are
  // a function of the seed alone, not of how fast the periods ran.
  Totals outcome;
  const Clock::time_point start = Clock::now();
  while (Seconds(start, Clock::now()) < args.seconds ||
         runner->periods_run() < min_periods) {
    if (!runner->Step()) break;
    if (runner->periods_run() == workload.outcome_periods) {
      peak_rss_mb = PeakRssMb();
      outcome = runner->totals;
    }
  }

  Shape shape;
  const std::string problem =
      Verify(workload, args, *runner, outcome, &shape);
  if (!problem.empty()) std::printf("FAILED: %s\n", problem.c_str());
  const Totals& t = runner->totals;
  const double outcome_offered = static_cast<double>(outcome.offered);
  // The decision p99 is printed but not a gated metric: on a small
  // shared host it follows the host's stalls more than the program.
  std::printf("%s: %d timed periods, %" PRId64 " offers, %" PRId64
              " decision samples (p99 %.3f ms); over the %d outcome periods "
              "%" PRId64 " sheds, %" PRId64 " auction rejections, %" PRId64
              " capacity changes; %zu migrations\n",
              workload.name.c_str(), t.periods, t.offered,
              t.windows.decisions(), t.windows.P99(), outcome.periods,
              outcome.shed, outcome.auction_rejected,
              outcome.autoscale_changes,
              runner->center().migrations().size());
  PrintResult(problem.empty(), t.offered, t.failed,
              {{"subs_per_s", t.windows.Rate(), "1/s"},
               {"decision_ms_p50", t.windows.P50(), "ms"},
               {"shed_frac",
                Ratio(static_cast<double>(outcome.shed), outcome_offered),
                "fraction"},
               {"admit_frac",
                Ratio(static_cast<double>(outcome.auction_admitted),
                      outcome_offered),
                "fraction"},
               {"net_per_period", Ratio(outcome.net, outcome.periods),
                "dollars"},
               {"setup_s", Median(setups), "s"},
               {"peak_rss_mb", peak_rss_mb, "MiB"}});
  return problem.empty() ? 0 : 1;
}

/// Per-phase heap allocations of one shard, replayed through a
/// standalone DsmsCenter's public PrepareAuction -> Admit ->
/// CompletePeriod (the traced cluster run already times the phases).
/// Exactly the offers the traced cluster routed to shard 0 are
/// submitted, and the standalone reports must match that shard's
/// reports over the correctness check's periods.
struct PhaseSplit {
  int periods = 0;
  int auctions = 0;
  int64_t prepare_allocs = 0;
  int64_t admit_allocs = 0;
  int64_t complete_allocs = 0;
  int64_t op_tuples = 0;
};

PhaseSplit ReplayShardZero(const Workload& workload, const Runner& runner,
                           std::string* error) {
  const cluster::ClusterOptions& c = workload.cluster;
  stream::EngineOptions engine_options = c.engine_options;
  engine_options.capacity = c.total_capacity / c.num_shards;
  stream::Engine engine(engine_options);
  if (workload.configure_engine) {
    const Status status = workload.configure_engine(engine);
    if (!status.ok()) *error = status.ToString();
  }
  cloud::DsmsCenterOptions options;
  options.period_length = c.period_length;
  options.mechanism = c.mechanism;
  options.load_options = c.load_options;
  options.seed = c.seed;
  options.autoscale = c.autoscale;
  cloud::DsmsCenter center(options, &engine);

  PhaseSplit split;
  const std::vector<std::vector<int>>& routes = runner.routes();
  const int periods = static_cast<int>(routes.size());
  for (int p = 0; p < periods && error->empty(); ++p) {
    std::vector<stream::QuerySubmission> batch = workload.generator->Batch(p);
    if (batch.size() != routes[p].size()) {
      *error = "period " + std::to_string(p) + " regenerated differently";
      break;
    }
    for (size_t i = 0; i < batch.size() && error->empty(); ++i) {
      if (routes[p][i] != 0) continue;
      const Status status = center.Submit(std::move(batch[i]));
      if (!status.ok()) *error = status.ToString();
    }
    if (!error->empty()) break;
    const bool measured = p >= workload.warmup_periods;
    const int64_t a0 = Allocs();
    Result<cloud::PreparedAuction> prepared = center.PrepareAuction();
    const int64_t a1 = Allocs();
    if (!prepared.ok()) {
      *error = prepared.status().ToString();
      break;
    }
    Result<service::AdmissionResponse> response =
        service::AdmissionResponse();
    if (prepared->has_auction) {
      response = center.admission_service().Admit(prepared->request);
      if (!response.ok()) {
        *error = response.status().ToString();
        break;
      }
    }
    const int64_t a2 = Allocs();
    const Result<cloud::PeriodReport> report = center.CompletePeriod(
        prepared->has_auction ? &*response : nullptr);
    const int64_t a3 = Allocs();
    if (!report.ok()) {
      *error = report.status().ToString();
      break;
    }
    if (static_cast<size_t>(p) < runner.reports().size()) {
      const std::string diff = CompareShardReports(
          runner.reports()[static_cast<size_t>(p)].shard_reports[0], *report);
      if (!diff.empty()) {
        *error = "period " + std::to_string(p) + " differs\n" + diff;
        break;
      }
    }
    if (!measured) continue;
    ++split.periods;
    split.auctions += prepared->has_auction ? 1 : 0;
    split.prepare_allocs += a1 - a0;
    split.admit_allocs += a2 - a1;
    split.complete_allocs += a3 - a2;
    split.op_tuples += PeriodOpTuples(engine);
  }
  return split;
}

/// Runs `periods` timed periods on a fresh traced stack, keeping every
/// period's routes when `keep_routes`.
std::unique_ptr<Runner> TracedRun(const Workload& workload, int pool,
                                  int periods, bool keep_routes,
                                  Instruments* instruments) {
  std::unique_ptr<Runner> runner;
  SetUp(workload, pool, instruments,
        keep_routes ? workload.warmup_periods + periods : 0, &runner);
  while (runner->totals.periods < periods && runner->Step()) {
  }
  return runner;
}

int RunTraced(const Workload& workload, const Args& args) {
  // Phase 1: the untraced reference fixes how many periods to trace.
  std::unique_ptr<Runner> reference;
  SetUp(workload, kPoolSize, nullptr, 0, &reference);
  const Clock::time_point start = Clock::now();
  while (Seconds(start, Clock::now()) < args.seconds * kTracedReferenceShare ||
         reference->totals.periods < workload.check_periods) {
    if (!reference->Step()) break;
  }
  const int periods = reference->totals.periods;
  const double untraced_s = reference->totals.timed_s;
  std::string problem = reference->error();
  reference.reset();

  // Phase 2: the traced run at the benchmark's pool size, then the same
  // periods at pool size 1.
  Instruments traced;
  std::unique_ptr<Runner> runner =
      TracedRun(workload, kPoolSize, periods, true, &traced);
  Instruments serial;
  std::unique_ptr<Runner> serial_runner =
      TracedRun(workload, 1, periods, false, &serial);
  if (problem.empty()) problem = serial_runner->error();
  if (problem.empty() &&
      traced.tracer.IdentitySequence() != serial.tracer.IdentitySequence()) {
    problem = "trace identity differs between pool sizes 3 and 1";
  }
  const double serial_s = serial_runner->totals.timed_s;
  serial_runner.reset();

  // The registry must agree with what the benchmark offered.
  const telemetry::MetricsSnapshot snapshot = traced.metrics.Snapshot();
  const auto offered_counter = snapshot.counters.find("gate_offered");
  if (problem.empty() && offered_counter != snapshot.counters.end() &&
      offered_counter->second != runner->gate().total_offered()) {
    problem = "gate_offered counter disagrees with the offers made";
  }

  Shape shape;
  if (problem.empty()) {
    problem = Verify(workload, args, *runner, runner->totals, &shape);
  }

  // Phase 3: shard 0 alone through a standalone center, for the
  // per-phase allocation split.
  std::string split_error;
  const PhaseSplit split = ReplayShardZero(workload, *runner, &split_error);
  if (problem.empty() && !split_error.empty()) {
    problem = "standalone shard replay: " + split_error;
  }
  if (!problem.empty()) std::printf("FAILED: %s\n", problem.c_str());

  const Totals& t = runner->totals;
  const SpanLedger spans = ReduceSpans(traced.tracer);
  std::vector<double> close_ms;
  std::vector<double> self_ms;
  std::vector<double> skew;
  for (const auto& [epoch, ms] : traced.close_ms) {
    close_ms.push_back(ms);
    const auto it = spans.periods.find(epoch);
    if (it == spans.periods.end()) continue;
    const PeriodLayers& layers = it->second;
    self_ms.push_back(ms - layers.drain_ms - layers.shard_union_ms);
    if (layers.shard_skew > 0.0) skew.push_back(layers.shard_skew);
  }
  double drain = 0.0;
  double prepare = 0.0;
  double admit = 0.0;
  double complete = 0.0;
  for (const auto& [epoch, layers] : spans.periods) {
    drain += layers.drain_ms;
    prepare += layers.prepare_ms;
    admit += layers.admit_ms;
    complete += layers.complete_ms;
  }
  const double phase_total = drain + prepare + admit + complete;
  double op_tuples = 0.0;
  for (const int64_t n : traced.op_tuples) op_tuples += static_cast<double>(n);
  const cluster::ExecutorStats executor =
      runner->center().executor().StatsReport();
  const double close_p50 = Quantile(close_ms, 0.5);
  const double self_p50 = Quantile(self_ms, 0.5);
  const double offered = static_cast<double>(t.offered);
  const double shape_periods = std::max(shape.periods, 1);
  const double split_periods = std::max(split.periods, 1);
  const double traced_periods = std::max(t.periods, 1);

  std::printf("%s: traced %d periods (untraced %.3f s, traced %.3f s, "
              "pool-1 %.3f s), %" PRId64 " decision samples\n",
              workload.name.c_str(), t.periods, untraced_s, t.timed_s,
              serial_s, t.windows.decisions());
  // Shares of the period phases' summed span time (shards summed,
  // autoscale counted inside prepare).
  std::printf("%s: phase shares drain %.3f prepare %.3f admit %.3f "
              "complete %.3f\n",
              workload.name.c_str(), Ratio(drain, phase_total),
              Ratio(prepare, phase_total), Ratio(admit, phase_total),
              Ratio(complete, phase_total));
  PrintResult(
      problem.empty(), t.offered, t.failed,
      {{"gate.offer_us_p50", traced.offer_us.Quantile(0.5), "us"},
       {"gate.allocs_per_offer",
        Ratio(static_cast<double>(traced.offer_allocs), offered),
        "count/offer"},
       {"gate.drain_ms_p50", Median(spans.drain_ms), "ms"},
       {"cluster.close_ms_p50", close_p50, "ms"},
       {"cluster.close_ms_p99", Quantile(close_ms, 0.99), "ms"},
       {"cluster.self_ms_p50", self_p50, "ms"},
       {"cluster.self_share", Ratio(self_p50, close_p50), "fraction"},
       {"cluster.rebalance_ms_p50", Median(spans.rebalance_ms), "ms"},
       {"cluster.steal_frac",
        Ratio(static_cast<double>(executor.tasks_stolen),
              static_cast<double>(executor.tasks_local +
                                  executor.tasks_stolen)),
        "fraction"},
       {"cluster.shard_skew", Median(skew), "ratio"},
       {"cluster.speedup_vs_pool1", Ratio(serial_s, t.timed_s), "ratio"},
       {"cloud.prepare_ms_p50", Median(spans.prepare_ms), "ms"},
       {"cloud.autoscale_ms_p50", Median(spans.autoscale_ms), "ms"},
       {"cloud.complete_ms_p50", Median(spans.complete_ms), "ms"},
       {"service.admit_ms_p50", Median(spans.admit_ms), "ms"},
       {"auction.candidates_per_admit",
        Ratio(static_cast<double>(t.shard_candidates),
              static_cast<double>(t.shard_auctions)),
        "count"},
       {"auction.admit_ratio",
        Ratio(static_cast<double>(t.auction_admitted),
              static_cast<double>(t.shard_candidates)),
        "fraction"},
       {"gate.drain_ms_per_period", drain / traced_periods, "ms"},
       {"cloud.prepare_ms_per_period", prepare / traced_periods, "ms"},
       {"service.admit_ms_per_period", admit / traced_periods, "ms"},
       {"cloud.complete_ms_per_period", complete / traced_periods, "ms"},
       {"stream.op_tuples_per_period", shape.op_tuples / shape_periods,
        "count"},
       {"stream.ns_per_op_tuple", Ratio(1e6 * complete, op_tuples), "ns"},
       {"stream.runtime_nodes", shape.runtime_nodes / shape_periods,
        "count"},
       {"stream.shared_nodes", shape.shared_nodes / shape_periods, "count"},
       {"stream.sharing_degree_mean",
        Ratio(shape.sharing_degree_sum, shape.operator_nodes), "count"},
       {"stream.utilization", shape.utilization / shape_periods,
        "fraction"},
       {"cloud.prepare_allocs_per_period",
        static_cast<double>(split.prepare_allocs) / split_periods, "count"},
       {"service.admit_allocs_per_period",
        Ratio(static_cast<double>(split.admit_allocs), split.auctions),
        "count"},
       {"cloud.complete_allocs_per_period",
        static_cast<double>(split.complete_allocs) / split_periods,
        "count"},
       {"stream.allocs_per_op_tuple",
        Ratio(static_cast<double>(split.complete_allocs),
              static_cast<double>(split.op_tuples)),
        "count"},
       {"run.allocs_per_sub",
        Ratio(static_cast<double>(traced.timed_allocs), offered),
        "count/offer"},
       {"run.decision_ms_p99", t.windows.P99(), "ms"},
       {"run.decision_samples", static_cast<double>(t.windows.decisions()),
        "count"},
       {"trace.overhead_frac", Ratio(t.timed_s, untraced_s) - 1.0,
        "fraction"}});
  return problem.empty() ? 0 : 1;
}

}  // namespace
}  // namespace streambid::perfbench

int main(int argc, char** argv) {
  using namespace streambid::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S\n",
                 argv[0]);
    return 2;
  }
  const std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  return kTraced ? RunTraced(*workload, args) : RunEndToEnd(*workload, args);
}
