// Copyright 2026 The streambid Authors
// The streaming admission gate under an open-loop firehose. The paper's
// auctions see tidy per-period batches; this bench fronts the cluster
// with StreamIngress and drives it the way the ROADMAP north-star is
// actually loaded — producer threads pushing a Zipf-skewed arrival
// stream with no feedback loop — and measures what the gate buys:
// bounded buffering (the ticket pools, not the arrival rate, cap the
// backlog), O(1) pre-auction shedding with typed retry-after statuses,
// and a probed concurrency limit that tracks measured admit throughput.
//
// Experiments (every CHECK runs in both modes):
//  1. Open-loop firehose: 4 producers, Zipf tenant skew, driver closing
//     periods concurrently. CHECKs the gate's bounded-queue invariant
//     (buffer high-water <= summed ticket capacity, per-period admits
//     <= capacity) and that overload actually sheds. Reports sustained
//     submissions/sec, shed fraction, p99 gate wait.
//  2. Probe trajectory: a closed-loop phase-shifted workload through
//     the throughput probe; prints the epoch table and CHECKs bounds
//     plus decision replay across a re-run.
//  3. Replay identity: for a closed-loop workload that never exhausts
//     tickets, gated per-period cluster reports are byte-identical to
//     direct ClusterCenter::Submit at executor pool sizes 1/2/8.
//  4. Executor allocation audit: a warmed 8-worker pool runs thousands
//     of Submit→execute→Wait cycles under the counting operator new
//     (alloc_probe.cc); CHECKs zero steady-state heap allocations on
//     the executor hot path. The firehose run additionally reports its
//     whole-stack allocations per offer (submission construction and
//     per-period report assembly included) as a trajectory metric.
//
// Emits BENCH_firehose.json (sustained submissions/sec, shed fraction,
// p99 gate wait, executor-audit numbers) — the perf-trajectory
// artifact CI uploads per PR.
//
// Usage: bench_firehose [--smoke]   (--smoke shrinks the workload for
// the ctest smoke target).

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_probe.h"
#include "bench/bench_common.h"
#include "cluster/task_executor.h"
#include "common/check.h"
#include "common/inline_function.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "gate/stream_ingress.h"
#include "service/gate_status.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace {

using namespace streambid;

Status RegisterQuotes(stream::Engine& engine) {
  return engine.RegisterSource(stream::MakeStockQuoteSource(
      "quotes", {"IBM", "AAPL", "MSFT", "GOOG"}, /*rate=*/100.0, 5));
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

cluster::ClusterOptions BaseClusterOptions(int executor_threads) {
  cluster::ClusterOptions options;
  options.num_shards = 4;
  options.total_capacity = 10.0;
  options.routing = cluster::RoutingPolicy::kHashUser;
  options.mechanism = "cat";
  options.period_length = 10.0;
  options.seed = 71;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 4;
  options.executor_threads = executor_threads;
  return options;
}

// ---------------------------------------------------------------------------
// Experiment 1: the open-loop firehose.

struct FirehoseResult {
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int periods = 0;
  double elapsed_seconds = 0.0;
  double p99_wait_ms = 0.0;
  int buffered_high_water = 0;
  int64_t heap_allocs = 0;  ///< Whole-stack, whole-run (probe).
};

FirehoseResult RunFirehose(int producers, int offers_per_producer,
                           int tickets_per_class, int tenant_classes) {
  // Pool size 8: the executor's headline configuration — the
  // perf-trajectory number tracks the admission path at a pool wider
  // than the 4-shard period fan-out.
  cluster::ClusterCenter center(BaseClusterOptions(8), RegisterQuotes);
  gate::IngressOptions options;
  options.tenant_classes = tenant_classes;
  options.tickets_per_class = tickets_per_class;
  // A short wait absorbs micro-bursts; the pools still shed hard
  // overload in O(1) once the FIFO queue outlives the timeout.
  options.acquire_timeout_ms = 0.2;
  gate::StreamIngress gate(&center, options);

  std::atomic<int> live{producers};
  const int64_t allocs_before = bench::AllocCount();
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    // Each producer owns a disjoint tenant range and a private RNG
    // stream: the firehose is skewed (Zipf over tenants, so a hot
    // cohort hammers its class) but fully seeded.
    threads.emplace_back([&gate, &live, p, offers_per_producer] {
      Rng rng(0xF12E40 + static_cast<uint64_t>(p));
      ZipfDistribution zipf(24, 1.1);
      for (int i = 0; i < offers_per_producer; ++i) {
        const int tenant = zipf.Sample(rng);
        const auction::UserId user =
            static_cast<auction::UserId>(1000 * (p + 1) + tenant);
        const int id = 1000000 * (p + 1) + i;
        const Status status = gate.Offer(
            MakeSubmission(id, user, 30.0 + 3.0 * (tenant % 8),
                           101.0 + 1.5 * (tenant % 16)));
        // Open loop: a shed is dropped on the floor, but it must be
        // the gate's typed shed — never anything else.
        if (!status.ok()) {
          STREAMBID_CHECK(service::IsShed(status));
          STREAMBID_CHECK(service::RetryAfterPeriods(status).has_value());
        }
      }
      live.fetch_sub(1);
    });
  }

  // The period driver: drain whatever the gate granted, as fast as the
  // cluster turns periods around, until the firehose dries up.
  FirehoseResult result;
  const int total_tickets = tickets_per_class * tenant_classes;
  while (live.load() > 0 || gate.buffered() > 0) {
    const auto gated = gate.ClosePeriod();
    STREAMBID_CHECK(gated.ok());
    ++result.periods;
    result.p99_wait_ms = gated->gate.wait_p99_ms;
    // The bounded-queue invariant, per period: a drain can never hand
    // the cluster more than the pools had tickets for.
    STREAMBID_CHECK_LE(gated->gate.admitted, total_tickets);
  }
  for (std::thread& t : threads) t.join();
  result.elapsed_seconds = timer.ElapsedSeconds();
  result.heap_allocs = bench::AllocCount() - allocs_before;

  result.offered = gate.total_offered();
  result.admitted = gate.total_admitted();
  result.shed = gate.total_shed();
  result.buffered_high_water = gate.buffered_high_water();
  // The whole-run invariants: the buffer never outgrew the pools, and
  // every offer is accounted exactly once.
  STREAMBID_CHECK_LE(result.buffered_high_water, total_tickets);
  STREAMBID_CHECK_EQ(result.offered, result.admitted + result.shed);
  return result;
}

FirehoseResult RunFirehoseExperiment(bool smoke) {
  const int producers = 4;
  const int offers = smoke ? 400 : 4000;
  const int tickets_per_class = smoke ? 8 : 16;
  const int classes = 2;
  std::printf("\n== open-loop firehose (%d producers x %d offers, "
              "%d tickets x %d classes, Zipf tenant skew) ==\n",
              producers, offers, tickets_per_class, classes);
  const FirehoseResult r =
      RunFirehose(producers, offers, tickets_per_class, classes);

  const double shed_fraction =
      r.offered > 0 ? static_cast<double>(r.shed) / r.offered : 0.0;
  TextTable table({"offered", "admitted", "shed", "shed_frac", "periods",
                   "subs_per_sec", "p99_wait_ms", "buffer_hw"});
  table.AddRow({FormatInt(r.offered), FormatInt(r.admitted),
                FormatInt(r.shed), FormatDouble(shed_fraction, 3),
                FormatInt(r.periods),
                FormatDouble(r.offered / r.elapsed_seconds, 0),
                FormatDouble(r.p99_wait_ms, 3),
                FormatInt(r.buffered_high_water)});
  std::fputs(table.ToAligned().c_str(), stdout);

  // An open-loop firehose against bounded pools must shed: if it never
  // did, the bench was not an overload test at all.
  STREAMBID_CHECK_GT(r.shed, 0);
  STREAMBID_CHECK_GT(r.admitted, 0);
  std::printf("# backlog bounded at %d (cap %d), %.1f%% shed before "
              "costing an auction slot\n",
              r.buffered_high_water, tickets_per_class * classes,
              100.0 * shed_fraction);
  return r;
}

// ---------------------------------------------------------------------------
// Experiment 2: the probe trajectory.

std::vector<gate::ProbeDecision> RunProbeTrajectory(int periods,
                                                    bool print) {
  cluster::ClusterCenter center(BaseClusterOptions(2), RegisterQuotes);
  gate::IngressOptions options;
  options.tenant_classes = 2;
  options.tickets_per_class = 16;
  options.probe.enabled = true;
  options.probe.initial_concurrency = 8;
  options.probe.min_concurrency = 4;
  options.probe.max_concurrency = 64;
  options.probe.seed = 9;
  gate::StreamIngress gate(&center, options);

  TextTable table({"epoch", "state", "concurrency", "stable",
                   "throughput", "ema", "reason"});
  std::vector<gate::ProbeDecision> decisions;
  int next_id = 1;
  for (int period = 0; period < periods; ++period) {
    // Phase-shifted demand: a low-rate warmup, a heavy middle, a
    // cooldown — the probe has to climb, hold, and descend.
    const int phase = period * 3 / periods;
    const int demand = phase == 0 ? 6 : phase == 1 ? 20 : 3;
    for (int t = 1; t <= demand; ++t) {
      (void)gate.Offer(MakeSubmission(next_id++, t,
                                      40.0 - 1.5 * (t % 9),
                                      101.0 + 1.5 * (t % 12)));
    }
    const auto gated = gate.ClosePeriod();
    STREAMBID_CHECK(gated.ok());
    STREAMBID_CHECK(gated->probe.has_value());
    const gate::ProbeDecision& d = *gated->probe;
    STREAMBID_CHECK_GE(d.concurrency, options.probe.min_concurrency);
    STREAMBID_CHECK_LE(d.concurrency, options.probe.max_concurrency);
    decisions.push_back(d);
    if (print) {
      table.AddRow({FormatInt(d.epoch), gate::ProbeStateName(d.state),
                    FormatInt(d.concurrency),
                    FormatInt(d.stable_concurrency),
                    FormatDouble(d.throughput, 1),
                    FormatDouble(d.ema_throughput, 2), d.reason});
    }
  }
  if (print) std::fputs(table.ToAligned().c_str(), stdout);
  return decisions;
}

void RunProbeExperiment(int periods) {
  std::printf("\n== throughput probe trajectory (%d epochs, "
              "warmup/heavy/cooldown demand) ==\n",
              periods);
  const std::vector<gate::ProbeDecision> a =
      RunProbeTrajectory(periods, /*print=*/true);
  const std::vector<gate::ProbeDecision> b =
      RunProbeTrajectory(periods, /*print=*/false);
  STREAMBID_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    STREAMBID_CHECK(a[i].state == b[i].state);
    STREAMBID_CHECK_EQ(a[i].concurrency, b[i].concurrency);
    STREAMBID_CHECK_EQ(a[i].stable_concurrency, b[i].stable_concurrency);
    STREAMBID_CHECK(a[i].reason == b[i].reason);
    STREAMBID_CHECK_EQ(a[i].ema_throughput, b[i].ema_throughput);
  }
  std::printf("# probe decisions replay byte-identically from "
              "(observations, seed)\n");
}

// ---------------------------------------------------------------------------
// Experiment 3: replay identity, gate vs direct Submit.

int ClosedLoopTenants(int period) {
  if (period % 5 == 4) return 0;
  return period % 2 == 0 ? 10 : 5;
}

stream::QuerySubmission ClosedLoopSubmission(int period, int t) {
  return MakeSubmission(100 * period + t, t, 55.0 - 3.0 * t,
                        100.0 + 5.0 * (t % 4));
}

std::vector<cluster::ClusterPeriodReport> RunClosedLoop(
    int executor_threads, bool gated, int periods) {
  cluster::ClusterCenter center(BaseClusterOptions(executor_threads),
                                RegisterQuotes);
  gate::IngressOptions options;
  options.tenant_classes = 2;
  options.tickets_per_class = 32;  // Never exhausted by this workload.
  gate::StreamIngress ingress(&center, options);

  std::vector<cluster::ClusterPeriodReport> reports;
  for (int period = 0; period < periods; ++period) {
    for (int t = 1; t <= ClosedLoopTenants(period); ++t) {
      if (gated) {
        STREAMBID_CHECK(
            ingress.Offer(ClosedLoopSubmission(period, t)).ok());
      } else {
        STREAMBID_CHECK(
            center.Submit(ClosedLoopSubmission(period, t)).ok());
      }
    }
    if (gated) {
      const auto report = ingress.ClosePeriod();
      STREAMBID_CHECK(report.ok());
      STREAMBID_CHECK_EQ(report->gate.shed, 0);
      STREAMBID_CHECK_EQ(report->gate.dropped, 0);
      reports.push_back(report->report);
    } else {
      const auto report = center.RunPeriod();
      STREAMBID_CHECK(report.ok());
      reports.push_back(*report);
    }
  }
  return reports;
}

void CheckReportsIdentical(
    const std::vector<cluster::ClusterPeriodReport>& a,
    const std::vector<cluster::ClusterPeriodReport>& b) {
  STREAMBID_CHECK_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    STREAMBID_CHECK_EQ(a[p].submissions, b[p].submissions);
    STREAMBID_CHECK_EQ(a[p].admitted, b[p].admitted);
    STREAMBID_CHECK_EQ(a[p].revenue, b[p].revenue);
    STREAMBID_CHECK_EQ(a[p].total_payoff, b[p].total_payoff);
    STREAMBID_CHECK_EQ(a[p].auction_utilization, b[p].auction_utilization);
    STREAMBID_CHECK_EQ(a[p].measured_utilization,
                       b[p].measured_utilization);
    STREAMBID_CHECK_EQ(a[p].shard_reports.size(),
                       b[p].shard_reports.size());
    for (size_t s = 0; s < a[p].shard_reports.size(); ++s) {
      STREAMBID_CHECK(a[p].shard_reports[s].admitted_ids ==
                      b[p].shard_reports[s].admitted_ids);
      STREAMBID_CHECK(a[p].shard_reports[s].payments ==
                      b[p].shard_reports[s].payments);
      STREAMBID_CHECK_EQ(a[p].shard_reports[s].revenue,
                         b[p].shard_reports[s].revenue);
    }
  }
}

void RunReplayExperiment(int periods) {
  std::printf("\n== gate replay identity vs direct Submit, executor "
              "pools 1/2/8 (%d periods) ==\n",
              periods);
  const std::vector<cluster::ClusterPeriodReport> reference =
      RunClosedLoop(1, /*gated=*/false, periods);
  for (const int threads : {1, 2, 8}) {
    CheckReportsIdentical(RunClosedLoop(threads, /*gated=*/true, periods),
                          reference);
  }
  std::printf("# gated == direct, byte-identical at every pool size\n");
}

// ---------------------------------------------------------------------------
// Experiment 4: the executor allocation audit.

struct ExecutorAuditResult {
  double tasks_per_sec = 0.0;
  int64_t heap_allocs = 0;
};

ExecutorAuditResult RunExecutorAuditExperiment(bool smoke) {
  std::printf("\n== executor allocation audit (8 workers, counting "
              "operator new) ==\n");
  cluster::ExecutorOptions exec_options;
  exec_options.num_threads = 8;
  cluster::TaskExecutor executor(exec_options);
  auto run_cycles = [&executor](int cycles) {
    int64_t acc = 0;
    for (int i = 0; i < cycles; ++i) {
      const auto ticket = executor.Submit<int>(
          [i](cluster::WorkerContext&) -> Result<int> { return i; });
      STREAMBID_CHECK(ticket.ok());
      const Result<int> result = executor.Wait(ticket.value());
      STREAMBID_CHECK(result.ok());
      acc += result.value();
    }
    return acc;
  };
  // Warm the queue ring and the ticket slots; the audited window must
  // hit only recycled storage.
  constexpr int kWarmup = 512;
  run_cycles(kWarmup);
  ExecutorAuditResult r;
  const int audited = smoke ? 2000 : 20000;
  const int64_t heap_before = bench::AllocCount();
  const int64_t spills_before = InlineFunctionHeapFallbacks();
  Timer audit_timer;
  const int64_t acc = run_cycles(audited);
  const double audit_seconds = audit_timer.ElapsedSeconds();
  STREAMBID_CHECK_EQ(acc,
                     static_cast<int64_t>(audited) * (audited - 1) / 2);
  r.heap_allocs = bench::AllocCount() - heap_before;
  r.tasks_per_sec = audited / audit_seconds;
  const cluster::TaskExecutorStats pool = executor.StatsReport();
  STREAMBID_CHECK_EQ(pool.submitted, kWarmup + audited);
  STREAMBID_CHECK_EQ(pool.executed, pool.submitted);
  std::printf("# %d submit→wait cycles, %.0f tasks/s, %lld heap "
              "allocations, %lld inline-slot spills\n",
              audited, r.tasks_per_sec,
              static_cast<long long>(r.heap_allocs),
              static_cast<long long>(InlineFunctionHeapFallbacks() -
                                     spills_before));
  // The headline CHECK: zero steady-state allocations on the
  // Submit→execute→Wait path (skipped only where a sanitizer owns the
  // allocator and the probe cannot hook it).
  if (bench::AllocProbeAvailable()) {
    STREAMBID_CHECK_EQ(r.heap_allocs, 0);
  }
  STREAMBID_CHECK_EQ(InlineFunctionHeapFallbacks() - spills_before, 0);
  return r;
}

// ---------------------------------------------------------------------------

void WriteJsonArtifact(const FirehoseResult& r,
                       const ExecutorAuditResult& audit) {
  const double shed_fraction =
      r.offered > 0 ? static_cast<double>(r.shed) / r.offered : 0.0;
  const double allocs_per_offer =
      r.offered > 0 ? static_cast<double>(r.heap_allocs) / r.offered : 0.0;
  bench::WriteBenchJson(
      "firehose",
      {{"sustained_submissions_per_sec", r.offered / r.elapsed_seconds},
       {"shed_fraction", shed_fraction},
       {"p99_gate_wait_ms", r.p99_wait_ms},
       {"offered", static_cast<double>(r.offered)},
       {"admitted", static_cast<double>(r.admitted)},
       {"shed", static_cast<double>(r.shed)},
       {"periods", static_cast<double>(r.periods)},
       {"buffered_high_water", static_cast<double>(r.buffered_high_water)},
       {"elapsed_seconds", r.elapsed_seconds},
       {"firehose_heap_allocs_per_offer", allocs_per_offer},
       {"executor_audit_tasks_per_sec", audit.tasks_per_sec},
       {"executor_audit_heap_allocs",
        static_cast<double>(audit.heap_allocs)}});
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("ticket-gated streaming admission: open-loop shedding, "
              "throughput probing, replay identity%s\n",
              smoke ? " (smoke)" : "");
  const FirehoseResult firehose = RunFirehoseExperiment(smoke);
  RunProbeExperiment(smoke ? 12 : 30);
  RunReplayExperiment(smoke ? 10 : 20);
  const ExecutorAuditResult audit = RunExecutorAuditExperiment(smoke);
  WriteJsonArtifact(firehose, audit);
  return 0;
}
