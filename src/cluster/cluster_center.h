// Copyright 2026 The streambid Authors
// The sharded multi-center deployment: N DsmsCenters (each with its own
// engine at total_capacity / N and its own AdmissionService) behind a
// ShardRouter, with every shard's period running on the executor's
// persistent worker pool (one FIFO queue that every worker drains) and
// the per-shard PeriodReports merged into a ClusterPeriodReport. No
// per-period threads are ever spawned, and shards flow through their
// stages independently instead of barriering between phases.
//
// A period is one task per shard, handed to the pool as one blocking
// TaskExecutor::RunAll fan-out. Each task is the shard's own
// DsmsCenter::RunPeriod:
//
//   shard k:  PrepareAuction ──▶ Admit (shard's service) ──▶ CompletePeriod
//             (autoscaler grid)                              (transition +
//                                                             engine + bill)
//
// Tasks are mutually independent (a shard's service, engine, ledger,
// and autoscaler are private to it), so shard k's engine execution
// overlaps shard k+1's auction. Every stage is a deterministic function
// of shard-local state — the (seed + shard, period) request streams
// carry the auction RNG — so the pipelined report is byte-identical to
// the barriered reference (RunPeriodBarriered) at every pool size.
//
// The period tail (shared by both variants) runs on the calling thread:
// the router's per-shard view refreshes, the shard reports merge, and —
// when ClusterOptions::rebalance is enabled — a ShardRebalancer plans
// inter-period tenant migrations from the refreshed signals and applies
// them in plan order (extract from the source shard, adopt into the
// destination). The plan is a pure function of (history, seed), so the
// replay contract survives rebalancing.
//
// Surfaces: RunPeriod() runs one pipelined period and returns when it
// is merged; RunPeriodBarriered() keeps the lock-step reference
// implementation (serial prepare, pooled admission on each shard's own
// service, pooled completion) for identity tests and the pipelining
// bench.

#ifndef STREAMBID_CLUSTER_CLUSTER_CENTER_H_
#define STREAMBID_CLUSTER_CLUSTER_CENTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "cloud/dsms_center.h"
#include "cluster/shard_rebalancer.h"
#include "cluster/shard_router.h"
#include "cluster/task_executor.h"
#include "common/status.h"
#include "common/timer.h"
#include "stream/engine.h"

namespace streambid::telemetry {
class Counter;
class MetricsRegistry;
class PeriodTracer;
}  // namespace streambid::telemetry

namespace streambid::cluster {

/// Cluster configuration.
struct ClusterOptions {
  /// Number of DsmsCenter shards (>= 1).
  int num_shards = 2;
  /// Total engine capacity, split evenly across shards.
  double total_capacity = 1000.0;
  /// Submission routing policy.
  RoutingPolicy routing = RoutingPolicy::kHashUser;
  /// Admission mechanism run by every shard.
  std::string mechanism = "cat";
  /// Per-period virtual execution length (see DsmsCenterOptions).
  stream::VirtualTime period_length = 3600.0;
  /// Load model for the per-shard auctions and the router's pending-load
  /// estimates.
  stream::LoadEstimateOptions load_options;
  /// Base seed; shard s auctions on stream (seed + s, period), so shard
  /// outcomes are independent and individually replayable.
  uint64_t seed = 1;
  /// Engine settings applied to every shard (capacity is overridden with
  /// the per-shard share).
  stream::EngineOptions engine_options;
  /// Executor pool size; 0 sizes to the hardware.
  int executor_threads = 0;
  /// Per-shard closed-loop capacity autoscaling. Each shard runs its
  /// own CapacityAutoscaler against its share of total_capacity (the
  /// ratio bounds apply to the per-shard baseline); decisions are made
  /// in the shard's own prepare stage from shard-local history, so the
  /// cluster's determinism contract is unchanged. The
  /// ClusterPeriodReport aggregates the shards' total provisioned
  /// capacity and energy cost.
  cloud::AutoscalerOptions autoscale;
  /// Inter-period tenant migration (see ShardRebalancer). When enabled,
  /// each period tail plans a bounded migration from the hottest shard
  /// to the coldest one, moves the tenants' center-resident state, and
  /// pins the moved tenants to their new home via routing overrides.
  /// Plans are pure functions of (history, rebalance.seed): replay is
  /// unchanged at every pool size.
  ///
  /// Meant for stable placements (kHashUser, or tenants already
  /// pinned): the per-tenant demand signal attributes a tenant's whole
  /// period load to the shard its LAST submission routed to, so under
  /// kLeastLoaded — where one tenant's submissions can spread over
  /// several shards within a period — the pressure signal is
  /// approximate until a migration pins the tenant (after which its
  /// traffic, and therefore its signal, is exact again).
  RebalancerOptions rebalance;
  /// Optional telemetry sink, fanned through every layer the cluster
  /// owns: the executor (queue depth, task latency), each shard's
  /// DsmsCenter (per-shard labeled business series) and its admission
  /// service, plus the cluster's own period/migration counters. Null
  /// (the default) disables all of it. Must outlive the cluster.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Optional period tracer. When set, the pipelined period path
  /// records one span per (period, shard, phase): each shard's
  /// DsmsCenter::RunPeriod records prepare, admit and complete on the
  /// workers, and the cluster records the rebalance stage (shard -1).
  /// Spans are write-only annotations — replay identity is unchanged
  /// with tracing on or off. Must outlive the cluster.
  telemetry::PeriodTracer* tracer = nullptr;
};

/// One cluster period: the merged view plus the per-shard breakdown.
struct ClusterPeriodReport {
  int period = 0;
  int submissions = 0;       ///< Sum over shards.
  int admitted = 0;          ///< Sum over shards.
  double revenue = 0.0;      ///< Sum over shards.
  double total_payoff = 0.0;
  /// Means over shards weighted by each shard's provisioned_capacity,
  /// so the cluster-level figure stays truthful after the autoscalers
  /// diverge per-shard capacity (a tiny drained shard at 100% must not
  /// read like half the cluster is busy). Falls back to the plain mean
  /// only in the degenerate all-shards-at-zero-capacity period.
  double auction_utilization = 0.0;
  double measured_utilization = 0.0;
  /// Total capacity provisioned across shards this period (== the
  /// configured total unless autoscaling re-provisioned shards).
  double provisioned_capacity = 0.0;
  /// Summed per-shard energy cost under the configured EnergyModel.
  double energy_cost = 0.0;
  /// Wall clock of the whole cluster period (the fan-out through the
  /// merge, or all three barriered phases).
  double elapsed_ms = 0.0;
  /// Indexed by shard; each report carries its mechanism name.
  std::vector<cloud::PeriodReport> shard_reports;
};

/// What SubmitBatch did with a drained gate batch: how many submissions
/// each shard queue accepted, how many the cluster refused, and the
/// first refusal (in batch order) for diagnostics. Per-item refusals do
/// not abort the batch — later items still submit, mirroring what a
/// caller looping over Submit would get.
struct BatchSubmitOutcome {
  int accepted = 0;
  int rejected = 0;
  /// OK when rejected == 0; otherwise the first per-item error.
  Status first_error = Status::Ok();
};

/// N admission-controlled centers behind one router and one executor.
/// Not thread-safe at the surface (one caller drives submissions and
/// periods); internally each period's shard chains fan out on the
/// executor's persistent pool — no other threads are ever created.
class ClusterCenter {
 public:
  /// Applied to every shard engine at construction (register sources,
  /// etc.) before any submission arrives.
  using EngineConfigurator = std::function<Status(stream::Engine&)>;

  /// Preconditions (checked): num_shards >= 1, positive total capacity,
  /// registered mechanism (verified by each shard's DsmsCenter
  /// constructor). The configurator must succeed on every shard engine
  /// (checked).
  ClusterCenter(const ClusterOptions& options,
                const EngineConfigurator& configure_engine);

  /// Routes the submission to a shard and queues it there for the next
  /// period. Returns the shard index. Routing happens before admission:
  /// a submission rejected by its shard's auction is not re-routed.
  Result<int> Submit(stream::QuerySubmission submission);

  /// Moves a drained gate batch into the shard queues, in batch order —
  /// the streaming ingress path. Equivalent to calling Submit on each
  /// element (same routing, same tenant signals, so replay is identical
  /// to the loop), but per-item errors are folded into the outcome
  /// instead of aborting: the batch was already granted tickets, and a
  /// routed-but-refused submission must be accounted, not lose its
  /// successors.
  BatchSubmitOutcome SubmitBatch(std::vector<stream::QuerySubmission> batch);

  /// Runs every shard's DsmsCenter::RunPeriod (prepare -> admit ->
  /// complete) as one executor fan-out and blocks until all finish;
  /// then refreshes the router's view, merges the shard reports,
  /// appends to history(), and runs the rebalance stage. A failed shard
  /// surfaces as the lowest-shard-index error.
  Result<ClusterPeriodReport> RunPeriod();

  /// The lock-step reference implementation the pipelined path is
  /// byte-compared against: serial prepare over all shards, one pooled
  /// fan-out admitting each shard's auction on that shard's own
  /// service, then pooled completion tasks, with a barrier between
  /// phases. Same merged report (timing aside), more idle time. Records
  /// no prepare/admit/complete spans.
  Result<ClusterPeriodReport> RunPeriodBarriered();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ClusterOptions& options() const { return options_; }
  const ShardRouter& router() const { return router_; }
  TaskExecutor& executor() { return executor_; }
  const cloud::DsmsCenter& shard(int s) const {
    return *shards_[static_cast<size_t>(s)].center;
  }
  /// Router-visible status snapshots, indexed by shard.
  const std::vector<ShardStatus>& shard_statuses() const {
    return statuses_;
  }
  const std::vector<ClusterPeriodReport>& history() const {
    return history_;
  }
  /// Aggregate revenue across shards and periods.
  double total_revenue() const;

  /// Every migration plan that moved at least one tenant, in period
  /// order (empty unless options().rebalance.enabled).
  const std::vector<MigrationPlan>& migrations() const {
    return migrations_;
  }
  /// Tenants the rebalancer pinned away from their policy placement.
  const PlacementOverrides& placement_overrides() const {
    return overrides_;
  }
  const ShardRebalancer& rebalancer() const { return rebalancer_; }
  /// Number of RunPeriod calls so far (0 before the first); trace spans
  /// carry it as the period epoch. The gate layer stamps its drain
  /// spans with this after RunPeriod.
  uint64_t period_epoch() const { return period_epoch_; }

 private:
  struct Shard {
    std::unique_ptr<stream::Engine> engine;
    std::unique_ptr<cloud::DsmsCenter> center;
  };

  /// The serial tail both period variants share: refresh the router's
  /// per-shard view, merge the reports, append to history, and run the
  /// rebalance stage. `completed` is indexed by shard.
  Result<ClusterPeriodReport> MergeCompleted(
      std::vector<cloud::PeriodReport> completed, const Timer& timer);
  /// The rebalance stage of the period tail: fold the period's tenant
  /// activity into the signals, plan, and apply the migrations serially
  /// in plan order. No-op when rebalancing is disabled or the plan is
  /// empty. A failed adoption surfaces here and — like a failed shard —
  /// leaves the cluster unrecoverable mid-migration.
  Status RebalanceAfterPeriod();

  /// Submit-time view of one tenant, the rebalancer's signal source.
  struct TenantRecord {
    int home = 0;             ///< Shard the last submission routed to.
    double period_load = 0.0; ///< Accumulating over the open period.
    double last_load = 0.0;   ///< Folded at the period close.
    int last_active_period = -1;
    int last_moved_period = std::numeric_limits<int>::min();
  };

  ClusterOptions options_;
  ShardRouter router_;
  ShardRebalancer rebalancer_;
  std::vector<Shard> shards_;
  std::vector<ShardStatus> statuses_;
  std::vector<ClusterPeriodReport> history_;
  std::unordered_map<auction::UserId, TenantRecord> tenants_;
  PlacementOverrides overrides_;
  std::vector<MigrationPlan> migrations_;
  /// Bumped once by every RunPeriod.
  uint64_t period_epoch_ = 0;
  /// Cluster-level telemetry instruments; null without options.metrics.
  telemetry::Counter* periods_metric_ = nullptr;
  telemetry::Counter* migrated_tenants_metric_ = nullptr;
  /// Declared last: members destroy in reverse declaration order, so the
  /// pool's workers are joined before the shards they run against.
  TaskExecutor executor_;
};

}  // namespace streambid::cluster

#endif  // STREAMBID_CLUSTER_CLUSTER_CENTER_H_
