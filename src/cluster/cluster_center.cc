// Copyright 2026 The streambid Authors

#include "cluster/cluster_center.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "stream/load_estimator.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace streambid::cluster {

namespace {

ExecutorOptions MakeExecutorOptions(const ClusterOptions& options) {
  ExecutorOptions executor_options;
  executor_options.num_threads = options.executor_threads;
  executor_options.metrics = options.metrics;
  return executor_options;
}

}  // namespace

ClusterCenter::ClusterCenter(const ClusterOptions& options,
                             const EngineConfigurator& configure_engine)
    : options_(options),
      router_(options.routing, options.num_shards),
      rebalancer_(options.rebalance, options.num_shards),
      executor_(MakeExecutorOptions(options)) {
  STREAMBID_CHECK_GE(options.num_shards, 1);
  STREAMBID_CHECK_GT(options.total_capacity, 0.0);

  stream::EngineOptions engine_options = options.engine_options;
  engine_options.capacity =
      options.total_capacity / options.num_shards;

  shards_.reserve(static_cast<size_t>(options.num_shards));
  statuses_.resize(static_cast<size_t>(options.num_shards));
  for (int s = 0; s < options.num_shards; ++s) {
    Shard shard;
    shard.engine = std::make_unique<stream::Engine>(engine_options);
    if (configure_engine) {
      const Status status = configure_engine(*shard.engine);
      STREAMBID_CHECK(status.ok());
    }
    cloud::DsmsCenterOptions center_options;
    center_options.period_length = options.period_length;
    center_options.mechanism = options.mechanism;
    center_options.load_options = options.load_options;
    // Independent per-shard streams: shard s replays from (seed + s,
    // period) no matter what the other shards do.
    center_options.seed = options.seed + static_cast<uint64_t>(s);
    center_options.autoscale = options.autoscale;
    center_options.metrics = options.metrics;
    center_options.shard_index = s;
    center_options.tracer = options.tracer;
    shard.center = std::make_unique<cloud::DsmsCenter>(center_options,
                                                       shard.engine.get());
    // The router sees each shard's provisioning from the start (the
    // autoscaler may have clamped the baseline into its bounds).
    statuses_[static_cast<size_t>(s)].next_capacity =
        shard.engine->options().capacity;
    shards_.push_back(std::move(shard));
  }
  if (options_.metrics != nullptr) {
    periods_metric_ = options_.metrics->GetCounter("cluster_periods");
    migrated_tenants_metric_ =
        options_.metrics->GetCounter("cluster_migrated_tenants");
  }
}

Result<int> ClusterCenter::Submit(stream::QuerySubmission submission) {
  const auction::UserId user = submission.user;
  const int s = router_.Route(submission, statuses_, &overrides_);
  Shard& shard = shards_[static_cast<size_t>(s)];
  // Estimate before the submission is moved into the shard: the router's
  // least-loaded policy runs on these pending-load accumulations. Both
  // steps happen before any state change, so a rejected submission
  // leaves the router's view (and the tenant signals) untouched.
  STREAMBID_ASSIGN_OR_RETURN(
      const stream::PlanLoadEstimate estimate,
      stream::EstimatePlanLoad(*shard.engine, submission.plan,
                               options_.load_options));
  STREAMBID_RETURN_IF_ERROR(shard.center->Submit(std::move(submission)));
  ShardStatus& status = statuses_[static_cast<size_t>(s)];
  status.pending_load += estimate.total_load;
  // The rebalancer's signal source: where this tenant lives and how
  // much demand it generated this period.
  TenantRecord& record = tenants_[user];
  record.home = s;
  record.period_load += estimate.total_load;
  return s;
}

BatchSubmitOutcome ClusterCenter::SubmitBatch(
    std::vector<stream::QuerySubmission> batch) {
  BatchSubmitOutcome outcome;
  for (stream::QuerySubmission& submission : batch) {
    const Result<int> shard = Submit(std::move(submission));
    if (shard.ok()) {
      ++outcome.accepted;
    } else {
      ++outcome.rejected;
      if (outcome.first_error.ok()) outcome.first_error = shard.status();
    }
  }
  return outcome;
}

Result<ClusterPeriodReport> ClusterCenter::RunPeriod() {
  const Timer timer;
  ++period_epoch_;
  // Each task touches only its own shard; the epoch is read here, and
  // this thread does not change it while RunAll blocks.
  const uint64_t epoch = period_epoch_;
  std::vector<TaskExecutor::Task<cloud::PeriodReport>> periods;
  periods.reserve(shards_.size());
  for (Shard& shard : shards_) {
    cloud::DsmsCenter* center = shard.center.get();
    periods.push_back([center, epoch] {
      center->set_trace_epoch(epoch);
      return center->RunPeriod();
    });
  }
  STREAMBID_ASSIGN_OR_RETURN(std::vector<cloud::PeriodReport> completed,
                             executor_.RunAll(std::move(periods)));
  return MergeCompleted(std::move(completed), timer);
}

Result<ClusterPeriodReport> ClusterCenter::RunPeriodBarriered() {
  const int n = num_shards();
  Timer timer;

  // --- Phase 1: every shard builds its auction (serial; with
  // autoscaling this includes the candidate-grid what-if auctions). ---
  std::vector<cloud::PreparedAuction> prepared;
  prepared.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    STREAMBID_ASSIGN_OR_RETURN(
        cloud::PreparedAuction p,
        shards_[static_cast<size_t>(s)].center->PrepareAuction());
    prepared.push_back(std::move(p));
  }

  // --- Phase 2: every shard auction on its own shard's service, as
  // one pooled fan-out. ---
  std::vector<int> owner;  // Task k admits shard owner[k]'s auction.
  std::vector<TaskExecutor::Task<service::AdmissionResponse>> auctions;
  for (int s = 0; s < n; ++s) {
    if (!prepared[static_cast<size_t>(s)].has_auction) continue;
    owner.push_back(s);
    cloud::DsmsCenter* center = shards_[static_cast<size_t>(s)].center.get();
    const service::AdmissionRequest* request =
        &prepared[static_cast<size_t>(s)].request;
    auctions.push_back([center, request] {
      return center->admission_service().Admit(*request);
    });
  }
  STREAMBID_ASSIGN_OR_RETURN(
      const std::vector<service::AdmissionResponse> responses,
      executor_.RunAll(std::move(auctions)));
  std::vector<const service::AdmissionResponse*> response_of(
      static_cast<size_t>(n), nullptr);
  for (size_t k = 0; k < owner.size(); ++k) {
    response_of[static_cast<size_t>(owner[k])] = &responses[k];
  }

  // --- Phase 3: shards complete their periods as pool tasks. Each
  // slot is touched by exactly one task (a shard's engine, ledger, and
  // history are private to it), so the fan-out cannot change any
  // per-shard outcome — and the pool caps the parallelism, so a
  // many-shard cluster does not oversubscribe the machine. ---
  std::vector<TaskExecutor::Task<cloud::PeriodReport>> completions;
  completions.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    const service::AdmissionResponse* response =
        response_of[static_cast<size_t>(s)];
    completions.push_back([this, s, response] {
      return shards_[static_cast<size_t>(s)].center->CompletePeriod(
          response);
    });
  }
  STREAMBID_ASSIGN_OR_RETURN(
      std::vector<cloud::PeriodReport> completed,
      executor_.RunAll(std::move(completions)));
  return MergeCompleted(std::move(completed), timer);
}

Result<ClusterPeriodReport> ClusterCenter::MergeCompleted(
    std::vector<cloud::PeriodReport> completed, const Timer& timer) {
  const int n = num_shards();

  // --- Refresh the router's view: pending demand was consumed, and the
  // engine keeps this period's provisioning until the next prepare
  // phase re-decides, so it is the router's best view of the shard's
  // next-period capacity. ---
  for (int s = 0; s < n; ++s) {
    ShardStatus& status = statuses_[static_cast<size_t>(s)];
    status.pending_load = 0.0;
    status.next_capacity =
        completed[static_cast<size_t>(s)].provisioned_capacity;
  }

  // --- Merge into the cluster view. Utilizations are weighted by each
  // shard's provisioned capacity: once the autoscalers diverge, a
  // plain mean would let a tiny busy shard read like half the cluster
  // (the degenerate zero-total-capacity period falls back to the plain
  // mean so the fields stay defined). ---
  ClusterPeriodReport report;
  report.period = static_cast<int>(history_.size());
  report.shard_reports.reserve(static_cast<size_t>(n));
  double weighted_auction = 0.0;
  double weighted_measured = 0.0;
  for (cloud::PeriodReport& shard_report : completed) {
    report.submissions += shard_report.submissions;
    report.admitted += shard_report.admitted;
    report.revenue += shard_report.revenue;
    report.total_payoff += shard_report.total_payoff;
    weighted_auction +=
        shard_report.auction_utilization * shard_report.provisioned_capacity;
    weighted_measured +=
        shard_report.measured_utilization * shard_report.provisioned_capacity;
    report.auction_utilization += shard_report.auction_utilization / n;
    report.measured_utilization +=
        shard_report.measured_utilization / n;
    report.provisioned_capacity += shard_report.provisioned_capacity;
    report.energy_cost += shard_report.energy_cost;
    report.shard_reports.push_back(std::move(shard_report));
  }
  if (report.provisioned_capacity > 0.0) {
    report.auction_utilization =
        weighted_auction / report.provisioned_capacity;
    report.measured_utilization =
        weighted_measured / report.provisioned_capacity;
  }
  report.elapsed_ms = timer.ElapsedMillis();
  history_.push_back(report);
  if (periods_metric_ != nullptr) periods_metric_->Increment();

  // --- Fold the period's tenant activity into the rebalancer signals
  // (per-tenant state only: iteration order cannot matter), then run
  // the rebalance stage against the refreshed router view. ---
  for (auto& [user, record] : tenants_) {  // NOLINT(determinism): order-independent fold -- each tenant's record is updated from its own fields only, no cross-tenant state
    if (record.period_load > 0.0) {
      record.last_load = record.period_load;
      record.last_active_period = report.period;
      record.period_load = 0.0;
    }
  }
  {
    telemetry::ScopedSpan span(options_.tracer,
                               telemetry::Phase::kRebalance, report.period,
                               /*shard=*/-1, period_epoch_);
    STREAMBID_RETURN_IF_ERROR(RebalanceAfterPeriod());
  }
  return report;
}

Status ClusterCenter::RebalanceAfterPeriod() {
  if (!options_.rebalance.enabled || num_shards() < 2) {
    return Status::Ok();
  }
  std::vector<TenantSignal> signals;
  signals.reserve(tenants_.size());
  for (const auto& [user, record] : tenants_) {  // NOLINT(determinism): collection order is irrelevant -- ShardRebalancer::Plan sorts the signals by user id before any decision
    TenantSignal signal;
    signal.user = user;
    signal.home = record.home;
    signal.load = record.last_load;
    signal.last_active_period = record.last_active_period;
    signal.last_moved_period = record.last_moved_period;
    signals.push_back(signal);
  }
  MigrationPlan plan = rebalancer_.Plan(
      static_cast<int>(history_.size()), statuses_,
      history_.back().shard_reports, std::move(signals));
  if (plan.moves.empty()) return Status::Ok();

  // Apply the moves in plan order on this thread. Every move goes from
  // the hot shard to the cold one, and the period just consumed every
  // pending queue, so each moved TenantState carries no pending
  // submissions and the router's pending view needs no adjustment.
  for (const TenantMove& move : plan.moves) {
    cloud::TenantState state =
        shards_[static_cast<size_t>(move.from)].center->ExtractTenant(
            move.user);
    STREAMBID_RETURN_IF_ERROR(
        shards_[static_cast<size_t>(move.to)].center->AdoptTenant(state));
  }

  // --- Commit the placement: pin the tenants to their new homes. ---
  for (const TenantMove& move : plan.moves) {
    overrides_[move.user] = move.to;
    TenantRecord& record = tenants_[move.user];
    record.home = move.to;
    record.last_moved_period = plan.period;
  }
  if (migrated_tenants_metric_ != nullptr) {
    migrated_tenants_metric_->Increment(
        static_cast<int64_t>(plan.moves.size()));
  }
  migrations_.push_back(std::move(plan));
  return Status::Ok();
}

double ClusterCenter::total_revenue() const {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    total += shard.center->total_revenue();
  }
  return total;
}

}  // namespace streambid::cluster
