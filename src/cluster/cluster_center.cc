// Copyright 2026 The streambid Authors

#include "cluster/cluster_center.h"

#include <algorithm>
#include <limits>
#include <map>
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
  if (period_in_flight_) {
    return Status::FailedPrecondition(
        "a period is in flight: EndPeriod before Submit");
  }
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
  ++status.pending_count;
  // The rebalancer's signal source: where this tenant lives and how
  // much demand it generated this period.
  TenantRecord& record = tenants_[user];
  record.home = s;
  record.period_load += estimate.total_load;
  return s;
}

Result<BatchSubmitOutcome> ClusterCenter::SubmitBatch(
    std::vector<stream::QuerySubmission> batch) {
  if (period_in_flight_) {
    return Status::FailedPrecondition(
        "a period is in flight: EndPeriod before SubmitBatch");
  }
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

Result<cloud::PeriodReport> ClusterCenter::RunShardPeriod(
    int s, uint64_t epoch, WorkerContext& context) {
  cloud::DsmsCenter& center = *shards_[static_cast<size_t>(s)].center;
  // Logical span key: the shard's own period number, fixed before any
  // stage mutates center state.
  const int period = static_cast<int>(center.history().size());
  telemetry::PeriodTracer* tracer = options_.tracer;
  center.set_trace_epoch(epoch);
  // Stage 1: the autoscaled prepare (candidate grid + instance build)
  // — shard-local, so fanning it onto the pool changes no outcome.
  cloud::PreparedAuction prepared;
  {
    telemetry::ScopedSpan span(tracer, telemetry::Phase::kPrepare, period,
                               s, epoch);
    STREAMBID_ASSIGN_OR_RETURN(prepared, center.PrepareAuction());
  }
  // Stage 2: the auction, on this worker's own service. The
  // (seed + shard, period) request stream makes the response identical
  // to any other service running it.
  const service::AdmissionResponse* response = nullptr;
  service::AdmissionResponse admitted;
  if (prepared.has_auction) {
    telemetry::ScopedSpan span(tracer, telemetry::Phase::kAdmit, period, s,
                               epoch);
    STREAMBID_ASSIGN_OR_RETURN(
        admitted, executor_.AdmitOn(context, prepared.request));
    response = &admitted;
  }
  // Stage 3: transition + engine execution + billing.
  telemetry::ScopedSpan span(tracer, telemetry::Phase::kComplete, period, s,
                             epoch);
  return center.CompletePeriod(response);
}

Result<PendingPeriod> ClusterCenter::BeginPeriod() {
  if (period_in_flight_) {
    return Status::FailedPrecondition("a period is already in flight");
  }
  PendingPeriod period;
  period.timer.Start();
  period.shard_tickets.reserve(shards_.size());
  period.owner = this;
  period.epoch = ++period_epoch_;
  period_in_flight_ = true;
  for (int s = 0; s < num_shards(); ++s) {
    const Result<Ticket<cloud::PeriodReport>> ticket =
        executor_.tasks().Submit<cloud::PeriodReport>(
            [this, s, epoch = period.epoch](WorkerContext& context) {
              return RunShardPeriod(s, epoch, context);
            });
    if (!ticket.ok()) {
      // Submission can only fail on a shut-down executor; wait out the
      // chains already in flight so no task outlives this call's view
      // of the cluster, then surface the error.
      for (const Ticket<cloud::PeriodReport> t : period.shard_tickets) {
        (void)executor_.tasks().Wait(t);
      }
      period_in_flight_ = false;
      return ticket.status();
    }
    period.shard_tickets.push_back(*ticket);
  }
  return period;
}

Result<ClusterPeriodReport> ClusterCenter::EndPeriod(
    PendingPeriod& period) {
  if (period.consumed) {
    return Status::FailedPrecondition("period already ended");
  }
  if (!period_in_flight_) {
    return Status::FailedPrecondition("no period is in flight");
  }
  // Identity check before any state changes: a stale copy of an earlier
  // handle, a foreign cluster's handle, or a default-constructed one
  // must not unfreeze the surface while the live period's chains are
  // still running (nor strand the live handle's tickets).
  if (period.owner != this || period.epoch != period_epoch_ ||
      period.shard_tickets.size() != shards_.size()) {
    return Status::FailedPrecondition(
        "period handle does not match this cluster's in-flight period");
  }
  period.consumed = true;
  std::vector<Result<cloud::PeriodReport>> completed;
  completed.reserve(period.shard_tickets.size());
  for (const Ticket<cloud::PeriodReport> ticket : period.shard_tickets) {
    completed.push_back(executor_.tasks().Wait(ticket));
  }
  period_in_flight_ = false;
  return MergeCompleted(std::move(completed), period.timer);
}

Result<ClusterPeriodReport> ClusterCenter::RunPeriod() {
  STREAMBID_ASSIGN_OR_RETURN(PendingPeriod period, BeginPeriod());
  return EndPeriod(period);
}

Result<ClusterPeriodReport> ClusterCenter::RunPeriodBarriered() {
  if (period_in_flight_) {
    return Status::FailedPrecondition("a period is already in flight");
  }
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

  // --- Phase 2: all shard auctions as one parallel batch. ---
  std::vector<service::AdmissionRequest> requests;
  std::vector<int> owner;  // requests[k] belongs to shard owner[k].
  for (int s = 0; s < n; ++s) {
    if (!prepared[static_cast<size_t>(s)].has_auction) continue;
    requests.push_back(prepared[static_cast<size_t>(s)].request);
    owner.push_back(s);
  }
  STREAMBID_ASSIGN_OR_RETURN(
      const std::vector<service::AdmissionResponse> responses,
      executor_.AdmitBatchParallel(requests));
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
  std::vector<Ticket<cloud::PeriodReport>> tickets;
  tickets.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    const service::AdmissionResponse* response =
        response_of[static_cast<size_t>(s)];
    const Result<Ticket<cloud::PeriodReport>> ticket =
        executor_.tasks().Submit<cloud::PeriodReport>(
            [this, s, response](WorkerContext&) {
              return shards_[static_cast<size_t>(s)]
                  .center->CompletePeriod(response);
            });
    if (!ticket.ok()) {
      for (const Ticket<cloud::PeriodReport> t : tickets) {
        (void)executor_.tasks().Wait(t);
      }
      return ticket.status();
    }
    tickets.push_back(*ticket);
  }
  std::vector<Result<cloud::PeriodReport>> completed;
  completed.reserve(static_cast<size_t>(n));
  for (const Ticket<cloud::PeriodReport> ticket : tickets) {
    completed.push_back(executor_.tasks().Wait(ticket));
  }
  return MergeCompleted(std::move(completed), timer);
}

Result<ClusterPeriodReport> ClusterCenter::MergeCompleted(
    std::vector<Result<cloud::PeriodReport>> completed,
    const Timer& timer) {
  const int n = num_shards();

  // --- Refresh the router's view for every shard that completed:
  // pending demand was consumed, and the price-aware policy keys off
  // this period's clearing. This runs before any failure surfaces so a
  // partial failure does not leave stale pending-load bias on the
  // surviving shards (a failed shard itself is unrecoverable — its
  // engine may be mid-transition — matching DsmsCenter::RunPeriod
  // error semantics). ---
  Status first_error;
  for (int s = 0; s < n; ++s) {
    const Result<cloud::PeriodReport>& result =
        completed[static_cast<size_t>(s)];
    if (!result.ok()) {
      if (first_error.ok()) first_error = result.status();
      continue;
    }
    const cloud::PeriodReport& shard_report = *result;
    ShardStatus& status = statuses_[static_cast<size_t>(s)];
    status.pending_load = 0.0;
    status.pending_count = 0;
    // The engine keeps this period's provisioning until the next
    // prepare phase re-decides, so it is the router's best view of the
    // shard's next-period capacity.
    status.next_capacity = shard_report.provisioned_capacity;
    if (shard_report.submissions > 0) {
      status.has_history = true;
      // Admitting nobody means saturation, not free service: mark the
      // clearing infinite so the price-aware policy repels traffic
      // instead of funneling everything into the saturated shard.
      status.last_clearing_price =
          shard_report.admitted > 0
              ? shard_report.revenue / shard_report.admitted
              : std::numeric_limits<double>::infinity();
      status.last_admission_rate =
          static_cast<double>(shard_report.admitted) /
          shard_report.submissions;
    }
  }
  if (!first_error.ok()) return first_error;

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
  for (int s = 0; s < n; ++s) {
    Result<cloud::PeriodReport>& result =
        completed[static_cast<size_t>(s)];
    const cloud::PeriodReport& shard_report = *result;
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
    report.shard_reports.push_back(std::move(result).value());
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

  // Group the moves by shard so each phase touches a shard from at
  // most one task — parallel tasks never share a center, and the
  // ordered maps keep the fan-out (and thus the replay) deterministic.
  std::map<int, std::vector<const TenantMove*>> by_source;
  std::map<int, std::vector<const TenantMove*>> by_destination;
  for (const TenantMove& move : plan.moves) {
    by_source[move.from].push_back(&move);
    by_destination[move.to].push_back(&move);
  }

  // What one extraction task hands to the adoption phase; the load and
  // count keep the router's pending view consistent when tenants
  // migrate with submissions still queued (between periods both are
  // normally zero — the period just consumed the queue).
  struct Extracted {
    std::vector<cloud::TenantState> states;
    double pending_load = 0.0;
    int pending_count = 0;
  };

  // --- Phase 1: extraction, one task per source shard. ---
  std::vector<int> sources;
  std::vector<TaskExecutor::Task<Extracted>> extract_tasks;
  for (const auto& [from, source_moves] : by_source) {
    sources.push_back(from);
    extract_tasks.push_back(
        [this, from,
         moves = source_moves](WorkerContext&) -> Result<Extracted> {
          Shard& shard = shards_[static_cast<size_t>(from)];
          Extracted extracted;
          for (const TenantMove* move : moves) {
            cloud::TenantState state =
                shard.center->ExtractTenant(move->user);
            for (const stream::QuerySubmission& sub : state.pending) {
              STREAMBID_ASSIGN_OR_RETURN(
                  const stream::PlanLoadEstimate estimate,
                  stream::EstimatePlanLoad(*shard.engine, sub.plan,
                                           options_.load_options));
              extracted.pending_load += estimate.total_load;
              ++extracted.pending_count;
            }
            extracted.states.push_back(std::move(state));
          }
          return extracted;
        });
  }
  STREAMBID_ASSIGN_OR_RETURN(
      std::vector<Extracted> extracted_per_source,
      executor_.tasks().RunAll(std::move(extract_tasks)));

  // Reassemble per destination on the caller's thread.
  std::unordered_map<auction::UserId, cloud::TenantState> state_of;
  for (size_t k = 0; k < sources.size(); ++k) {
    Extracted& extracted = extracted_per_source[k];
    ShardStatus& status = statuses_[static_cast<size_t>(sources[k])];
    status.pending_load =
        std::max(0.0, status.pending_load - extracted.pending_load);
    status.pending_count =
        std::max(0, status.pending_count - extracted.pending_count);
    for (cloud::TenantState& state : extracted.states) {
      state_of[state.user] = std::move(state);
    }
  }

  // --- Phase 2: adoption, one task per destination shard. ---
  struct Adopted {
    double pending_load = 0.0;
    int pending_count = 0;
  };
  std::vector<int> destinations;
  std::vector<TaskExecutor::Task<Adopted>> adopt_tasks;
  for (const auto& [to, moves] : by_destination) {
    // Tasks are std::functions (copyable), so the batch travels behind
    // a shared_ptr rather than by move-capture.
    auto batch = std::make_shared<std::vector<cloud::TenantState>>();
    for (const TenantMove* move : moves) {
      batch->push_back(std::move(state_of[move->user]));
    }
    destinations.push_back(to);
    adopt_tasks.push_back(
        [this, to, batch](WorkerContext&) -> Result<Adopted> {
          Shard& shard = shards_[static_cast<size_t>(to)];
          Adopted adopted;
          for (cloud::TenantState& state : *batch) {
            for (const stream::QuerySubmission& sub : state.pending) {
              STREAMBID_ASSIGN_OR_RETURN(
                  const stream::PlanLoadEstimate estimate,
                  stream::EstimatePlanLoad(*shard.engine, sub.plan,
                                           options_.load_options));
              adopted.pending_load += estimate.total_load;
              ++adopted.pending_count;
            }
            STREAMBID_RETURN_IF_ERROR(shard.center->AdoptTenant(state));
          }
          return adopted;
        });
  }
  STREAMBID_ASSIGN_OR_RETURN(
      std::vector<Adopted> adopted_per_destination,
      executor_.tasks().RunAll(std::move(adopt_tasks)));
  for (size_t k = 0; k < destinations.size(); ++k) {
    ShardStatus& status =
        statuses_[static_cast<size_t>(destinations[k])];
    status.pending_load += adopted_per_destination[k].pending_load;
    status.pending_count += adopted_per_destination[k].pending_count;
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
