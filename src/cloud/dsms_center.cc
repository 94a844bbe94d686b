// Copyright 2026 The streambid Authors

#include "cloud/dsms_center.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace streambid::cloud {

DsmsCenter::DsmsCenter(const DsmsCenterOptions& options,
                       stream::Engine* engine)
    : options_(options), engine_(engine) {
  STREAMBID_CHECK(engine != nullptr);
  STREAMBID_CHECK(service_.HasMechanism(options.mechanism));
  service_.set_metrics(options_.metrics);
  if (options_.autoscale.enabled) {
    autoscaler_.emplace(options_.autoscale, engine_->options().capacity);
    // The controller may clamp the baseline into its bounds; the engine
    // must start the first period at the controller's capacity.
    engine_->SetCapacity(autoscaler_->capacity());
  }
  if (options_.metrics != nullptr) {
    telemetry::MetricsRegistry& metrics = *options_.metrics;
    const std::string label =
        "{shard=\"" + std::to_string(options_.shard_index) + "\"}";
    periods_metric_ = metrics.GetCounter("center_periods" + label);
    submissions_metric_ = metrics.GetCounter("center_submissions" + label);
    admitted_metric_ = metrics.GetCounter("center_admitted" + label);
    revenue_metric_ = metrics.GetGauge("center_revenue" + label);
    energy_cost_metric_ = metrics.GetGauge("center_energy_cost" + label);
    shed_fraction_metric_ = metrics.GetGauge("center_shed_fraction" + label);
    capacity_metric_ =
        metrics.GetGauge("center_provisioned_capacity" + label);
    autoscale_decisions_metric_ =
        metrics.GetCounter("center_autoscale_decisions" + label);
  }
}

Status DsmsCenter::ValidateSubmission(
    const stream::QuerySubmission& submission) const {
  if (submission.bid < 0.0) {
    return Status::InvalidArgument("negative bid");
  }
  // Resubmitting a currently ACTIVE id is a renewal (the query is
  // uninstalled at the period boundary before winners install), but two
  // pending submissions with the same id are ambiguous.
  for (const auto& p : pending_) {
    if (p.query_id == submission.query_id) {
      return Status::AlreadyExists("query id already pending: " +
                                   std::to_string(submission.query_id));
    }
  }
  // Validate the plan eagerly so users learn about malformed queries at
  // submission time, not at the auction boundary.
  return engine_->DeriveOutputSchema(submission.plan).status();
}

Status DsmsCenter::Submit(stream::QuerySubmission submission) {
  STREAMBID_RETURN_IF_ERROR(ValidateSubmission(submission));
  pending_.push_back(std::move(submission));
  return Status::Ok();
}

TenantState DsmsCenter::ExtractTenant(auction::UserId user) {
  TenantState state;
  state.user = user;
  auto keep = pending_.begin();
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->user == user) {
      state.pending.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  pending_.erase(keep, pending_.end());
  state.charged = ledger_.Extract(user);
  return state;
}

Status DsmsCenter::AdoptTenant(TenantState& state) {
  // Validate everything before mutating anything (all-or-nothing):
  // each submission passes the same checks Submit applies, plus a
  // duplicate scan within the adopted batch itself.
  for (size_t i = 0; i < state.pending.size(); ++i) {
    const stream::QuerySubmission& sub = state.pending[i];
    STREAMBID_RETURN_IF_ERROR(ValidateSubmission(sub));
    for (size_t j = 0; j < i; ++j) {
      if (state.pending[j].query_id == sub.query_id) {
        return Status::AlreadyExists("query id already pending: " +
                                     std::to_string(sub.query_id));
      }
    }
  }
  for (stream::QuerySubmission& sub : state.pending) {
    pending_.push_back(std::move(sub));
  }
  state.pending.clear();
  if (state.charged != 0.0) ledger_.Charge(state.user, state.charged);
  // Fully consumed: a (buggy) second adoption of the same state must
  // not double-credit the ledger.
  state.charged = 0.0;
  return Status::Ok();
}

Result<PreparedAuction> DsmsCenter::PrepareAuction() {
  PreparedAuction prepared;
  if (!pending_.empty()) {
    STREAMBID_ASSIGN_OR_RETURN(
        stream::AuctionBuild build,
        stream::BuildAuctionInstance(*engine_, pending_,
                                     options_.load_options));
    prepared.build =
        std::make_unique<stream::AuctionBuild>(std::move(build));
    prepared.has_auction = true;
  }

  // Closed loop: the autoscaler re-provisions the engine for the
  // upcoming period from its observation window and the period's own
  // demand. Its what-if auctions run on the center's own service, and
  // the decision is a function of center-local state only, so it
  // replays byte-identically on whatever thread runs the period.
  if (autoscaler_) {
    telemetry::ScopedSpan span(options_.tracer,
                               telemetry::Phase::kAutoscale,
                               static_cast<int>(history_.size()),
                               options_.shard_index, trace_epoch_);
    STREAMBID_ASSIGN_OR_RETURN(
        AutoscaleDecision decision,
        autoscaler_->Propose(
            service_, options_.mechanism,
            prepared.has_auction ? &prepared.build->instance : nullptr,
            options_.seed));
    engine_->SetCapacity(decision.capacity);
    pending_decision_ = std::move(decision);
    if (autoscale_decisions_metric_ != nullptr) {
      autoscale_decisions_metric_->Increment();
    }
  }
  if (!prepared.has_auction) return prepared;

  prepared.request.instance = &prepared.build->instance;
  prepared.request.capacity = engine_->options().capacity;
  prepared.request.mechanism = options_.mechanism;
  prepared.request.seed = options_.seed;
  // One auction per period: the period number is the replica index, so
  // period k replays identically regardless of earlier periods.
  prepared.request.request_index =
      static_cast<uint32_t>(history_.size());
  prepared.request.options.check_feasibility = true;
  return prepared;
}

Result<PeriodReport> DsmsCenter::CompletePeriod(
    const service::AdmissionResponse* response) {
  PeriodReport report;
  report.period = static_cast<int>(history_.size());
  report.mechanism = options_.mechanism;
  report.submissions = static_cast<int>(pending_.size());
  report.provisioned_capacity = engine_->options().capacity;
  if (pending_decision_) {
    report.autoscale_decision = std::move(pending_decision_);
    pending_decision_.reset();
  }

  const auction::Allocation* alloc = nullptr;
  if (!pending_.empty()) {
    if (response == nullptr) {
      return Status::InvalidArgument(
          "pending submissions but no admission response");
    }
    if (response->allocation.admitted.size() != pending_.size()) {
      return Status::InvalidArgument(
          "admission response sized for " +
          std::to_string(response->allocation.admitted.size()) +
          " queries, " + std::to_string(pending_.size()) + " pending");
    }
    alloc = &response->allocation;
    report.total_payoff = response->metrics.total_payoff;
    report.auction_utilization = response->metrics.utilization;
    report.auction_elapsed_ms = response->elapsed_ms;
  }

  // --- Transition phase: expired queries out, winners in (§II). ---
  engine_->BeginTransition();
  for (int qid : active_) {
    STREAMBID_RETURN_IF_ERROR(engine_->UninstallQuery(qid));
  }
  active_.clear();
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!alloc->IsAdmitted(static_cast<auction::QueryId>(i))) continue;
    const stream::QuerySubmission& sub = pending_[i];
    STREAMBID_RETURN_IF_ERROR(
        engine_->InstallQuery(sub.query_id, sub.plan));
    active_.push_back(sub.query_id);
    const double payment =
        alloc->Payment(static_cast<auction::QueryId>(i));
    ledger_.Charge(sub.user, payment);
    report.revenue += payment;
    report.payments[sub.query_id] = payment;
    report.admitted_ids.push_back(sub.query_id);
  }
  report.admitted = static_cast<int>(report.admitted_ids.size());
  STREAMBID_RETURN_IF_ERROR(engine_->CommitTransition());
  pending_.clear();

  // --- Execute the period. ---
  engine_->Run(options_.period_length);
  report.measured_utilization = engine_->LastRunUtilization();
  report.shed_fraction = engine_->LastRunShedFraction();
  report.energy_cost = options_.autoscale.energy.PeriodCost(
      report.provisioned_capacity,
      report.measured_utilization * report.provisioned_capacity);

  if (autoscaler_) {
    PeriodObservation observation;
    observation.provisioned_capacity = report.provisioned_capacity;
    observation.measured_utilization = report.measured_utilization;
    observation.auction_utilization = report.auction_utilization;
    observation.revenue = report.revenue;
    observation.shed_fraction = report.shed_fraction;
    observation.submissions = report.submissions;
    observation.admitted = report.admitted;
    autoscaler_->Observe(observation);
  }

  // Publish the period's business series. Write-only: nothing below
  // reads these back, so the report (and every future decision) is
  // identical with telemetry on or off.
  if (periods_metric_ != nullptr) {
    periods_metric_->Increment();
    submissions_metric_->Increment(report.submissions);
    admitted_metric_->Increment(report.admitted);
    revenue_metric_->Add(report.revenue);
    energy_cost_metric_->Add(report.energy_cost);
    shed_fraction_metric_->Set(report.shed_fraction);
    capacity_metric_->Set(report.provisioned_capacity);
  }

  history_.push_back(report);
  return report;
}

Result<PeriodReport> DsmsCenter::RunPeriod() {
  // Logical span key: this center's period number, fixed before any
  // phase mutates state.
  const int period = static_cast<int>(history_.size());
  telemetry::PeriodTracer* tracer = options_.tracer;
  const int shard = options_.shard_index;
  PreparedAuction prepared;
  {
    telemetry::ScopedSpan span(tracer, telemetry::Phase::kPrepare, period,
                               shard, trace_epoch_);
    STREAMBID_ASSIGN_OR_RETURN(prepared, PrepareAuction());
  }
  service::AdmissionResponse response;
  if (prepared.has_auction) {
    telemetry::ScopedSpan span(tracer, telemetry::Phase::kAdmit, period,
                               shard, trace_epoch_);
    STREAMBID_ASSIGN_OR_RETURN(response, service_.Admit(prepared.request));
  }
  telemetry::ScopedSpan span(tracer, telemetry::Phase::kComplete, period,
                             shard, trace_epoch_);
  return CompletePeriod(prepared.has_auction ? &response : nullptr);
}

}  // namespace streambid::cloud
