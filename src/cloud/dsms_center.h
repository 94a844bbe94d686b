// Copyright 2026 The streambid Authors
// The DSMS "cloud center" of paper §I-II: a for-profit service that, at
// the end of each subscription period, auctions the next period's server
// capacity among submitted continuous queries, installs the winners into
// the stream engine through the §II transition phase, executes the
// period, and bills the winners the mechanism's payments. Auctions run
// on the center's own AdmissionService; the per-period request stream
// is (options.seed, period), so any period's auction replays in
// isolation. The cluster layer runs one center per shard and calls
// each shard's RunPeriod as one task on its executor pool.

#ifndef STREAMBID_CLOUD_DSMS_CENTER_H_
#define STREAMBID_CLOUD_DSMS_CENTER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/autoscaler.h"
#include "common/status.h"
#include "service/admission_service.h"
#include "stream/engine.h"
#include "stream/load_estimator.h"

namespace streambid::telemetry {
class Counter;
class Gauge;
class MetricsRegistry;
class PeriodTracer;
}  // namespace streambid::telemetry

namespace streambid::cloud {

/// Center configuration.
struct DsmsCenterOptions {
  /// Length of one subscription period in virtual seconds ("say, a
  /// day" — we default to a compressed day for fast simulation).
  stream::VirtualTime period_length = 3600.0;
  /// Admission mechanism name (see AdmissionService::MechanismNames()).
  std::string mechanism = "cat";
  /// Load model used to derive operator loads for the auction.
  stream::LoadEstimateOptions load_options;
  /// Seed for randomized mechanisms.
  uint64_t seed = 1;
  /// Closed-loop capacity autoscaling (§VII). When enabled, each
  /// PrepareAuction re-provisions the engine via a CapacityAutoscaler
  /// seeded with the engine's construction-time capacity as baseline.
  /// The energy model inside prices PeriodReport::energy_cost whether
  /// or not autoscaling is on.
  AutoscalerOptions autoscale;
  /// Optional telemetry sink. When set, every period publishes the
  /// center's business series — revenue, energy cost, shed fraction,
  /// provisioned capacity, admitted/submitted counts, and the
  /// autoscaler's capacity decisions — labeled {shard="<shard_index>"},
  /// and the center's AdmissionService publishes its unlabeled
  /// service_admissions / service_admit_latency series. Null disables
  /// publication entirely. Must outlive the center.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// The label value for this center's metric series (the cluster layer
  /// passes the shard index; standalone centers default to 0).
  int shard_index = 0;
  /// Optional period tracer. When set, RunPeriod records one kPrepare,
  /// one kAdmit (only when the period has an auction) and one kComplete
  /// span per period, and PrepareAuction records a kAutoscale span when
  /// autoscaling is enabled. Every span is keyed by (history size at
  /// entry, shard_index, set_trace_epoch's value). Null disables. Must
  /// outlive the center.
  telemetry::PeriodTracer* tracer = nullptr;
};

/// Outcome of one subscription period.
struct PeriodReport {
  int period = 0;
  /// Admission mechanism that ran this period's auction — carried so
  /// aggregated reports (cluster layer) need not reach back into the
  /// center's options.
  std::string mechanism;
  int submissions = 0;
  int admitted = 0;
  double revenue = 0.0;
  /// Winners' total payoff (bid - payment), assuming truthful bids.
  double total_payoff = 0.0;
  /// Utilization per the auction's load model.
  double auction_utilization = 0.0;
  /// Utilization actually measured by the engine over the period.
  double measured_utilization = 0.0;
  /// Fraction of arriving source tuples shed by engine overload
  /// protection (0 unless EngineOptions::shed_on_overload).
  double shed_fraction = 0.0;
  /// Capacity the engine ran this period at (equals the construction
  /// capacity unless the autoscaler re-provisioned).
  double provisioned_capacity = 0.0;
  /// Energy cost of the period under the configured EnergyModel
  /// (options.autoscale.energy), computed whether or not autoscaling
  /// is enabled so fixed-vs-autoscaled net profit is comparable.
  double energy_cost = 0.0;
  /// The autoscaler's decision for this period; absent when
  /// autoscaling is disabled.
  std::optional<AutoscaleDecision> autoscale_decision;
  /// Wall-clock milliseconds the admission auction took.
  double auction_elapsed_ms = 0.0;
  /// Engine query ids admitted this period.
  std::vector<int> admitted_ids;
  /// Payment charged per admitted engine query id. Hot billing path:
  /// hashed, not ordered — sort keys at the presentation layer.
  std::unordered_map<int, double> payments;
};

/// Per-user cumulative billing ledger. Hot path on every period close;
/// hashed lookups, no ordering guarantee on iteration.
class BillingLedger {
 public:
  void Charge(auction::UserId user, double amount) {
    charges_[user] += amount;
    total_ += amount;
  }
  /// Removes `user`'s cumulative charges and returns them, so a
  /// migrating tenant's billing history can be carried to the adopting
  /// center's ledger (Charge there restores the cluster-wide total).
  double Extract(auction::UserId user) {
    auto it = charges_.find(user);
    if (it == charges_.end()) return 0.0;
    const double amount = it->second;
    charges_.erase(it);
    total_ -= amount;
    return amount;
  }
  double TotalCharged(auction::UserId user) const {
    auto it = charges_.find(user);
    return it == charges_.end() ? 0.0 : it->second;
  }
  double total() const { return total_; }
  const std::unordered_map<auction::UserId, double>& charges() const {
    return charges_;
  }

 private:
  std::unordered_map<auction::UserId, double> charges_;
  double total_ = 0.0;
};

/// The auction inputs for one period boundary, built from the pending
/// submissions. The admission request's instance points into `build`,
/// which is heap-held so the struct stays valid across moves — the
/// cluster's barriered reference period collects one of these per
/// shard, admits each on that shard's own service, and hands each
/// response back to CompletePeriod.
struct PreparedAuction {
  /// False when no submissions are pending (the period still runs:
  /// CompletePeriod(nullptr) expires active queries and executes).
  bool has_auction = false;
  std::unique_ptr<stream::AuctionBuild> build;
  service::AdmissionRequest request;
};

/// One tenant's center-resident state, as moved between centers by the
/// cluster layer's inter-period rebalancer: the submissions still
/// waiting for an auction plus the cumulative ledger charges. Active
/// (installed) queries are never part of it — they expire at the next
/// period boundary of the center that admitted them, so migration
/// between periods never touches engine state.
struct TenantState {
  auction::UserId user = 0;
  /// Pending (not yet auctioned) submissions, in submission order.
  std::vector<stream::QuerySubmission> pending;
  /// Cumulative charges carried to the adopting center's ledger.
  double charged = 0.0;
};

/// The admission-controlled streaming service. Borrows an engine whose
/// capacity defines the auction capacity.
class DsmsCenter {
 public:
  /// Precondition (checked): `engine` is non-null. The caller retains
  /// ownership and must keep the engine alive for the center's lifetime.
  /// The mechanism name must be registered (checked).
  DsmsCenter(const DsmsCenterOptions& options, stream::Engine* engine);

  /// Queues a query submission (bid + plan) for the next period's
  /// auction. Fails fast when the plan does not validate against the
  /// engine (kInvalidArgument/kNotFound) or the id is already pending
  /// or active (kAlreadyExists).
  Status Submit(stream::QuerySubmission submission);

  /// Ends the current period: runs the auction over pending
  /// submissions, transitions the engine (expired queries out, winners
  /// in), executes one period of stream processing, and bills winners.
  /// Queries run for exactly one period; users must resubmit to renew
  /// (see SubscriptionManager for the §VII multi-period extension).
  /// Equivalent to PrepareAuction + Admit on the own service +
  /// CompletePeriod, each phase traced (see DsmsCenterOptions::tracer).
  /// May run on any thread under the same serialization contract as
  /// PrepareAuction: the cluster layer runs it on a pool worker.
  Result<PeriodReport> RunPeriod();

  /// Builds this period's auction instance and admission request from
  /// the pending submissions without running anything. The request's
  /// stream is (options.seed, period), exactly as RunPeriod would use,
  /// so admitting it through any AdmissionService — including another
  /// thread's — yields the identical allocation. With autoscaling
  /// enabled this also commits the period's provisioning decision
  /// (engine re-provisioned, request capacity set) — call it exactly
  /// once per period.
  ///
  /// Thread placement: PrepareAuction and CompletePeriod may run on any
  /// thread (the cluster's barriered reference period completes shards
  /// on its TaskExecutor pool workers), as long as calls against one
  /// center are externally serialized — the center itself is not
  /// thread-safe. Both are deterministic functions of center-local
  /// state, so placement never changes a report.
  Result<PreparedAuction> PrepareAuction();

  /// Sets the logical epoch stamped onto this center's trace spans (the
  /// cluster layer forwards its period epoch before each RunPeriod;
  /// standalone centers can leave the default 0). Same serialization
  /// contract as PrepareAuction.
  void set_trace_epoch(uint64_t epoch) { trace_epoch_ = epoch; }

  /// Applies an admission outcome and finishes the period: transition,
  /// execution, billing, history. `response` must be the result of
  /// admitting the PreparedAuction request (null iff there was no
  /// auction; kInvalidArgument when submissions are pending but the
  /// response is missing or mis-sized). See PrepareAuction for the
  /// thread-placement contract.
  Result<PeriodReport> CompletePeriod(
      const service::AdmissionResponse* response);

  /// Removes `user`'s center-resident state (see TenantState): the
  /// user's pending submissions leave the next auction and the
  /// cumulative ledger charges move out with them. Always succeeds; a
  /// tenant this center never saw yields an empty state. Call between
  /// periods (never while a prepared auction is outstanding — the
  /// prepared instance indexes the pending vector positionally).
  TenantState ExtractTenant(auction::UserId user);

  /// Installs a tenant extracted from another center: validates every
  /// pending submission exactly as Submit would, re-queues them for
  /// the next auction, and credits the carried charges to this ledger.
  /// All-or-nothing: any validation failure (kAlreadyExists on a
  /// pending-id collision, kInvalidArgument/kNotFound on a plan this
  /// engine rejects) leaves the center untouched — the caller still
  /// owns the state. On success the state is fully consumed (pending
  /// emptied, charged zeroed).
  Status AdoptTenant(TenantState& state);

  /// Total revenue across periods.
  double total_revenue() const { return ledger_.total(); }

  const BillingLedger& ledger() const { return ledger_; }
  const std::vector<PeriodReport>& history() const { return history_; }
  const std::vector<int>& active_queries() const { return active_; }
  int pending_submissions() const {
    return static_cast<int>(pending_.size());
  }
  stream::Engine& engine() { return *engine_; }
  const stream::Engine& engine() const { return *engine_; }
  service::AdmissionService& admission_service() { return service_; }
  const service::AdmissionService& admission_service() const {
    return service_;
  }
  const DsmsCenterOptions& options() const { return options_; }
  /// The capacity controller; null unless options.autoscale.enabled.
  const CapacityAutoscaler* autoscaler() const {
    return autoscaler_ ? &*autoscaler_ : nullptr;
  }

 private:
  /// The one submission gate Submit and AdoptTenant share: bid sign,
  /// pending-id uniqueness, plan validation against the engine.
  Status ValidateSubmission(const stream::QuerySubmission& submission) const;

  DsmsCenterOptions options_;
  stream::Engine* engine_;
  service::AdmissionService service_;

  std::vector<stream::QuerySubmission> pending_;
  std::vector<int> active_;  // Engine query ids installed this period.
  BillingLedger ledger_;
  std::vector<PeriodReport> history_;
  std::optional<CapacityAutoscaler> autoscaler_;
  /// Decision taken at PrepareAuction, recorded into the report by
  /// CompletePeriod.
  std::optional<AutoscaleDecision> pending_decision_;

  /// Telemetry instruments, resolved once at construction; all null
  /// when options.metrics is.
  telemetry::Counter* periods_metric_ = nullptr;
  telemetry::Counter* submissions_metric_ = nullptr;
  telemetry::Counter* admitted_metric_ = nullptr;
  telemetry::Counter* autoscale_decisions_metric_ = nullptr;
  telemetry::Gauge* revenue_metric_ = nullptr;
  telemetry::Gauge* energy_cost_metric_ = nullptr;
  telemetry::Gauge* shed_fraction_metric_ = nullptr;
  telemetry::Gauge* capacity_metric_ = nullptr;
  /// Epoch stamped onto this center's spans (see set_trace_epoch).
  uint64_t trace_epoch_ = 0;
};

}  // namespace streambid::cloud

#endif  // STREAMBID_CLOUD_DSMS_CENTER_H_
