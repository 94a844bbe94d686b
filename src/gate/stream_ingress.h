// Copyright 2026 The streambid Authors
// The open-loop front door of the cluster: StreamIngress accepts
// individual submissions from any number of producer threads, gates
// them through per-(mechanism, tenant-class) ticket pools, and sheds
// ticket-starved requests with a typed retry-after status BEFORE they
// cost an auction slot — the pre-admission layer the paper's
// per-period batch model leaves out. Granted submissions buffer in
// arrival order; the period driver drains them into one
// ClusterCenter::SubmitBatch + RunPeriod step and gets back the cluster
// report wrapped with the gate's own accounting.
//
// Why shed before the auction: a submission that reaches the auction
// consumes a slot in the shard's candidate set whether or not it wins,
// so under overload the auction itself becomes the queue — unbounded
// and O(auction) per reject. Tickets bound the buffered backlog at
// (pools × capacity) submissions and reject the excess in O(1) with a
// hint telling the producer when the pools will have recycled.
//
// Determinism: tickets bound HOW MANY submissions reach a period, never
// WHICH result a submission gets — the drain preserves arrival order
// and calls the same SubmitBatch/RunPeriod path a direct caller would.
// For a closed-loop workload that never exhausts tickets, the gated
// per-period reports are byte-identical to direct Submit at every
// executor pool size (tests/gate/gate_replay_test.cc). The throughput
// probe's resizes are pure functions of (admit history, seed), so they
// replay too.
//
// Threading: Offer is thread-safe (producers race freely); ClosePeriod
// and the accessors below it are the period driver's — one thread
// drives periods, which is the same single-driver surface contract
// ClusterCenter already has. Offer may race ClosePeriod: the buffer
// swap is atomic under the gate lock, and a submission that lands after
// the swap simply rides the next period.

#ifndef STREAMBID_GATE_STREAM_INGRESS_H_
#define STREAMBID_GATE_STREAM_INGRESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster_center.h"
#include "common/lock_order.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "gate/throughput_probe.h"
#include "gate/ticket_holder.h"
#include "stream/load_estimator.h"

namespace streambid::telemetry {
class Counter;
class Gauge;
class MetricsRegistry;
class PeriodTracer;
}  // namespace streambid::telemetry

namespace streambid::gate {

/// Gate configuration.
struct IngressOptions {
  /// Tenant classes (>= 1); each gets its own ticket pool, so one hot
  /// class exhausts its own pool and sheds while the others keep
  /// flowing.
  int tenant_classes = 1;
  /// Initial tickets per class pool (>= 1). The probe resizes this.
  int tickets_per_class = 64;
  /// How long Offer may wait for a ticket before shedding. 0 sheds
  /// immediately (pure open-loop); > 0 absorbs short bursts at the cost
  /// of producer latency.
  double acquire_timeout_ms = 0.0;
  /// The retry-after hint carried by shed statuses, in auction periods.
  double retry_after_periods = 1.0;
  /// Throughput-probing concurrency control (probe.enabled gates it).
  /// When enabled, each ClosePeriod feeds the admitted count to the
  /// probe and applies its concurrency, split across the class pools.
  ProbeOptions probe;
  /// Maps a submission to its tenant class in [0, tenant_classes).
  /// Default: user id modulo tenant_classes. Must be thread-safe and
  /// deterministic.
  std::function<int(const stream::QuerySubmission&)> classifier;
  /// Optional telemetry sink: Offer publishes gate_offered/gate_shed
  /// counters and the gate_buffered gauge; ClosePeriod publishes
  /// gate_admitted/gate_dropped, the merged pool-wait p99, and the
  /// probe's concurrency. Usually the same registry as
  /// ClusterOptions::metrics so one snapshot covers the whole stack.
  /// Null disables. Must outlive the gate.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Optional period tracer: each ClosePeriod records one gate_drain
  /// span (shard -1) covering the buffer swap, the SubmitBatch drain,
  /// and the ticket recycle. Null disables. Must outlive the gate.
  telemetry::PeriodTracer* tracer = nullptr;
};

/// The gate's own per-period accounting, kept OUTSIDE ClusterPeriodReport
/// so the gated cluster report stays byte-comparable with direct Submit.
struct GatePeriodStats {
  int64_t offered = 0;    ///< Offer calls this period.
  int64_t admitted = 0;   ///< Granted a ticket and drained to the cluster.
  int64_t shed = 0;       ///< Refused at the gate (no ticket).
  int64_t dropped = 0;    ///< Granted but refused by the cluster at drain.
  double wait_p99_ms = 0.0;  ///< Cumulative p99 gate wait across pools.
  /// Pool snapshots at the period close, indexed by tenant class.
  std::vector<TicketHolderStats> pools;
};

/// What ClosePeriod returns: the untouched cluster report plus the
/// gate's accounting and (when probing) the epoch's probe decision.
struct GatedPeriodReport {
  cluster::ClusterPeriodReport report;
  GatePeriodStats gate;
  std::optional<ProbeDecision> probe;
};

/// The streaming admission gate over one ClusterCenter.
class StreamIngress {
 public:
  /// `center` must outlive the gate. Preconditions (checked):
  /// tenant_classes >= 1, tickets_per_class >= 1, finite non-negative
  /// acquire_timeout_ms.
  StreamIngress(cluster::ClusterCenter* center,
                const IngressOptions& options);

  StreamIngress(const StreamIngress&) = delete;
  StreamIngress& operator=(const StreamIngress&) = delete;

  /// Offers one submission to the gate (any thread). OK: the submission
  /// holds a ticket and is buffered for the next period drain. Shed:
  /// typed kResourceExhausted from service::ShedRejection carrying the
  /// starved pool and the retry-after hint (recognize with
  /// service::IsShed). The ticket stays held until the period drain
  /// recycles it, so the buffered backlog never exceeds the summed pool
  /// capacities.
  Status Offer(stream::QuerySubmission submission);

  /// Drains the buffered submissions (in arrival order) into
  /// ClusterCenter::SubmitBatch, runs one cluster period, recycles the
  /// batch's tickets, and — when probing — applies the epoch's probe
  /// decision to the pools. Driver thread
  /// only. An empty buffer still runs the period (the cluster admits
  /// whatever its shards already hold).
  Result<GatedPeriodReport> ClosePeriod();

  int tenant_classes() const {
    return static_cast<int>(pools_.size());
  }
  /// Class pool `k` (driver thread, or any thread for stats reads —
  /// TicketHolder is itself thread-safe).
  TicketHolder& pool(int k) { return *pools_[static_cast<size_t>(k)]; }
  const TicketHolder& pool(int k) const {
    return *pools_[static_cast<size_t>(k)];
  }
  /// Submissions currently buffered for the next drain.
  int buffered() const;
  /// Largest buffer ever observed — bounded by the summed pool
  /// capacities (the bench's bounded-queue CHECK).
  int buffered_high_water() const;
  const ThroughputProbe& probe() const { return probe_; }
  const IngressOptions& options() const { return options_; }

  /// Lifetime totals across periods (driver thread).
  int64_t total_offered() const { return total_offered_; }
  int64_t total_admitted() const { return total_admitted_; }
  int64_t total_shed() const { return total_shed_; }

 private:
  /// Tenant class of `submission` via the configured classifier,
  /// clamped into range (a misbehaving classifier must not index out of
  /// the pool vector).
  int Classify(const stream::QuerySubmission& submission) const;

  cluster::ClusterCenter* center_;
  IngressOptions options_;
  /// One pool per tenant class, named "<mechanism>/class<k>".
  std::vector<std::unique_ptr<TicketHolder>> pools_;
  ThroughputProbe probe_;

  mutable Mutex mutex_ ACQUIRED_AFTER(kGateRankBoundary)
      ACQUIRED_BEFORE(kClusterRankBoundary) =
          Mutex{LockRank::kGateIngress, "gate/ingress"};
  /// Ticket-holding submissions awaiting the next drain, with the class
  /// whose pool each ticket came from.
  struct Buffered {
    stream::QuerySubmission submission;
    int tenant_class = 0;
  };
  std::vector<Buffered> buffer_ GUARDED_BY(mutex_);
  /// Driver-only drain scratch: ClosePeriod swaps it with buffer_ so
  /// both keep their high-water capacity instead of reallocating every
  /// period (the ping-pong half of the allocation-free drain). Not
  /// guarded: only the single driver thread touches it, outside the
  /// swap's critical section.
  std::vector<Buffered> drain_scratch_;
  int buffered_high_water_ GUARDED_BY(mutex_) = 0;
  /// Offer counters for the open period, written by producer threads;
  /// the drain folds them into the report.
  int64_t period_offered_ GUARDED_BY(mutex_) = 0;
  int64_t period_shed_ GUARDED_BY(mutex_) = 0;

  /// Driver-thread lifetime totals.
  int64_t total_offered_ = 0;
  int64_t total_admitted_ = 0;
  int64_t total_shed_ = 0;

  /// Telemetry instruments; all null when options.metrics is.
  telemetry::Counter* offered_metric_ = nullptr;
  telemetry::Counter* admitted_metric_ = nullptr;
  telemetry::Counter* shed_metric_ = nullptr;
  telemetry::Counter* dropped_metric_ = nullptr;
  telemetry::Gauge* buffered_metric_ = nullptr;
  telemetry::Gauge* wait_p99_metric_ = nullptr;
  telemetry::Gauge* probe_concurrency_metric_ = nullptr;
};

}  // namespace streambid::gate

#endif  // STREAMBID_GATE_STREAM_INGRESS_H_
