// Copyright 2026 The streambid Authors
// Structured period tracing: every phase of a cluster period — gate
// drain, per-shard prepare, admit, engine completion, the autoscale
// decision, the rebalance stage — records one span keyed by LOGICAL
// time (period, shard, epoch, phase). The logical key is the span's
// identity; wall-clock start/duration ride along as annotations only.
// That split is what makes traces replay-comparable: two runs of the
// same deterministic workload produce byte-identical identity
// sequences (IdentitySequence()) at every executor pool size, while
// the wall-clock annotations still tell an operator where the time
// went (ChromeTraceJson(), loadable in chrome://tracing or Perfetto).
//
// Threading: Record appends under a mutex (pool workers trace their
// shard phases concurrently); readers sort by the logical key, so the
// nondeterministic arrival order never leaks into any exported view.
//
// Zero-perturbation: a tracer constructed disabled (or a null tracer
// pointer) records nothing, and ScopedSpan skips even the clock reads,
// so disabled tracing executes no extra instructions on the period
// path. Enabled tracing writes only to the tracer's own buffer — it
// never feeds back into admission, routing, or scaling decisions.

#ifndef STREAMBID_TELEMETRY_TRACE_H_
#define STREAMBID_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/lock_order.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timer.h"

namespace streambid::telemetry {

/// The period phases, in their canonical within-(period, shard) order.
/// The enum value is the tiebreak of the logical sort key, so phases of
/// one shard's period always export in pipeline order.
enum class Phase : int {
  kGateDrain = 0,  ///< Gate buffer swap + SubmitBatch into the cluster.
  kPrepare = 1,    ///< Auction build (+ autoscaled candidate grid).
  kAutoscale = 2,  ///< The capacity decision inside prepare.
  kAdmit = 3,      ///< The admission auction on the shard's service.
  kComplete = 4,   ///< Transition + engine execution + billing.
  kRebalance = 5,  ///< The period tail's migration plan + fan-out.
};

const char* PhaseName(Phase phase);

/// One recorded span. (period, shard, epoch, phase) is the identity;
/// start_ms/duration_ms/seq are wall-clock annotations that vary run to
/// run and are excluded from IdentitySequence().
struct TraceSpan {
  Phase phase = Phase::kGateDrain;
  int period = 0;
  int shard = -1;  ///< -1 for cluster/gate-level spans.
  uint64_t epoch = 0;
  double start_ms = 0.0;     ///< Wall offset from tracer construction.
  double duration_ms = 0.0;  ///< Wall duration.
  int64_t seq = 0;           ///< Arrival order (nondeterministic).
};

/// The span recorder. Thread-safe.
class PeriodTracer {
 public:
  explicit PeriodTracer(bool enabled = true) : enabled_(enabled) {}
  PeriodTracer(const PeriodTracer&) = delete;
  PeriodTracer& operator=(const PeriodTracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Wall milliseconds since construction (the span time base).
  double NowMs() const { return since_.ElapsedMillis(); }

  /// Appends one span. No-op when disabled.
  void Record(Phase phase, int period, int shard, uint64_t epoch,
              double start_ms, double duration_ms);

  int64_t span_count() const;
  void Clear();

  /// Spans sorted by the logical key (period, shard, phase) — the
  /// deterministic export order, independent of recording interleaving.
  std::vector<TraceSpan> SortedSpans() const;

  /// One line per span, "period=<p> shard=<s> epoch=<e> phase=<name>",
  /// in logical order: byte-identical across replays of the same
  /// deterministic workload at any pool size.
  std::string IdentitySequence() const;

  /// Chrome trace format (JSON object with traceEvents of complete "X"
  /// events; ts/dur in microseconds, tid = shard + 1 so gate-level
  /// spans land on track 0). Loadable in chrome://tracing / Perfetto.
  std::string ChromeTraceJson() const;

  /// Writes ChromeTraceJson() to `path` (kInternal on I/O failure).
  Status WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  Timer since_;
  mutable Mutex mutex_ ACQUIRED_AFTER(kTelemetryRankBoundary)
      ACQUIRED_BEFORE(kLeafRankBoundary) =
          Mutex{LockRank::kPeriodTracer, "telemetry/tracer"};
  std::vector<TraceSpan> spans_ GUARDED_BY(mutex_);
  int64_t next_seq_ GUARDED_BY(mutex_) = 0;
};

/// RAII span: times its scope and records into the tracer at
/// destruction. A null or disabled tracer makes construction and
/// destruction free (no clock reads).
class ScopedSpan {
 public:
  ScopedSpan(PeriodTracer* tracer, Phase phase, int period, int shard,
             uint64_t epoch)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        phase_(phase),
        period_(period),
        shard_(shard),
        epoch_(epoch),
        start_ms_(tracer_ != nullptr ? tracer_->NowMs() : 0.0) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(phase_, period_, shard_, epoch_, start_ms_,
                      tracer_->NowMs() - start_ms_);
    }
  }

 private:
  PeriodTracer* tracer_;
  Phase phase_;
  int period_;
  int shard_;
  uint64_t epoch_;
  double start_ms_;
};

}  // namespace streambid::telemetry

#endif  // STREAMBID_TELEMETRY_TRACE_H_
