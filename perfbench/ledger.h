// Copyright 2026 The streambid Authors
// Measurement helpers for the benchmark: a fixed-memory latency
// histogram, quantiles, the byte-exact report comparison and digest
// behind the correctness check, and the per-period reduction of a
// PeriodTracer's spans into layer times.

#ifndef STREAMBID_PERFBENCH_LEDGER_H_
#define STREAMBID_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster_center.h"
#include "telemetry/trace.h"

namespace streambid::perfbench {

/// Log-bucketed histogram of positive values with 0.1% relative bucket
/// width, so quantiles of millions of samples cost a fixed ~220 KB
/// instead of memory that grows with the run (which the peak-RSS
/// metric would see). The shared log2 LatencyHistogram is too coarse
/// for a figure that must resolve a change well under 25%.
class LogHistogram {
 public:
  LogHistogram();
  void Add(double value);
  int64_t count() const { return count_; }
  /// The q-quantile (0 < q < 1), interpolated inside its bucket; 0 when
  /// empty.
  double Quantile(double q) const;

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
};

/// Splits a run into consecutive windows of at least 100 periods and
/// 2000 decisions, and reports the rate and the p50 of the windows'
/// fast quartile: the upper quartile of the window rates and the lower
/// quartile of the window p50s. A host stall that slows fewer than
/// three quarters of the windows does not move the run's figure, while
/// a change that slows every period still shows. The p99 is taken over
/// every decision of the run.
class WindowStats {
 public:
  void AddDecision(double ms);
  /// Closes one period of `offered` offers that took `timed_s` seconds.
  void EndPeriod(int64_t offered, double timed_s);

  int64_t decisions() const { return all_.count(); }
  /// Over the complete windows (the partial last window counts only
  /// when no window completed).
  double Rate() const;
  double P50() const;
  double P99() const { return all_.Quantile(0.99); }

 private:
  struct Window {
    LogHistogram latency;
    int periods = 0;
    int64_t offered = 0;
    double timed_s = 0.0;
  };
  Window open_;
  LogHistogram all_;
  std::vector<double> rates_;
  std::vector<double> p50_;
};

/// The q-quantile of `values` with linear interpolation; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Empty when the two reports agree on every field that defines the
/// period's outcome (ids, payments, revenue, payoff, utilizations,
/// capacity, energy, autoscale decisions); otherwise what differs.
/// Wall-clock fields are ignored.
std::string CompareReports(const cluster::ClusterPeriodReport& a,
                           const cluster::ClusterPeriodReport& b);

/// The same comparison for one shard's report.
std::string CompareShardReports(const cloud::PeriodReport& a,
                                const cloud::PeriodReport& b);

/// FNV-1a over the canonical, exact (hex-float) rendering of the same
/// fields CompareReports checks.
class ReportDigest {
 public:
  void Add(const cluster::ClusterPeriodReport& report);
  uint64_t value() const { return hash_; }

 private:
  void Mix(const std::string& text);
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// One cluster period's layer times, reduced from its spans.
struct PeriodLayers {
  double drain_ms = 0.0;
  double prepare_ms = 0.0;   ///< Summed over shards.
  double admit_ms = 0.0;     ///< Summed over shards.
  double complete_ms = 0.0;  ///< Summed over shards.
  /// Wall time covered by at least one shard prepare/admit/complete.
  double shard_union_ms = 0.0;
  /// Slowest shard chain (first prepare start to last complete end)
  /// over the mean chain; 0 when the period has no shard spans.
  double shard_skew = 0.0;
};

/// The spans of `tracer`, grouped by cluster epoch and reduced.
/// Per-(period, shard) spans are also returned by phase for medians.
struct SpanLedger {
  std::map<uint64_t, PeriodLayers> periods;
  std::vector<double> prepare_ms;
  std::vector<double> admit_ms;
  std::vector<double> complete_ms;
  std::vector<double> autoscale_ms;
  std::vector<double> drain_ms;
  std::vector<double> rebalance_ms;
};
SpanLedger ReduceSpans(const telemetry::PeriodTracer& tracer);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace streambid::perfbench

#endif  // STREAMBID_PERFBENCH_LEDGER_H_
