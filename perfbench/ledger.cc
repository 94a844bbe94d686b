// Copyright 2026 The streambid Authors

#include "perfbench/ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include <sys/resource.h>

namespace streambid::perfbench {
namespace {

constexpr double kHistMin = 1e-5;
constexpr double kHistRatio = 1.001;
constexpr double kHistMax = 1e7;

int BucketOf(double value) {
  static const double kLogRatio = std::log(kHistRatio);
  if (!(value > kHistMin)) return 0;
  return static_cast<int>(std::log(value / kHistMin) / kLogRatio);
}

double BucketLow(int bucket) {
  return kHistMin * std::pow(kHistRatio, bucket);
}

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// The outcome-defining fields of one shard's report, as exact text.
std::string Canonical(const cloud::PeriodReport& s) {
  std::string out =
      " shard " + s.mechanism + " p" + std::to_string(s.period) + " s" +
      std::to_string(s.submissions) + " a" + std::to_string(s.admitted) +
      " rev" + Hex(s.revenue) + " pay" + Hex(s.total_payoff) + " au" +
      Hex(s.auction_utilization) + " mu" + Hex(s.measured_utilization) +
      " shed" + Hex(s.shed_fraction) + " cap" +
      Hex(s.provisioned_capacity) + " en" + Hex(s.energy_cost);
  if (s.autoscale_decision) {
    const cloud::AutoscaleDecision& d = *s.autoscale_decision;
    out += " as(" + std::to_string(d.period) + "," +
           (d.evaluated ? "e" : "-") + (d.changed ? "c" : "-") + "," +
           Hex(d.previous_capacity) + "," + Hex(d.capacity) + "," +
           Hex(d.demand_estimate) + "," + Hex(d.expected_net_profit) + "," +
           d.reason + ")";
  }
  out += " ids";
  for (int id : s.admitted_ids) out += " " + std::to_string(id);
  std::vector<std::pair<int, double>> payments(s.payments.begin(),
                                               s.payments.end());
  std::sort(payments.begin(), payments.end());
  out += " payments";
  for (const auto& [id, amount] : payments) {
    out += " " + std::to_string(id) + "=" + Hex(amount);
  }
  return out + "\n";
}

/// The outcome-defining fields of one cluster report, as exact text.
std::string Canonical(const cluster::ClusterPeriodReport& r) {
  std::string out = "p" + std::to_string(r.period) + " s" +
                    std::to_string(r.submissions) + " a" +
                    std::to_string(r.admitted) + " rev" + Hex(r.revenue) +
                    " pay" + Hex(r.total_payoff) + " au" +
                    Hex(r.auction_utilization) + " mu" +
                    Hex(r.measured_utilization) + " cap" +
                    Hex(r.provisioned_capacity) + " en" +
                    Hex(r.energy_cost) + "\n";
  for (const cloud::PeriodReport& s : r.shard_reports) out += Canonical(s);
  return out;
}

}  // namespace

LogHistogram::LogHistogram()
    : buckets_(static_cast<size_t>(BucketOf(kHistMax)) + 1, 0) {}

void LogHistogram::Add(double value) {
  const int b = std::min(BucketOf(value),
                         static_cast<int>(buckets_.size()) - 1);
  ++buckets_[static_cast<size_t>(b)];
  ++count_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_);
  double seen = 0.0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const double n = static_cast<double>(buckets_[b]);
    if (n > 0.0 && seen + n >= rank) {
      const double frac = std::clamp((rank - seen) / n, 0.0, 1.0);
      const int bucket = static_cast<int>(b);
      return BucketLow(bucket) * std::pow(kHistRatio, frac);
    }
    seen += n;
  }
  return BucketLow(static_cast<int>(buckets_.size()));
}

constexpr int kWindowPeriods = 100;
constexpr int64_t kWindowDecisions = 2000;

void WindowStats::AddDecision(double ms) {
  open_.latency.Add(ms);
  all_.Add(ms);
}

void WindowStats::EndPeriod(int64_t offered, double timed_s) {
  ++open_.periods;
  open_.offered += offered;
  open_.timed_s += timed_s;
  if (open_.periods < kWindowPeriods ||
      open_.latency.count() < kWindowDecisions) {
    return;
  }
  rates_.push_back(static_cast<double>(open_.offered) / open_.timed_s);
  p50_.push_back(open_.latency.Quantile(0.5));
  open_ = Window();
}

double WindowStats::Rate() const {
  if (!rates_.empty()) return perfbench::Quantile(rates_, 0.75);
  return open_.timed_s > 0.0
             ? static_cast<double>(open_.offered) / open_.timed_s
             : 0.0;
}

double WindowStats::P50() const {
  if (!p50_.empty()) return perfbench::Quantile(p50_, 0.25);
  return open_.latency.Quantile(0.5);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string CompareReports(const cluster::ClusterPeriodReport& a,
                           const cluster::ClusterPeriodReport& b) {
  const std::string ca = Canonical(a);
  const std::string cb = Canonical(b);
  if (ca == cb) return "";
  return "gated:\n" + ca + "reference:\n" + cb;
}

std::string CompareShardReports(const cloud::PeriodReport& a,
                                const cloud::PeriodReport& b) {
  const std::string ca = Canonical(a);
  const std::string cb = Canonical(b);
  if (ca == cb) return "";
  return "cluster shard:\n" + ca + "standalone:\n" + cb;
}

void ReportDigest::Add(const cluster::ClusterPeriodReport& report) {
  Mix(Canonical(report));
}

void ReportDigest::Mix(const std::string& text) {
  for (unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 0x100000001B3ull;
  }
}

SpanLedger ReduceSpans(const telemetry::PeriodTracer& tracer) {
  struct Interval {
    double start;
    double end;
  };
  struct EpochSpans {
    std::vector<Interval> shard_work;
    std::map<int, Interval> chains;  // By shard.
  };
  SpanLedger ledger;
  std::map<uint64_t, EpochSpans> epochs;
  for (const telemetry::TraceSpan& span : tracer.SortedSpans()) {
    PeriodLayers& layers = ledger.periods[span.epoch];
    EpochSpans& spans = epochs[span.epoch];
    const Interval interval{span.start_ms, span.start_ms + span.duration_ms};
    switch (span.phase) {
      case telemetry::Phase::kGateDrain:
        layers.drain_ms += span.duration_ms;
        ledger.drain_ms.push_back(span.duration_ms);
        continue;
      case telemetry::Phase::kAutoscale:
        // Nested inside prepare: reported on its own, never summed.
        ledger.autoscale_ms.push_back(span.duration_ms);
        continue;
      case telemetry::Phase::kRebalance:
        ledger.rebalance_ms.push_back(span.duration_ms);
        continue;
      case telemetry::Phase::kPrepare:
        layers.prepare_ms += span.duration_ms;
        ledger.prepare_ms.push_back(span.duration_ms);
        break;
      case telemetry::Phase::kAdmit:
        layers.admit_ms += span.duration_ms;
        ledger.admit_ms.push_back(span.duration_ms);
        break;
      case telemetry::Phase::kComplete:
        layers.complete_ms += span.duration_ms;
        ledger.complete_ms.push_back(span.duration_ms);
        break;
    }
    spans.shard_work.push_back(interval);
    auto [it, inserted] = spans.chains.emplace(span.shard, interval);
    if (!inserted) {
      it->second.start = std::min(it->second.start, interval.start);
      it->second.end = std::max(it->second.end, interval.end);
    }
  }
  for (auto& [epoch, spans] : epochs) {
    PeriodLayers& layers = ledger.periods[epoch];
    std::vector<Interval>& work = spans.shard_work;
    std::sort(work.begin(), work.end(),
              [](const Interval& x, const Interval& y) {
                return x.start < y.start;
              });
    double covered = 0.0;
    double open_start = 0.0;
    double open_end = -1.0;
    for (const Interval& i : work) {
      if (i.start > open_end) {
        if (open_end > open_start) covered += open_end - open_start;
        open_start = i.start;
        open_end = i.end;
      } else {
        open_end = std::max(open_end, i.end);
      }
    }
    if (open_end > open_start) covered += open_end - open_start;
    layers.shard_union_ms = covered;
    if (!spans.chains.empty()) {
      double slowest = 0.0;
      double total = 0.0;
      for (const auto& [shard, chain] : spans.chains) {
        slowest = std::max(slowest, chain.end - chain.start);
        total += chain.end - chain.start;
      }
      const double mean = total / static_cast<double>(spans.chains.size());
      layers.shard_skew = mean > 0.0 ? slowest / mean : 0.0;
    }
  }
  return ledger;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace streambid::perfbench
