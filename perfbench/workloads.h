// Copyright 2026 The streambid Authors
// The benchmark's workloads: each is a cluster + gate configuration and
// a seeded, per-period submission generator. A period's batch is a pure
// function of (seed, period), so a batch can be regenerated for the
// correctness replay without replaying the periods before it, and only
// one batch is alive at a time.

#ifndef STREAMBID_PERFBENCH_WORKLOADS_H_
#define STREAMBID_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_center.h"
#include "gate/stream_ingress.h"
#include "stream/load_estimator.h"

namespace streambid::perfbench {

/// Produces the submissions offered in one period.
class BatchGenerator {
 public:
  virtual ~BatchGenerator() = default;
  /// The period's offers, in offer order. Deterministic in
  /// (seed, period); query ids are unique across periods.
  virtual std::vector<stream::QuerySubmission> Batch(int period) const = 0;
};

/// The layer a workload exists to load. The run fails when that load
/// did not happen, because a benchmark that measures an idle layer
/// reports numbers that mean nothing.
enum class Stressor {
  kEngine,   ///< Operator tuples through shared runtime nodes.
  kAuction,  ///< Gate sheds and auction rejections.
  kControl,  ///< Tenant migrations and autoscaler capacity changes.
};

/// What the run loop needs to know about a workload.
struct Workload {
  std::string name;
  Stressor stressor = Stressor::kEngine;
  /// Cluster configuration; executor_threads is set by the caller.
  cluster::ClusterOptions cluster;
  /// Registers the workload's sources on every shard engine.
  cluster::ClusterCenter::EngineConfigurator configure_engine;
  /// Gate configuration (telemetry pointers are set by the caller).
  gate::IngressOptions ingress;
  std::unique_ptr<BatchGenerator> generator;
  /// Periods run inside set-up, before anything is timed.
  int warmup_periods = 0;
  /// Periods replayed by the correctness check (counted from period 0,
  /// so the warm-up periods are included) and over which the traced
  /// run's engine-shape metrics are taken.
  int check_periods = 0;
  /// Every end-to-end run reaches this many periods (counted from
  /// period 0). The outcome figures (shed, admit, net) are totalled over
  /// the periods from the warm-up up to here, and peak RSS is read here,
  /// so none of them depends on how many periods fit in the run. The
  /// outcome figures repeat exactly for a seed.
  int outcome_periods = 0;
};

/// Builds workload `name` for `seed`; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace streambid::perfbench

#endif  // STREAMBID_PERFBENCH_WORKLOADS_H_
