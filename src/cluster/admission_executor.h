// Copyright 2026 The streambid Authors
// The admission facade over the generic TaskExecutor: the cluster
// layer's parallel admission runtime, now expressed as closures on the
// shared worker pool instead of its own bespoke thread army. Because
// every AdmissionRequest carries its own deterministic
// (seed, request_index) RNG stream, a request's response is a pure
// function of the request: it does not matter which worker runs it, in
// what order, or how many workers exist. That is the contract that
// makes the three surfaces below safe:
//
//  - AdmitBatchParallel: blocking batch fanned across the pool via
//    TaskExecutor::RunAll, responses positionally aligned and
//    byte-identical to serial AdmissionService::AdmitBatch (timing
//    fields excepted);
//  - AdmitOn: run one auction on a worker's own service from inside a
//    generic task — the hook the ClusterCenter's pipelined period
//    chains use so their admissions still land in these rolling stats.
//
// Admission-specific diagnostics are folded into per-mechanism rolling
// stats (count, admit rate, utilization, elapsed, deadline overruns);
// StatsReport() combines them with the TaskExecutor's generic counters
// (per-worker task counts, queue-depth high-water mark).

#ifndef STREAMBID_CLUSTER_ADMISSION_EXECUTOR_H_
#define STREAMBID_CLUSTER_ADMISSION_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/task_executor.h"
#include "common/lock_order.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "service/admission_service.h"

namespace streambid::cluster {

/// Rolling per-mechanism statistics aggregated from the
/// AdmissionDiagnostics of every successful request the executor ran.
struct MechanismRollingStats {
  int64_t count = 0;              ///< Successful requests.
  int64_t deadline_overruns = 0;  ///< diagnostics.deadline_exceeded.
  RunningStats admit_rate;        ///< admitted / submitted per request.
  RunningStats utilization;       ///< diagnostics.capacity_utilization.
  RunningStats elapsed_ms;        ///< Mechanism wall clock per request.
};

/// Snapshot returned by StatsReport(). Ordered by mechanism name so
/// reports print deterministically.
struct ExecutorStats {
  int64_t total_requests = 0;   ///< Successful requests across mechanisms.
  int64_t failed_requests = 0;  ///< Requests whose execution errored.
  std::map<std::string, MechanismRollingStats> per_mechanism;
  /// Generic-pool observability (see TaskExecutorStats): every task the
  /// underlying pool executed, per worker id. Includes non-admission
  /// tasks (e.g. the ClusterCenter's period chains); its length equals
  /// num_threads() — the pool is the only place work can run.
  std::vector<int64_t> tasks_per_worker;
  /// Pool tasks executed; equal to the sum of tasks_per_worker. Kept
  /// beside tasks_stolen for readers that report a steal fraction
  /// (perfbench's cluster.steal_frac): the pool runs one shared FIFO
  /// queue, so every task counts as local.
  int64_t tasks_local = 0;
  /// Always 0: the pool has no per-worker queues to steal from.
  int64_t tasks_stolen = 0;
  /// Highest pool-wide queued-task depth observed.
  int64_t queue_high_water = 0;
};

/// Thread-pool admission runtime, a facade over TaskExecutor.
/// Thread-safe: any thread may submit batches concurrently. Instances
/// referenced by in-flight requests must outlive their completion
/// (instances are immutable and may back many concurrent requests).
class AdmissionExecutor {
 public:
  explicit AdmissionExecutor(const ExecutorOptions& options = {});

  AdmissionExecutor(const AdmissionExecutor&) = delete;
  AdmissionExecutor& operator=(const AdmissionExecutor&) = delete;

  int num_threads() const { return tasks_.num_threads(); }

  /// The generic task surface sharing this executor's pool — submit
  /// arbitrary closures (period pipelines, prepare fan-outs) alongside
  /// admissions.
  TaskExecutor& tasks() { return tasks_; }
  const TaskExecutor& tasks() const { return tasks_; }

  /// Runs `requests` across the worker pool and returns responses
  /// positionally aligned with the requests — byte-identical to serial
  /// AdmissionService::AdmitBatch on the same requests (timing fields
  /// excluded), for every pool size. Validation fails the whole batch up
  /// front with the same "request i: ..." errors as the serial path; an
  /// execution failure (feasibility check) returns the status of the
  /// lowest-index failing request.
  Result<std::vector<service::AdmissionResponse>> AdmitBatchParallel(
      const std::vector<service::AdmissionRequest>& requests);

  /// Runs one auction on `context`'s worker-local service and folds the
  /// outcome into the rolling stats. For use from inside TaskExecutor
  /// tasks (the ClusterCenter period chains): admission stays on the
  /// worker's own service, so the one-service-per-thread rule holds
  /// without extra locking.
  Result<service::AdmissionResponse> AdmitOn(
      WorkerContext& context, const service::AdmissionRequest& request);

  /// Copies the rolling per-mechanism stats plus the generic pool
  /// counters accumulated so far.
  ExecutorStats StatsReport() const;

 private:
  void RecordStats(int worker_id,
                   const Result<service::AdmissionResponse>& result);

  /// Stats are sharded per worker so the hot path never contends on a
  /// global lock (each worker touches only its own accumulator; the
  /// per-shard mutex only synchronizes against StatsReport readers).
  /// StatsReport merges via RunningStats::Merge.
  struct WorkerStats {
    mutable Mutex mutex ACQUIRED_AFTER(kClusterRankBoundary)
        ACQUIRED_BEFORE(kExecutorRankBoundary) =
            Mutex{LockRank::kClusterWorkerStats, "cluster/worker_stats"};
    int64_t total_requests GUARDED_BY(mutex) = 0;
    int64_t failed_requests GUARDED_BY(mutex) = 0;
    std::map<std::string, MechanismRollingStats> per_mechanism
        GUARDED_BY(mutex);
  };
  /// Declared before tasks_ on purpose: members destroy in reverse
  /// declaration order, and ~TaskExecutor joins the workers — which may
  /// still be running AdmitOn closures that record into these shards.
  /// The pool must die first, the stats it writes to last.
  std::vector<std::unique_ptr<WorkerStats>> worker_stats_;
  TaskExecutor tasks_;
};

}  // namespace streambid::cluster

#endif  // STREAMBID_CLUSTER_ADMISSION_EXECUTOR_H_
