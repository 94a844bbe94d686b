// Copyright 2026 The streambid Authors
// The task runtime of the cluster layer: a fixed pool of persistent
// worker threads that runs argument-less closures. The cluster hands it
// one task per shard per period (the shard's whole DsmsCenter period,
// auction included, on the shard's own AdmissionService), so no stage
// spawns ad-hoc threads.
//
// The one entry point is RunAll: a blocking batch fan-out. The caller
// queues one {batch, index} item per task and sleeps until every item
// has run; each worker pops items from one FIFO queue under one mutex
// and writes the typed result into the calling batch's own vector. A
// period carries one task per shard, so the queue is a handful of
// items deep and one lock is not the bottleneck.
//
// Determinism contract: the executor adds none of its own randomness to
// results. A task's result is whatever the closure computes; closures
// that are pure functions of their captures (the admission requests'
// per-request RNG streams, a shard's private state) produce identical
// results at every pool size and interleaving. That is what lets the
// ClusterCenter run whole periods through this pool and still replay
// byte-identically.
//
// StatsReport() exposes per-worker task counts and the queue-depth
// high-water mark.

#ifndef STREAMBID_CLUSTER_TASK_EXECUTOR_H_
#define STREAMBID_CLUSTER_TASK_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/lock_order.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace streambid::telemetry {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace streambid::telemetry

namespace streambid::cluster {

/// Executor configuration.
struct ExecutorOptions {
  /// Worker threads; 0 means the CPUs actually available to this
  /// process (affinity mask ∧ cgroup quota — see
  /// common/cpu.h AvailableCpuCount), at least 1.
  int num_threads = 0;
  /// Optional telemetry sink. When set, the executor publishes
  /// executor_tasks_executed / executor_queue_depth /
  /// executor_task_latency. Null disables all of it at zero hot-path
  /// cost. Must outlive the executor.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Snapshot returned by TaskExecutor::StatsReport().
struct ExecutorStats {
  /// Tasks queued by RunAll calls.
  int64_t submitted = 0;
  /// Tasks a worker finished executing (sum of tasks_per_worker).
  int64_t executed = 0;
  /// Executed tasks whose closure returned an error Result.
  int64_t failed = 0;
  /// Highest queued (not yet running) task count observed.
  int64_t queue_high_water = 0;
  /// Tasks executed per worker, indexed by worker id. The vector length
  /// is always num_threads(): work landing anywhere else than these
  /// workers is structurally impossible, which is the "no threads
  /// outside the pool" observability hook the cluster tests assert.
  std::vector<int64_t> tasks_per_worker;
  /// Equal to executed, and tasks_stolen is always 0: the pool has one
  /// shared queue and nothing to steal from. Both are kept only for
  /// perfbench's cluster.steal_frac.
  int64_t tasks_local = 0;
  int64_t tasks_stolen = 0;
};

/// Thread-pool task runtime. Thread-safe: any number of threads outside
/// the pool may call RunAll concurrently. A task must never call RunAll
/// on its own executor — with every worker so blocked, nothing drains
/// the queue. Destruction must happen-after every RunAll call has
/// returned.
class TaskExecutor {
 public:
  /// A unit of work: runs on some worker and reports success or failure
  /// through Result<T>. T must be copy-constructible.
  template <typename T>
  using Task = std::function<Result<T>()>;

  explicit TaskExecutor(const ExecutorOptions& options = {});
  /// Joins the workers. No RunAll is in flight (see the class comment),
  /// so the queue is empty.
  ~TaskExecutor();

  TaskExecutor(const TaskExecutor&) = delete;
  TaskExecutor& operator=(const TaskExecutor&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs every task and blocks until all finish; results are
  /// positionally aligned with the tasks. All tasks run even when some
  /// fail; the lowest-index failure is returned. Must be called from
  /// outside the pool.
  template <typename T>
  Result<std::vector<T>> RunAll(std::vector<Task<T>> tasks) {
    TypedBatch<T> batch(tasks);
    RunBatch(batch, tasks.size());
    std::vector<T> out;
    out.reserve(tasks.size());
    for (Result<T>& result : batch.results) {
      if (!result.ok()) return result.status();
      out.push_back(std::move(result).value());
    }
    return out;
  }

  /// Copies the runtime counters accumulated so far.
  ExecutorStats StatsReport() const;

 private:
  /// The state one RunAll call shares with the workers, owned by the
  /// calling thread's stack frame. Each worker writes only its own
  /// item's result, outside mutex_; `remaining` is read and written
  /// only under mutex_.
  class Batch {
   public:
    Batch() = default;
    virtual ~Batch() = default;
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;
    /// Runs item `index`, stores its result, and reports success.
    virtual bool Run(size_t index) = 0;

    size_t remaining = 0;
  };
  template <typename T>
  class TypedBatch final : public Batch {
   public:
    explicit TypedBatch(std::vector<Task<T>>& tasks)
        : results(tasks.size(), Status::Internal("not run")),
          tasks_(tasks) {}
    bool Run(size_t index) override {
      results[index] = tasks_[index]();
      return results[index].ok();
    }

    std::vector<Result<T>> results;

   private:
    std::vector<Task<T>>& tasks_;
  };
  /// One queued unit: item `index` of `batch`.
  struct WorkItem {
    Batch* batch = nullptr;
    size_t index = 0;
  };

  /// Queues `size` items of `batch` and blocks until all have run.
  void RunBatch(Batch& batch, size_t size);
  void WorkerLoop(int worker_id);
  /// Appends to the ring (growing it when full) and updates the queue
  /// counters.
  void PushLocked(WorkItem item) REQUIRES(mutex_);

  mutable Mutex mutex_ ACQUIRED_AFTER(kExecutorRankBoundary)
      ACQUIRED_BEFORE(kTelemetryRankBoundary) =
          Mutex{LockRank::kExecutor, "executor/queue"};
  CondVar work_cv_;  ///< Signals queued work / teardown.
  CondVar done_cv_;  ///< Signals item completions to RunAll callers.
  bool stopping_ GUARDED_BY(mutex_) = false;

  /// FIFO ring of queued items: `count_` live entries from `head_`.
  std::vector<WorkItem> ring_ GUARDED_BY(mutex_);
  size_t head_ GUARDED_BY(mutex_) = 0;
  size_t count_ GUARDED_BY(mutex_) = 0;

  int64_t submitted_ GUARDED_BY(mutex_) = 0;
  int64_t failed_ GUARDED_BY(mutex_) = 0;
  int64_t queue_high_water_ GUARDED_BY(mutex_) = 0;
  std::vector<int64_t> executed_per_worker_ GUARDED_BY(mutex_);

  /// Telemetry instruments; all null when ExecutorOptions::metrics is.
  telemetry::Counter* tasks_executed_metric_ = nullptr;
  telemetry::Gauge* queue_depth_metric_ = nullptr;
  telemetry::Histogram* task_latency_metric_ = nullptr;

  /// Declared last: the workers read every member above.
  std::vector<std::thread> workers_;
};

}  // namespace streambid::cluster

#endif  // STREAMBID_CLUSTER_TASK_EXECUTOR_H_
