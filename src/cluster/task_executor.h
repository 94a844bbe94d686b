// Copyright 2026 The streambid Authors
// The generic task runtime of the cluster layer: a fixed pool of
// persistent worker threads that runs arbitrary closures, not just
// admission auctions. Each worker owns a WorkerContext — its worker id
// plus its own AdmissionService (and therefore its own AuctionContext
// scratch arena) — so admission work scheduled here still honors the
// "shard one service per thread" rule, while non-admission stages
// (auction preparation, engine execution, billing) share the same pool
// instead of spawning ad-hoc threads.
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
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/lock_order.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "service/admission_service.h"

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
  /// executor_task_latency, and each worker's AdmissionService records
  /// its per-admission series into the same registry. Null disables all
  /// of it at zero hot-path cost. Must outlive the executor.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Worker-local state handed to every task. The service is owned by the
/// worker (one per thread, never shared), so tasks may run admission
/// auctions on it without synchronization — but must not stash the
/// pointer beyond the task's own execution.
struct WorkerContext {
  int worker_id = 0;
  service::AdmissionService* service = nullptr;
};

/// Snapshot returned by TaskExecutor::StatsReport().
struct TaskExecutorStats {
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
};

/// Thread-pool task runtime. Thread-safe: any number of threads outside
/// the pool may call RunAll concurrently. A task must never call RunAll
/// on its own executor — with every worker so blocked, nothing drains
/// the queue. Destruction must happen-after every RunAll call has
/// returned.
class TaskExecutor {
 public:
  /// A unit of work: runs on some worker, sees that worker's context,
  /// reports success or failure through Result<T>. T must be
  /// copy-constructible.
  template <typename T>
  using Task = std::function<Result<T>(WorkerContext&)>;

  explicit TaskExecutor(const ExecutorOptions& options = {});
  /// Joins the workers. No RunAll is in flight (see the class comment),
  /// so the queue is empty.
  ~TaskExecutor();

  TaskExecutor(const TaskExecutor&) = delete;
  TaskExecutor& operator=(const TaskExecutor&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Worker w's admission service — exposed so facades can validate
  /// requests against the same registry the workers execute with.
  /// Const registry reads (Validate, HasMechanism, MechanismNames) are
  /// safe concurrently with tasks running on worker w; anything that
  /// can touch the service's mutable state (Admit and friends, which
  /// reuse the AuctionContext scratch) must not race them.
  service::AdmissionService& worker_service(int worker_id) {
    return *services_[static_cast<size_t>(worker_id)];
  }
  const service::AdmissionService& worker_service(int worker_id) const {
    return *services_[static_cast<size_t>(worker_id)];
  }

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
  TaskExecutorStats StatsReport() const;

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
    virtual bool Run(size_t index, WorkerContext& context) = 0;

    size_t remaining = 0;
  };
  template <typename T>
  class TypedBatch final : public Batch {
   public:
    explicit TypedBatch(std::vector<Task<T>>& tasks)
        : results(tasks.size(), Status::Internal("not run")),
          tasks_(tasks) {}
    bool Run(size_t index, WorkerContext& context) override {
      results[index] = tasks_[index](context);
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

  std::vector<std::unique_ptr<service::AdmissionService>> services_;

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
