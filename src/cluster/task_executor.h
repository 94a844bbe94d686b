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
// Scheduling: one FIFO queue under one mutex, drained by every worker;
// a work-available condvar parks idle workers and a completion condvar
// wakes Wait()ers and RunAll callers. A period carries one task chain
// per shard, so the queue is a handful of items deep and one lock is
// not the bottleneck. Nothing on the Submit→execute→Wait path
// allocates in steady state: tasks travel in InlineFunction slots
// inside a recycled ring, and results in recycled ticket slots.
//
// Determinism contract: the executor adds none of its own randomness to
// results. A task's result is whatever the closure computes; closures
// that are pure functions of their captures (the admission requests'
// per-request RNG streams, a shard's private state) produce identical
// results at every pool size and interleaving. That is what lets the
// ClusterCenter pipeline whole periods through this pool and still
// replay byte-identically.
//
// Surfaces:
//  - Submit -> Ticket<T>, Wait(Ticket<T>): async submission with typed
//    completion handles. Tickets are issued once and consumed once;
//    errors inside the closure come back as the ticket's Result<T>.
//  - RunAll: blocking batch fan-out, results positionally aligned; the
//    lowest-index failure is returned (all tasks still run).
//  - StatsReport(): per-worker task counts and the queue-depth
//    high-water mark.
// Destruction discards queued work (running tasks finish) and fails
// every unconsumed ticket with kFailedPrecondition.

#ifndef STREAMBID_CLUSTER_TASK_EXECUTOR_H_
#define STREAMBID_CLUSTER_TASK_EXECUTOR_H_

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/inline_function.h"
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

/// Typed completion handle. Tickets are issued once and consumed once:
/// a successful Wait removes the result, and the T parameter binds the
/// handle to its task's result type at compile time.
template <typename T>
struct Ticket {
  uint64_t id = 0;
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
  /// Tasks accepted into the queue (async submissions + batch items).
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

/// Thread-pool task runtime. Thread-safe: any thread may submit tasks
/// and wait on tickets concurrently. Tasks may submit further tasks,
/// but must never Wait() on a ticket of the same executor — with every
/// worker so blocked, nothing drains the queue. Destruction must
/// happen-after every concurrent Submit/Wait/RunAll call has returned.
class TaskExecutor {
 public:
  /// A unit of work: runs on some worker, sees that worker's context,
  /// reports success or failure through Result<T>. T must be movable
  /// and copy-constructible (results travel through the type-erased
  /// completion slot). Deliberately a copyable std::function — callers
  /// build task vectors they reuse; the executor re-wraps it into its
  /// own move-only inline slot at submission.
  template <typename T>
  using Task = std::function<Result<T>(WorkerContext&)>;

  explicit TaskExecutor(const ExecutorOptions& options = {});
  /// Discards queued work (running tasks finish) and completes every
  /// unconsumed ticket with kFailedPrecondition so a straggling Wait
  /// unblocks.
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

  /// Queues `task`; the returned ticket completes on some worker.
  /// kFailedPrecondition once destruction has begun.
  template <typename T>
  Result<Ticket<T>> Submit(Task<T> task) {
    STREAMBID_ASSIGN_OR_RETURN(const uint64_t id,
                               SubmitErased(Erase<T>(std::move(task))));
    return Ticket<T>{id};
  }

  /// Blocks until the ticket completes and returns its result, removing
  /// it. kNotFound for never-issued or already-consumed tickets — also
  /// when the consumed ticket's slot has since been recycled for a
  /// later task. Never hangs across destruction (pending tickets error
  /// out).
  template <typename T>
  Result<T> Wait(Ticket<T> ticket) {
    return Unerase<T>(WaitErased(ticket.id));
  }

  /// Runs every task and blocks until all finish; results are
  /// positionally aligned with the tasks. All tasks run even when some
  /// fail; the lowest-index failure is returned. Must be called from
  /// outside the pool.
  template <typename T>
  Result<std::vector<T>> RunAll(std::vector<Task<T>> tasks) {
    std::vector<ErasedTask> erased;
    erased.reserve(tasks.size());
    for (Task<T>& task : tasks) {
      erased.push_back(Erase<T>(std::move(task)));
    }
    STREAMBID_ASSIGN_OR_RETURN(std::vector<ErasedResult> results,
                               RunAllErased(std::move(erased)));
    std::vector<T> out;
    out.reserve(results.size());
    for (ErasedResult& result : results) {
      STREAMBID_ASSIGN_OR_RETURN(T value, Unerase<T>(std::move(result)));
      out.push_back(std::move(value));
    }
    return out;
  }

  /// Outstanding (submitted, not yet consumed) tickets.
  int pending_tasks() const;

  /// Copies the runtime counters accumulated so far.
  TaskExecutorStats StatsReport() const;

 private:
  using ErasedResult = Result<std::any>;
  /// The queue-resident task slot: move-only, small-buffer-optimized.
  /// The Erase<T> wrapper (one captured std::function) always fits
  /// inline, so queuing a task never heap-allocates.
  using ErasedTask = InlineFunction<ErasedResult(WorkerContext&), 64>;

  /// Shared state of one RunAll call, owned by the calling thread's
  /// stack frame; workers write into it under mutex_.
  struct BatchJob {
    std::vector<ErasedResult> results;
    size_t remaining = 0;
  };
  /// One queued unit: an async ticket or one index of a batch job.
  struct WorkItem {
    ErasedTask task;
    uint64_t ticket = 0;      ///< Valid when job == nullptr.
    BatchJob* job = nullptr;  ///< Valid for batch items.
    size_t index = 0;         ///< Position within the batch.
  };
  /// One ticket's completion slot. A ticket id is
  /// (generation << 32) | (slot index + 1); consuming the slot bumps its
  /// generation, so a stale id never matches the slot's next occupant.
  struct TicketSlot {
    enum class State { kFree, kPending, kReady };
    State state = State::kFree;
    uint32_t generation = 0;
    ErasedResult result = std::any();
  };

  /// Wraps a typed task so the queue can hold it: the value travels as
  /// std::any, the error as the task's own Status.
  template <typename T>
  static ErasedTask Erase(Task<T> task) {
    return [task = std::move(task)](WorkerContext& context) -> ErasedResult {
      Result<T> result = task(context);
      if (!result.ok()) return result.status();
      return std::any(std::move(result).value());
    };
  }

  /// Recovers the typed result. Submit<T> mints every Ticket<T>, so the
  /// cast matches unless a ticket id is forged across types, which is
  /// reported as kInternal rather than thrown.
  template <typename T>
  static Result<T> Unerase(ErasedResult erased) {
    if (!erased.ok()) return erased.status();
    std::any value = std::move(erased).value();
    T* typed = std::any_cast<T>(&value);
    if (typed == nullptr) {
      return Status::Internal("ticket result type mismatch");
    }
    return std::move(*typed);
  }

  Result<uint64_t> SubmitErased(ErasedTask task);
  ErasedResult WaitErased(uint64_t ticket);
  Result<std::vector<ErasedResult>> RunAllErased(
      std::vector<ErasedTask> tasks);
  void WorkerLoop(int worker_id);
  /// Appends to the ring (growing it when full) and updates the queue
  /// counters.
  void PushLocked(WorkItem item) REQUIRES(mutex_);
  /// Stores a finished item's result into its ticket slot or batch.
  void CompleteLocked(WorkItem& item, ErasedResult result)
      REQUIRES(mutex_);
  /// Slot behind `ticket` if it is issued and unconsumed, else null.
  TicketSlot* FindSlotLocked(uint64_t ticket) REQUIRES(mutex_);

  std::vector<std::unique_ptr<service::AdmissionService>> services_;

  mutable Mutex mutex_ ACQUIRED_AFTER(kExecutorRankBoundary)
      ACQUIRED_BEFORE(kTelemetryRankBoundary) =
          Mutex{LockRank::kExecutor, "executor/queue"};
  CondVar work_cv_;  ///< Signals queued work / teardown.
  CondVar done_cv_;  ///< Signals ticket and batch completions.
  bool stopping_ GUARDED_BY(mutex_) = false;

  /// FIFO ring of queued items: `count_` live entries from `head_`.
  std::vector<WorkItem> ring_ GUARDED_BY(mutex_);
  size_t head_ GUARDED_BY(mutex_) = 0;
  size_t count_ GUARDED_BY(mutex_) = 0;

  std::vector<TicketSlot> slots_ GUARDED_BY(mutex_);
  std::vector<uint32_t> free_slots_ GUARDED_BY(mutex_);

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
