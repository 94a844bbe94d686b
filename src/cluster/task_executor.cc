// Copyright 2026 The streambid Authors

#include "cluster/task_executor.h"

#include <algorithm>
#include <string>

#include "common/cpu.h"
#include "common/timer.h"
#include "telemetry/metrics.h"

namespace streambid::cluster {

namespace {

constexpr size_t kInitialRingCapacity = 64;

Status ShutDownError() {
  return Status::FailedPrecondition("executor shut down");
}

}  // namespace

TaskExecutor::TaskExecutor(const ExecutorOptions& options) {
  int n = options.num_threads;
  // 0 means "size to the machine" — but to the CPUs this process can
  // actually use (affinity ∧ cgroup quota), not the raw core count,
  // which oversubscribes container-limited CI runners.
  if (n <= 0) n = AvailableCpuCount();
  if (options.metrics != nullptr) {
    tasks_executed_metric_ =
        options.metrics->GetCounter("executor_tasks_executed");
    queue_depth_metric_ = options.metrics->GetGauge("executor_queue_depth");
    task_latency_metric_ =
        options.metrics->GetHistogram("executor_task_latency");
  }
  {
    MutexLock lock(mutex_);
    ring_.resize(kInitialRingCapacity);
    executed_per_worker_.assign(static_cast<size_t>(n), 0);
  }
  services_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    services_.push_back(std::make_unique<service::AdmissionService>());
    services_.back()->set_metrics(options.metrics);
  }
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskExecutor::~TaskExecutor() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  // Queued work is dropped (only the tasks already running finished, so
  // teardown with a deep backlog does not wait out the backlog). Fail
  // every dropped item so a straggling Wait or RunAll returns instead of
  // sleeping on a result that will never arrive.
  {
    MutexLock lock(mutex_);
    for (; count_ > 0; --count_) {
      WorkItem& item = ring_[head_];
      head_ = (head_ + 1) % ring_.size();
      CompleteLocked(item, ShutDownError());
    }
  }
  done_cv_.NotifyAll();
}

void TaskExecutor::PushLocked(WorkItem item) {
  if (count_ == ring_.size()) {
    // Grow by doubling, moving the live window to the front. Amortized:
    // the steady state recycles ring slots in place.
    std::vector<WorkItem> grown(ring_.size() * 2);
    for (size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) % ring_.size()]);
    }
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[(head_ + count_) % ring_.size()] = std::move(item);
  ++count_;
  ++submitted_;
  queue_high_water_ =
      std::max(queue_high_water_, static_cast<int64_t>(count_));
  if (queue_depth_metric_ != nullptr) {
    queue_depth_metric_->Set(static_cast<double>(count_));
  }
}

void TaskExecutor::CompleteLocked(WorkItem& item, ErasedResult result) {
  if (item.job != nullptr) {
    item.job->results[item.index] = std::move(result);
    --item.job->remaining;
  } else {
    TicketSlot& slot =
        slots_[static_cast<uint32_t>(item.ticket & 0xffffffffu) - 1];
    slot.result = std::move(result);
    slot.state = TicketSlot::State::kReady;
  }
}

void TaskExecutor::WorkerLoop(int worker_id) {
  WorkerContext context;
  context.worker_id = worker_id;
  context.service = services_[static_cast<size_t>(worker_id)].get();
  WorkItem item;
  for (;;) {
    {
      MutexLock lock(mutex_);
      while (count_ == 0 && !stopping_) work_cv_.Wait(mutex_);
      if (stopping_) return;
      item = std::move(ring_[head_]);
      head_ = (head_ + 1) % ring_.size();
      --count_;
      if (queue_depth_metric_ != nullptr) {
        queue_depth_metric_->Set(static_cast<double>(count_));
      }
    }
    // Execute outside the lock: the closure is the expensive part.
    const Timer task_timer;
    ErasedResult result = item.task(context);
    // Drop the closure's captures outside the lock and before the waiter
    // can observe the result.
    item.task = ErasedTask();
    if (task_latency_metric_ != nullptr) {
      task_latency_metric_->Record(task_timer.ElapsedMillis() * 1000.0);
    }
    if (tasks_executed_metric_ != nullptr) {
      tasks_executed_metric_->Increment();
    }
    {
      MutexLock lock(mutex_);
      ++executed_per_worker_[static_cast<size_t>(worker_id)];
      if (!result.ok()) ++failed_;
      CompleteLocked(item, std::move(result));
    }
    done_cv_.NotifyAll();
  }
}

Result<uint64_t> TaskExecutor::SubmitErased(ErasedTask task) {
  uint64_t ticket = 0;
  {
    MutexLock lock(mutex_);
    if (stopping_) return ShutDownError();
    uint32_t index = 0;
    if (free_slots_.empty()) {
      index = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      index = free_slots_.back();
      free_slots_.pop_back();
    }
    TicketSlot& slot = slots_[index];
    slot.state = TicketSlot::State::kPending;
    ticket = (static_cast<uint64_t>(slot.generation) << 32) | (index + 1);
    WorkItem item;
    item.task = std::move(task);
    item.ticket = ticket;
    PushLocked(std::move(item));
  }
  work_cv_.NotifyOne();
  return ticket;
}

TaskExecutor::TicketSlot* TaskExecutor::FindSlotLocked(uint64_t ticket) {
  // Index 0 wraps to UINT32_MAX, which is never in range.
  const uint32_t index = static_cast<uint32_t>(ticket & 0xffffffffu) - 1;
  if (index >= slots_.size()) return nullptr;
  TicketSlot& slot = slots_[index];
  if (slot.state == TicketSlot::State::kFree ||
      slot.generation != static_cast<uint32_t>(ticket >> 32)) {
    return nullptr;
  }
  return &slot;
}

TaskExecutor::ErasedResult TaskExecutor::WaitErased(uint64_t ticket) {
  MutexLock lock(mutex_);
  for (;;) {
    // Looked up afresh after every wake: a concurrent Submit may have
    // grown (and so moved) the slot vector while this thread slept.
    TicketSlot* slot = FindSlotLocked(ticket);
    if (slot == nullptr) {
      return Status::NotFound("unknown or consumed ticket: " +
                              std::to_string(ticket));
    }
    if (slot->state == TicketSlot::State::kReady) {
      ErasedResult result = std::move(slot->result);
      slot->result = std::any();
      slot->state = TicketSlot::State::kFree;
      ++slot->generation;
      free_slots_.push_back(static_cast<uint32_t>(slot - slots_.data()));
      return result;
    }
    done_cv_.Wait(mutex_);
  }
}

Result<std::vector<TaskExecutor::ErasedResult>> TaskExecutor::RunAllErased(
    std::vector<ErasedTask> tasks) {
  BatchJob job;
  job.results.assign(tasks.size(), ErasedResult(std::any()));
  {
    MutexLock lock(mutex_);
    if (stopping_) return ShutDownError();
    job.remaining = tasks.size();
    for (size_t i = 0; i < tasks.size(); ++i) {
      WorkItem item;
      item.task = std::move(tasks[i]);
      item.job = &job;
      item.index = i;
      PushLocked(std::move(item));
    }
  }
  work_cv_.NotifyAll();
  {
    MutexLock lock(mutex_);
    while (job.remaining > 0) done_cv_.Wait(mutex_);
  }
  return std::move(job.results);
}

int TaskExecutor::pending_tasks() const {
  MutexLock lock(mutex_);
  return static_cast<int>(slots_.size() - free_slots_.size());
}

TaskExecutorStats TaskExecutor::StatsReport() const {
  TaskExecutorStats stats;
  MutexLock lock(mutex_);
  stats.submitted = submitted_;
  stats.failed = failed_;
  stats.queue_high_water = queue_high_water_;
  stats.tasks_per_worker = executed_per_worker_;
  for (const int64_t executed : executed_per_worker_) {
    stats.executed += executed;
  }
  return stats;
}

}  // namespace streambid::cluster
