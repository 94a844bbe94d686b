// Copyright 2026 The streambid Authors

#include "cluster/task_executor.h"

#include <algorithm>

#include "common/cpu.h"
#include "common/timer.h"
#include "telemetry/metrics.h"

namespace streambid::cluster {

namespace {

constexpr size_t kInitialRingCapacity = 64;

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
}

void TaskExecutor::PushLocked(WorkItem item) {
  if (count_ == ring_.size()) {
    // Grow by doubling, moving the live window to the front. Amortized:
    // the steady state recycles ring slots in place.
    std::vector<WorkItem> grown(ring_.size() * 2);
    for (size_t i = 0; i < count_; ++i) {
      grown[i] = ring_[(head_ + i) % ring_.size()];
    }
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[(head_ + count_) % ring_.size()] = item;
  ++count_;
  ++submitted_;
  queue_high_water_ =
      std::max(queue_high_water_, static_cast<int64_t>(count_));
  if (queue_depth_metric_ != nullptr) {
    queue_depth_metric_->Set(static_cast<double>(count_));
  }
}

void TaskExecutor::WorkerLoop(int worker_id) {
  WorkerContext context;
  context.worker_id = worker_id;
  context.service = services_[static_cast<size_t>(worker_id)].get();
  for (;;) {
    WorkItem item;
    {
      MutexLock lock(mutex_);
      while (count_ == 0 && !stopping_) work_cv_.Wait(mutex_);
      if (stopping_) return;
      item = ring_[head_];
      head_ = (head_ + 1) % ring_.size();
      --count_;
      if (queue_depth_metric_ != nullptr) {
        queue_depth_metric_->Set(static_cast<double>(count_));
      }
    }
    // Execute outside the lock: the closure is the expensive part, and
    // it writes only its own slot of the batch's result vector.
    const Timer task_timer;
    const bool ok = item.batch->Run(item.index, context);
    if (task_latency_metric_ != nullptr) {
      task_latency_metric_->Record(task_timer.ElapsedMillis() * 1000.0);
    }
    if (tasks_executed_metric_ != nullptr) {
      tasks_executed_metric_->Increment();
    }
    {
      MutexLock lock(mutex_);
      ++executed_per_worker_[static_cast<size_t>(worker_id)];
      if (!ok) ++failed_;
      --item.batch->remaining;
    }
    done_cv_.NotifyAll();
  }
}

void TaskExecutor::RunBatch(Batch& batch, size_t size) {
  {
    MutexLock lock(mutex_);
    batch.remaining = size;
    for (size_t i = 0; i < size; ++i) PushLocked(WorkItem{&batch, i});
  }
  work_cv_.NotifyAll();
  MutexLock lock(mutex_);
  while (batch.remaining > 0) done_cv_.Wait(mutex_);
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
