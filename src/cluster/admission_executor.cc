// Copyright 2026 The streambid Authors

#include "cluster/admission_executor.h"

#include <string>
#include <utility>

namespace streambid::cluster {

AdmissionExecutor::AdmissionExecutor(const ExecutorOptions& options)
    : tasks_(options) {
  worker_stats_.reserve(static_cast<size_t>(tasks_.num_threads()));
  for (int i = 0; i < tasks_.num_threads(); ++i) {
    worker_stats_.push_back(std::make_unique<WorkerStats>());
  }
}

Result<service::AdmissionResponse> AdmissionExecutor::AdmitOn(
    WorkerContext& context, const service::AdmissionRequest& request) {
  // The worker's own service (and therefore its own AuctionContext
  // scratch arena): the per-request RNG stream makes the result
  // independent of which worker (and which service) runs it.
  Result<service::AdmissionResponse> result =
      context.service->Admit(request);
  RecordStats(context.worker_id, result);
  return result;
}

void AdmissionExecutor::RecordStats(
    int worker_id, const Result<service::AdmissionResponse>& result) {
  WorkerStats& shard = *worker_stats_[static_cast<size_t>(worker_id)];
  MutexLock lock(shard.mutex);
  if (!result.ok()) {
    ++shard.failed_requests;
    return;
  }
  const service::AdmissionDiagnostics& diag = result->diagnostics;
  ++shard.total_requests;
  MechanismRollingStats& m = shard.per_mechanism[diag.mechanism];
  ++m.count;
  if (diag.deadline_exceeded) ++m.deadline_overruns;
  m.admit_rate.Add(diag.num_queries > 0
                       ? static_cast<double>(diag.admitted_count) /
                             diag.num_queries
                       : 0.0);
  m.utilization.Add(diag.capacity_utilization);
  m.elapsed_ms.Add(result->elapsed_ms);
}

Result<std::vector<service::AdmissionResponse>>
AdmissionExecutor::AdmitBatchParallel(
    const std::vector<service::AdmissionRequest>& requests) {
  // Same up-front whole-batch validation (and error spelling) as the
  // serial AdmitBatch: a bad request fails before any auction runs.
  const service::AdmissionService& validator = tasks_.worker_service(0);
  for (size_t i = 0; i < requests.size(); ++i) {
    const Status status = validator.Validate(requests[i]);
    if (!status.ok()) {
      return Status(status.code(), "request " + std::to_string(i) + ": " +
                                       status.message());
    }
  }

  // One task per request; RunAll keeps results positionally aligned
  // and, like serial AdmitBatch, reports the lowest-index failure.
  std::vector<TaskExecutor::Task<service::AdmissionResponse>> tasks;
  tasks.reserve(requests.size());
  for (const service::AdmissionRequest& request : requests) {
    tasks.push_back([this, &request](WorkerContext& context) {
      return AdmitOn(context, request);
    });
  }
  return tasks_.RunAll(std::move(tasks));
}

ExecutorStats AdmissionExecutor::StatsReport() const {
  ExecutorStats merged;
  for (const std::unique_ptr<WorkerStats>& shard : worker_stats_) {
    MutexLock lock(shard->mutex);
    merged.total_requests += shard->total_requests;
    merged.failed_requests += shard->failed_requests;
    for (const auto& [name, m] : shard->per_mechanism) {
      MechanismRollingStats& out = merged.per_mechanism[name];
      out.count += m.count;
      out.deadline_overruns += m.deadline_overruns;
      out.admit_rate.Merge(m.admit_rate);
      out.utilization.Merge(m.utilization);
      out.elapsed_ms.Merge(m.elapsed_ms);
    }
  }
  const TaskExecutorStats pool = tasks_.StatsReport();
  merged.tasks_per_worker = pool.tasks_per_worker;
  merged.tasks_local = pool.executed;
  merged.queue_high_water = pool.queue_high_water;
  return merged;
}

}  // namespace streambid::cluster
