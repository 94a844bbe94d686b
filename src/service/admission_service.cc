// Copyright 2026 The streambid Authors

#include "service/admission_service.h"

#include <utility>

#include "auction/registry.h"
#include "common/rng.h"
#include "common/timer.h"
#include "telemetry/metrics.h"

namespace streambid::service {

AdmissionService::AdmissionService()
    : mechanisms_(auction::MakeAllMechanisms()) {
  names_.reserve(mechanisms_.size());
  for (const auction::MechanismPtr& m : mechanisms_) {
    names_.push_back(m->name());
    index_.emplace(m->name(), m.get());
  }
}

void AdmissionService::set_metrics(telemetry::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    admissions_metric_ = nullptr;
    admit_latency_metric_ = nullptr;
    return;
  }
  admissions_metric_ = metrics->GetCounter("service_admissions");
  admit_latency_metric_ = metrics->GetHistogram("service_admit_latency");
}

uint64_t AdmissionService::DeriveStreamSeed(uint64_t seed,
                                            uint32_t request_index) {
  // Mix64 over the combined words: nearby (seed, index) pairs must
  // yield unrelated streams, and index 0 must not collapse to the bare
  // seed (callers often use small integer seeds elsewhere).
  return Mix64(seed + 0x9E3779B97F4A7C15ull * (request_index + 1ull));
}

const auction::Mechanism* AdmissionService::Find(
    std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : it->second;
}

bool AdmissionService::HasMechanism(std::string_view name) const {
  return Find(name) != nullptr;
}

Result<auction::MechanismProperties> AdmissionService::Properties(
    std::string_view name) const {
  const auction::Mechanism* m = Find(name);
  if (m == nullptr) {
    return Status::NotFound("unknown mechanism: " + std::string(name));
  }
  return m->properties();
}

Status AdmissionService::Validate(const AdmissionRequest& request) const {
  if (request.instance == nullptr) {
    return Status::InvalidArgument("request has no instance");
  }
  if (request.capacity < 0.0) {
    return Status::InvalidArgument("negative capacity");
  }
  if (!HasMechanism(request.mechanism)) {
    return Status::NotFound("unknown mechanism: " + request.mechanism);
  }
  return Status::Ok();
}

Result<AdmissionResponse> AdmissionService::Execute(
    const AdmissionRequest& request, const auction::Mechanism& mechanism) {
  AdmissionResponse response;
  context_.Reseed(DeriveStreamSeed(request.seed, request.request_index));

  Timer timer;
  response.allocation =
      mechanism.Run(*request.instance, request.capacity, context_);
  response.elapsed_ms = timer.ElapsedMillis();
  if (admissions_metric_ != nullptr) admissions_metric_->Increment();
  if (admit_latency_metric_ != nullptr) {
    admit_latency_metric_->Record(response.elapsed_ms * 1000.0);
  }

  const auction::AuctionInstance& instance = *request.instance;
  AdmissionDiagnostics& diag = response.diagnostics;
  diag.mechanism = mechanism.name();
  diag.properties = mechanism.properties();
  diag.capacity = request.capacity;
  if (request.options.compute_diagnostics) {
    diag.used_capacity =
        auction::UsedCapacity(instance, response.allocation);
    diag.capacity_utilization =
        request.capacity > 0.0 ? diag.used_capacity / request.capacity
                               : 0.0;
  }
  diag.num_queries = instance.num_queries();
  diag.admitted_count = response.allocation.NumAdmitted();
  diag.rejected_count = diag.num_queries - diag.admitted_count;

  if (request.options.compute_metrics) {
    response.metrics =
        auction::ComputeMetrics(instance, response.allocation);
  }
  if (request.options.check_feasibility &&
      !auction::IsFeasible(instance, response.allocation)) {
    return Status::Internal("mechanism '" + request.mechanism +
                            "' produced an infeasible allocation");
  }
  return response;
}

Result<AdmissionResponse> AdmissionService::Admit(
    const AdmissionRequest& request) {
  STREAMBID_RETURN_IF_ERROR(Validate(request));
  return Execute(request, *Find(request.mechanism));
}

Result<std::vector<AdmissionResponse>> AdmissionService::AdmitBatch(
    const std::vector<AdmissionRequest>& requests) {
  // Fail the whole batch before running anything: a sweep with a typo'd
  // mechanism name should not burn minutes of auctions first. The
  // resolved mechanisms are kept so the execution loop validates once.
  std::vector<const auction::Mechanism*> resolved;
  resolved.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const Status status = Validate(requests[i]);
    if (!status.ok()) {
      return Status(status.code(), "request " + std::to_string(i) + ": " +
                                       status.message());
    }
    resolved.push_back(Find(requests[i].mechanism));
  }
  std::vector<AdmissionResponse> responses;
  responses.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    STREAMBID_ASSIGN_OR_RETURN(AdmissionResponse response,
                               Execute(requests[i], *resolved[i]));
    responses.push_back(std::move(response));
  }
  return responses;
}

Result<std::vector<AdmissionResponse>> AdmissionService::AdmitAll(
    const auction::AuctionInstance& instance, double capacity,
    uint64_t seed, const AdmissionOptions& options) {
  std::vector<AdmissionRequest> requests;
  requests.reserve(names_.size());
  for (const std::string& name : names_) {
    AdmissionRequest request;
    request.instance = &instance;
    request.capacity = capacity;
    request.mechanism = name;
    request.seed = seed;
    request.options = options;
    requests.push_back(std::move(request));
  }
  return AdmitBatch(requests);
}

}  // namespace streambid::service
