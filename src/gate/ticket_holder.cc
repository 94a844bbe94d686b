// Copyright 2026 The streambid Authors

#include "gate/ticket_holder.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"

namespace streambid::gate {

namespace {

/// The longest timeout whose deadline, now() + timeout, still fits a
/// steady_clock time point. steady_clock counts from an epoch (boot, on
/// Linux) far below its ~292-year range, so half the range leaves room
/// for any reachable now(); beyond the full range the duration_cast of
/// the timeout itself would overflow into a deadline in the past.
constexpr double kMaxTimeoutMs =
    std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::duration::max())
        .count() /
    2.0;

}  // namespace

TicketHolder::TicketHolder(std::string name, int capacity)
    : name_(std::move(name)), capacity_(capacity) {
  STREAMBID_CHECK_GE(capacity, 1);
}

void TicketHolder::GrantLocked(double wait_micros, bool queued) {
  ++used_;
  used_high_water_ = std::max(used_high_water_, used_);
  if (queued) {
    ++granted_queued_;
  } else {
    ++granted_immediate_;
  }
  wait_.Record(wait_micros);
}

bool TicketHolder::IsValidTimeout(double timeout_ms) {
  // Also false for NaN and both infinities.
  return timeout_ms >= 0.0 && timeout_ms <= kMaxTimeoutMs;
}

Status TicketHolder::Acquire(double timeout_ms) {
  if (!IsValidTimeout(timeout_ms)) {
    return Status::InvalidArgument(
        "acquire timeout must be >= 0 and fit a steady_clock deadline");
  }
  MutexLock lock(mutex_);
  if (waiters_.empty() && used_ < capacity_) {
    GrantLocked(0.0, /*queued=*/false);
    return Status::Ok();
  }
  if (timeout_ms == 0.0) {
    ++rejected_;
    return Status::ResourceExhausted("ticket pool " + name_ + " exhausted");
  }

  const uint64_t id = next_waiter_++;
  waiters_.push_back(id);
  queue_high_water_ =
      std::max(queue_high_water_, static_cast<int>(waiters_.size()));
  // Wall-clock only bounds how long the producer is willing to stall;
  // it decides shed-vs-wait, never which result an admitted submission
  // gets, so replay identity is untouched.
  const auto start = std::chrono::steady_clock::now();  // NOLINT(determinism): timeout deadline for the producer stall bound; never feeds an admission result
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(timeout_ms));
  // FIFO: only the front waiter may take a freed ticket, so a release
  // burst wakes everyone and they grant in queue
  // order — each new front re-checks and chains the next notify below.
  // Manual wait loop (the grant condition reads GUARDED_BY members, so
  // it must sit in this annotated scope, not a predicate lambda); same
  // semantics as std::condition_variable::wait_until with a predicate:
  // re-check once after a timeout so a grant that raced the clock wins.
  bool granted = GrantReadyLocked(id);
  while (!granted) {
    if (cv_.WaitUntil(mutex_, deadline) == std::cv_status::timeout) {
      granted = GrantReadyLocked(id);
      break;
    }
    granted = GrantReadyLocked(id);
  }
  const double waited_micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)  // NOLINT(determinism): measures the wait annotation recorded into the stats histogram
          .count();
  if (granted) {
    waiters_.pop_front();
    GrantLocked(waited_micros, /*queued=*/true);
    if (used_ < capacity_ && !waiters_.empty()) cv_.NotifyAll();
    return Status::Ok();
  }
  // Timed out: leave the queue from wherever we stand; if we were the
  // front, our departure may unblock the waiter behind us.
  waiters_.erase(std::find(waiters_.begin(), waiters_.end(), id));
  ++timed_out_;
  if (used_ < capacity_ && !waiters_.empty()) cv_.NotifyAll();
  return Status::ResourceExhausted("ticket wait timed out in pool " + name_);
}

void TicketHolder::Release() {
  MutexLock lock(mutex_);
  STREAMBID_CHECK_GT(used_, 0);
  --used_;
  if (used_ < capacity_ && !waiters_.empty()) cv_.NotifyAll();
}

int TicketHolder::used() const {
  MutexLock lock(mutex_);
  return used_;
}

int TicketHolder::waiting() const {
  MutexLock lock(mutex_);
  return static_cast<int>(waiters_.size());
}

TicketHolderStats TicketHolder::Stats() const {
  MutexLock lock(mutex_);
  TicketHolderStats stats;
  stats.name = name_;
  stats.capacity = capacity_;
  stats.used = used_;
  stats.waiting = static_cast<int>(waiters_.size());
  stats.granted_immediate = granted_immediate_;
  stats.granted_queued = granted_queued_;
  stats.timed_out = timed_out_;
  stats.rejected = rejected_;
  stats.used_high_water = used_high_water_;
  stats.queue_high_water = queue_high_water_;
  stats.wait = wait_;
  return stats;
}

}  // namespace streambid::gate
