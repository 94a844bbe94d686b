// Copyright 2026 The streambid Authors
// Gate-aware response statuses: the typed error the streaming admission
// gate returns when it sheds a submission before the auction, plus the
// helpers callers use to recognize a shed and read its retry-after
// hint. Shed statuses are ordinary kResourceExhausted Status values
// with a structured message, so they travel through Result<T> and the
// service API unchanged; only these helpers know the message layout.

#ifndef STREAMBID_SERVICE_GATE_STATUS_H_
#define STREAMBID_SERVICE_GATE_STATUS_H_

#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace streambid::service {

/// The status a shed submission gets: kResourceExhausted with the pool
/// that starved it and a hint (in auction periods) for when retrying is
/// worthwhile — after roughly that many period drains the pool will
/// have recycled its tickets. retry_after_periods must be finite and
/// >= 0; it is clamped to 0 otherwise.
Status ShedRejection(std::string_view pool, double retry_after_periods);

/// True iff `status` is a gate shed produced by ShedRejection (as
/// opposed to any other kResourceExhausted).
bool IsShed(const Status& status);

/// The retry-after hint carried by a shed status; nullopt when `status`
/// is not a shed.
std::optional<double> RetryAfterPeriods(const Status& status);

/// The ticket pool named by a shed status; empty when `status` is not a
/// shed.
std::string ShedPool(const Status& status);

}  // namespace streambid::service

#endif  // STREAMBID_SERVICE_GATE_STATUS_H_
