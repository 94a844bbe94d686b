// Copyright 2026 The streambid Authors
// Process-wide heap-allocation counter for bench binaries.
//
// alloc_probe.cc replaces the global operator new/delete with counting
// wrappers, so a bench can snapshot the count around a phase and report
// heap allocations per unit of work. Link alloc_probe.cc ONLY into
// binaries that want the probe (it replaces global operators
// binary-wide); under ASan/TSan the replacement is disabled (the
// sanitizer owns malloc) and the count stays 0.

#ifndef STREAMBID_BENCH_ALLOC_PROBE_H_
#define STREAMBID_BENCH_ALLOC_PROBE_H_

#include <cstdint>

namespace streambid::bench {

/// Monotonic count of operator-new calls since process start (0 when
/// the probe is unavailable).
int64_t AllocCount();

}  // namespace streambid::bench

#endif  // STREAMBID_BENCH_ALLOC_PROBE_H_
