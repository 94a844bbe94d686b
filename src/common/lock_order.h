// Copyright 2026 The streambid Authors
// The declared lock hierarchy: one global rank for every
// streambid::Mutex in the tree, plus the debug-build deadlock sentinel
// that enforces it at runtime.
//
// Clang's capability analysis (common/thread_annotations.h) proves that
// every guarded member is accessed under its lock, but it is blind to
// lock *ordering*: an inversion deadlock — thread A holds a gate pool
// mutex and wants an executor mutex while thread B holds the executor
// mutex and wants the pool — type-checks cleanly and only shows up as a
// production hang. This header closes that gap three ways:
//
//  1. The rank table below declares one total order over every mutex:
//     gate → cluster → executor → telemetry → leaf. A thread may only
//     acquire a mutex of STRICTLY GREATER rank than every mutex it
//     already holds. Mutexes that are never held together still get
//     ranks, so the sanctioned order pre-exists the first nesting
//     anyone introduces.
//  2. tools/lint/lock_order_lint.py parses this table, extracts every
//     nested MutexLock acquisition across src/, and fails the build on
//     any acquisition that descends the hierarchy (and on any cycle in
//     the cross-file acquisition graph).
//  3. Under -DSTREAMBID_LOCK_ORDER=ON (debug/TSan builds), Mutex::lock
//     pushes onto a thread_local held-lock stack and CHECK-fails — with
//     both lock names and the whole held stack — the moment any thread
//     acquires out of rank order, whether or not the schedule would
//     have deadlocked this run. When the option is off every hook below
//     compiles to an empty inline body: zero overhead, zero size.
//
// Adding a mutex: pick the rank matching the layer that owns it (or add
// a new enumerator between the right neighbors — values are spaced by
// 10 exactly so insertions never renumber the table), construct the
// Mutex with {LockRank::kYourRank, "layer/what_it_guards"}, and keep
// this table's comment in sync. The lock-order lint fails on any
// src/ Mutex declared without a rank.

#ifndef STREAMBID_COMMON_LOCK_ORDER_H_
#define STREAMBID_COMMON_LOCK_ORDER_H_

#include <cstddef>

namespace streambid {

/// The global mutex ranks, in acquisition order: a thread holding rank
/// r may only acquire ranks > r. Values are spaced so a future mutex
/// can slot between neighbors without renumbering.
enum class LockRank : int {
  // -- Gate layer (outermost: the open-loop front door) -------------
  /// StreamIngress::mutex_ — the gate buffer + period counters. Held
  /// only for the O(1) buffer push / swap.
  kGateIngress = 100,
  /// TicketHolder::mutex_ — one per (mechanism, tenant-class) pool;
  /// held across the FIFO grant protocol (and its condvar waits).
  kGateTicketPool = 110,

  // -- Cluster layer: no mutex of its own (rank 200 is free) --------

  // -- Executor layer -----------------------------------------------
  /// TaskExecutor::mutex_ — the FIFO queue, the batch completion
  /// counts and the pool counters; its condvars park idle workers and
  /// RunAll callers.
  kExecutor = 300,

  // -- Telemetry layer (sinks; callees of every layer above) --------
  /// MetricsRegistry::mutex_ — instrument registration + snapshot.
  /// Held across Histogram::Snapshot (→ kHistogramSlot).
  kMetricsRegistry = 400,
  /// PeriodTracer::mutex_ — the span buffer.
  kPeriodTracer = 410,

  // -- Leaf (innermost: never held while acquiring anything) --------
  /// telemetry::Histogram::Slot::mutex — sharded histogram slots.
  kHistogramSlot = 500,
  /// Default rank of a Mutex constructed without one (tests, scratch
  /// code). A leaf may be acquired while holding anything, but nothing
  /// may be acquired while holding it — the safe default. Every Mutex
  /// under src/ must carry an explicit rank (the lint enforces it).
  kLeaf = 1000,
};

namespace lock_order {

/// The rank table in ascending order, for tests that walk adjacent
/// pairs and for diagnostics. Kept in sync with the enum by
/// tests/common/lock_order_test.cc.
struct RankTableEntry {
  LockRank rank;
  const char* name;
};
inline constexpr RankTableEntry kRankTable[] = {
    {LockRank::kGateIngress, "kGateIngress"},
    {LockRank::kGateTicketPool, "kGateTicketPool"},
    {LockRank::kExecutor, "kExecutor"},
    {LockRank::kMetricsRegistry, "kMetricsRegistry"},
    {LockRank::kPeriodTracer, "kPeriodTracer"},
    {LockRank::kHistogramSlot, "kHistogramSlot"},
    {LockRank::kLeaf, "kLeaf"},
};
inline constexpr size_t kRankTableSize =
    sizeof(kRankTable) / sizeof(kRankTable[0]);

#if STREAMBID_LOCK_ORDER

/// Depth of the per-thread held-lock stack. Deeper nesting than this is
/// itself a design smell; the sentinel CHECK-fails on overflow.
inline constexpr int kMaxHeldLocks = 16;

/// Called by Mutex::lock BEFORE blocking on the native mutex: verifies
/// `rank` strictly exceeds every rank this thread already holds, then
/// pushes (rank, name). On violation, prints both lock names plus the
/// whole held stack and aborts — catching the inversion even on
/// schedules where it would not have deadlocked this run.
void OnAcquire(LockRank rank, const char* name);

/// Called by Mutex::try_lock after a SUCCESSFUL native try_lock (a
/// failed try_lock holds nothing). Same check as OnAcquire: a try-lock
/// that descends the hierarchy is still a declared-order violation.
void OnTryAcquire(LockRank rank, const char* name);

/// Called by Mutex::unlock before releasing the native mutex: pops the
/// matching entry (topmost first — MutexLock scopes release LIFO, but
/// out-of-order manual unlocks are tolerated by searching down).
void OnRelease(LockRank rank, const char* name);

/// Number of locks the calling thread currently holds (test hook).
int HeldDepth();

#else  // !STREAMBID_LOCK_ORDER

// The sentinel compiles away: empty inline bodies the optimizer erases
// entirely, so the OFF build's lock/unlock are byte-for-byte the plain
// std::mutex forwarders they were before the sentinel existed.
inline void OnAcquire(LockRank, const char*) {}
inline void OnTryAcquire(LockRank, const char*) {}
inline void OnRelease(LockRank, const char*) {}
inline int HeldDepth() { return 0; }

#endif  // STREAMBID_LOCK_ORDER

}  // namespace lock_order
}  // namespace streambid

#endif  // STREAMBID_COMMON_LOCK_ORDER_H_
