// Copyright 2026 The streambid Authors
// TicketHolder contract tests: the zero-timeout fast path grants
// immediately, the FIFO queue wakes in arrival order and cannot be
// starved by opportunistic fast-path callers, timeouts leave the queue
// with a typed error, timeouts whose deadline does not fit are
// rejected, and the stats snapshot accounts every outcome.

#include "gate/ticket_holder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace streambid::gate {
namespace {

/// Spins until `pool` shows `waiters` queued Acquire calls — the only
/// cross-thread ordering the tests need.
void WaitForWaiters(const TicketHolder& pool, int waiters) {
  while (pool.waiting() < waiters) {
    std::this_thread::yield();
  }
}

TEST(TicketHolderTest, FastPathGrantsUpToCapacity) {
  TicketHolder pool("cat/class0", 3);
  EXPECT_EQ(pool.capacity(), 3);
  EXPECT_EQ(pool.name(), "cat/class0");
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(pool.Acquire(0.0).ok());
  }
  EXPECT_FALSE(pool.Acquire(0.0).ok());
  EXPECT_EQ(pool.used(), 3);
  EXPECT_EQ(pool.capacity() - pool.used(), 0);

  pool.Release();
  EXPECT_EQ(pool.capacity() - pool.used(), 1);
  EXPECT_TRUE(pool.Acquire(0.0).ok());

  const TicketHolderStats stats = pool.Stats();
  EXPECT_EQ(stats.granted_immediate, 4);
  EXPECT_EQ(stats.granted_queued, 0);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.used_high_water, 3);
}

TEST(TicketHolderTest, ZeroTimeoutShedsWithTypedError) {
  TicketHolder pool("pool", 1);
  ASSERT_TRUE(pool.Acquire(0.0).ok());
  const Status shed = pool.Acquire(0.0);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.Stats().rejected, 1);
  EXPECT_EQ(pool.Stats().timed_out, 0);
  EXPECT_EQ(pool.waiting(), 0);  // Zero timeout never queues.
}

TEST(TicketHolderTest, TimeoutLeavesQueueWithTypedError) {
  TicketHolder pool("pool", 1);
  ASSERT_TRUE(pool.Acquire(0.0).ok());
  const Status timed_out = pool.Acquire(20.0);
  EXPECT_EQ(timed_out.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.waiting(), 0);
  const TicketHolderStats stats = pool.Stats();
  EXPECT_EQ(stats.timed_out, 1);
  EXPECT_EQ(stats.queue_high_water, 1);
  // The histogram only records grants, never timeouts.
  EXPECT_EQ(stats.wait.total, 1);  // The zero-timeout fast path.
}

TEST(TicketHolderTest, InvalidTimeoutsAreTypedErrors) {
  TicketHolder pool("pool", 1);
  EXPECT_EQ(pool.Acquire(-1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.Acquire(std::numeric_limits<double>::infinity()).code(),
            StatusCode::kInvalidArgument);
  // Finite but past any steady_clock deadline: rejected, not a timeout
  // that fires at once.
  EXPECT_EQ(pool.Acquire(1e13).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.Acquire(1e19).code(), StatusCode::kInvalidArgument);
}

TEST(TicketHolderTest, WaitersGrantInFifoOrder) {
  TicketHolder pool("pool", 1);
  ASSERT_TRUE(pool.Acquire(0.0).ok());

  std::mutex order_mutex;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    // Stagger: waiter i is queued before waiter i+1 starts, so the
    // FIFO positions are known.
    waiters.emplace_back([&pool, &order_mutex, &order, i] {
      ASSERT_TRUE(pool.Acquire(10000.0).ok());
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(i);
    });
    WaitForWaiters(pool, i + 1);
  }

  for (int i = 0; i < 3; ++i) {
    pool.Release();
    // The released ticket must land on the single front waiter before
    // the next release frees the following one.
    while (true) {
      std::lock_guard<std::mutex> lock(order_mutex);
      if (static_cast<int>(order.size()) > i) break;
    }
  }
  for (std::thread& t : waiters) t.join();
  pool.Release();

  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  const TicketHolderStats stats = pool.Stats();
  EXPECT_EQ(stats.granted_queued, 3);
  EXPECT_EQ(stats.queue_high_water, 3);
  EXPECT_GE(stats.wait.total, 4);  // 1 immediate + 3 queued grants.
}

TEST(TicketHolderTest, FastPathCannotStealFromQueuedWaiters) {
  TicketHolder pool("pool", 1);
  ASSERT_TRUE(pool.Acquire(0.0).ok());
  std::thread waiter([&pool] { ASSERT_TRUE(pool.Acquire(10000.0).ok()); });
  WaitForWaiters(pool, 1);

  // A free ticket appears via Release while the waiter is queued. No
  // matter how the wakeup races, the fast path must never jump the
  // queue: either the waiter already took the ticket (pool full again)
  // or the waiter is still queued (the fast path defers to it).
  pool.Release();
  for (int i = 0; i < 100; ++i) {
    if (pool.Acquire(0.0).ok()) {
      // Only legal once the waiter has been granted (queue empty).
      EXPECT_EQ(pool.waiting(), 0);
      pool.Release();
      break;
    }
  }
  waiter.join();
  EXPECT_EQ(pool.waiting(), 0);
  EXPECT_EQ(pool.used(), 1);  // The waiter's ticket, never a thief's.
  pool.Release();
}

TEST(TicketHolderTest, NoStarvationUnderOpportunisticLoad) {
  TicketHolder pool("pool", 2);
  std::atomic<bool> stop{false};
  // Opportunistic threads hammer the fast path for the whole test.
  std::vector<std::thread> hammers;
  for (int i = 0; i < 2; ++i) {
    hammers.emplace_back([&pool, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (pool.Acquire(0.0).ok()) pool.Release();
      }
    });
  }
  // Queued waiters must still all get through: the fast path cannot
  // steal a release out from under the FIFO queue.
  std::atomic<int> granted{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 8; ++i) {
    waiters.emplace_back([&pool, &granted] {
      ASSERT_TRUE(pool.Acquire(30000.0).ok());
      ++granted;
      pool.Release();
    });
  }
  for (std::thread& t : waiters) t.join();
  stop = true;
  for (std::thread& t : hammers) t.join();
  EXPECT_EQ(granted.load(), 8);
  EXPECT_EQ(pool.used(), 0);
  EXPECT_LE(pool.Stats().used_high_water, 2);  // Bound held throughout.
}

TEST(WaitHistogramTest, PercentileReportsBucketUpperEdges) {
  WaitHistogram h;
  h.Record(0.5);     // Bucket 0: the immediate fast path.
  h.Record(10.0);    // [8, 16)us -> upper edge 16us.
  h.Record(1000.0);  // [512, 1024)us -> upper edge 1024us.
  EXPECT_EQ(h.total, 3);
  EXPECT_DOUBLE_EQ(h.PercentileMillis(0.3), 0.0);
  EXPECT_DOUBLE_EQ(h.PercentileMillis(0.6), 0.016);
  EXPECT_DOUBLE_EQ(h.PercentileMillis(1.0), 1.024);
}

TEST(WaitHistogramTest, MergeAccumulatesAndEmptyIsZero) {
  WaitHistogram a;
  EXPECT_DOUBLE_EQ(a.PercentileMillis(0.99), 0.0);
  a.Record(10.0);
  WaitHistogram b;
  b.Record(10.0);
  b.Record(1.0e12);  // Clamped into the last bucket.
  a.Merge(b);
  EXPECT_EQ(a.total, 3);
  EXPECT_DOUBLE_EQ(a.PercentileMillis(0.5), 0.016);
}

}  // namespace
}  // namespace streambid::gate
