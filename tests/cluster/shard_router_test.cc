// Copyright 2026 The streambid Authors
// ShardRouter policy tests: hash stability, least-loaded tie-breaking,
// drained-shard avoidance, and placement overrides.

#include "cluster/shard_router.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"

namespace streambid::cluster {
namespace {

stream::QuerySubmission SubmissionFor(auction::UserId user) {
  stream::QuerySubmission submission;
  submission.query_id = user;
  submission.user = user;
  submission.bid = 10.0;
  return submission;
}

TEST(ShardRouterTest, PolicyNames) {
  EXPECT_STREQ(RoutingPolicyName(RoutingPolicy::kHashUser), "hash");
  EXPECT_STREQ(RoutingPolicyName(RoutingPolicy::kLeastLoaded),
               "least-loaded");
}

TEST(ShardRouterTest, HashIsStableAndMatchesExposedHash) {
  ShardRouter router(RoutingPolicy::kHashUser, 4);
  const std::vector<ShardStatus> shards(4);
  for (auction::UserId user = 0; user < 200; ++user) {
    const int first = router.Route(SubmissionFor(user), shards);
    const int second = router.Route(SubmissionFor(user), shards);
    EXPECT_EQ(first, second) << user;
    EXPECT_EQ(first,
              static_cast<int>(ShardRouter::HashUser(user) % 4ull));
    EXPECT_GE(first, 0);
    EXPECT_LT(first, 4);
  }
}

TEST(ShardRouterTest, HashSpreadsUsersAcrossShards) {
  ShardRouter router(RoutingPolicy::kHashUser, 4);
  const std::vector<ShardStatus> shards(4);
  std::set<int> hit;
  for (auction::UserId user = 0; user < 64; ++user) {
    hit.insert(router.Route(SubmissionFor(user), shards));
  }
  // 64 sequential users over 4 shards: every shard must be reached (the
  // SplitMix64 finalizer spreads sequential ids).
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardRouterTest, HashIsObliviousToLoad) {
  ShardRouter router(RoutingPolicy::kHashUser, 2);
  std::vector<ShardStatus> shards(2);
  const int before = router.Route(SubmissionFor(7), shards);
  shards[static_cast<size_t>(before)].pending_load = 1e9;
  EXPECT_EQ(router.Route(SubmissionFor(7), shards), before);
}

TEST(ShardRouterTest, LeastLoadedPicksMinimum) {
  ShardRouter router(RoutingPolicy::kLeastLoaded, 3);
  std::vector<ShardStatus> shards(3);
  shards[0].pending_load = 5.0;
  shards[1].pending_load = 1.0;
  shards[2].pending_load = 3.0;
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 1);
}

TEST(ShardRouterTest, LeastLoadedTiesToLowestIndex) {
  ShardRouter router(RoutingPolicy::kLeastLoaded, 3);
  std::vector<ShardStatus> shards(3);
  // All equal: shard 0.
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 0);
  // Tie between 1 and 2: shard 1.
  shards[0].pending_load = 2.0;
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 1);
}

// --- Autoscaled (shrinking/growing) shard capacities: a shard whose
// next-period provisioning hit zero is drained and must never be
// targeted by any policy while an alternative exists. ---

TEST(ShardRouterTest, HashProbesPastDrainedShard) {
  ShardRouter router(RoutingPolicy::kHashUser, 4);
  std::vector<ShardStatus> shards(4);
  const auction::UserId user = 9;
  const int home = router.Route(SubmissionFor(user), shards);
  shards[static_cast<size_t>(home)].next_capacity = 0.0;
  const int rerouted = router.Route(SubmissionFor(user), shards);
  EXPECT_NE(rerouted, home);
  EXPECT_EQ(rerouted, (home + 1) % 4);  // Forward probe, deterministic.
  // Recovery: once the shard is provisioned again, the stable
  // placement snaps back.
  shards[static_cast<size_t>(home)].next_capacity = 1.5;
  EXPECT_EQ(router.Route(SubmissionFor(user), shards), home);
}

TEST(ShardRouterTest, LeastLoadedSkipsDrainedShard) {
  ShardRouter router(RoutingPolicy::kLeastLoaded, 3);
  std::vector<ShardStatus> shards(3);
  shards[0].pending_load = 1.0;
  shards[0].next_capacity = 0.0;  // Emptiest but drained.
  shards[1].pending_load = 5.0;
  shards[1].next_capacity = 2.0;  // 2.5x oversubscribed.
  shards[2].pending_load = 3.0;
  shards[2].next_capacity = 0.5;  // Shrunk AND 6x oversubscribed.
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 1);
}

// --- Capacity-relative least-loaded: raw pending load must not make a
// half-drained autoscaled shard look as roomy as a full one. ---

TEST(ShardRouterTest, LeastLoadedComparesLoadRelativeToCapacity) {
  ShardRouter router(RoutingPolicy::kLeastLoaded, 2);
  std::vector<ShardStatus> shards(2);
  // Shard 0 holds more absolute load but is provisioned 8x larger:
  // relative 0.5 vs 1.0 — the big shard is the roomy one.
  shards[0].pending_load = 4.0;
  shards[0].next_capacity = 8.0;
  shards[1].pending_load = 1.0;
  shards[1].next_capacity = 1.0;
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 0);
  // Equal relative load (0.5 both): ties stay on the lowest index.
  shards[1].pending_load = 0.5;
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 0);
}

TEST(ShardRouterTest, LeastLoadedUnknownCapacityComparesAtUnit) {
  ShardRouter router(RoutingPolicy::kLeastLoaded, 2);
  std::vector<ShardStatus> shards(2);
  // No owner-tracked provisioning anywhere: the comparison degrades to
  // the raw pending loads (capacity 1 assumed), the pre-autoscaling
  // behavior.
  shards[0].pending_load = 5.0;
  shards[1].pending_load = 1.0;
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 1);
}

TEST(ShardRouterTest, NeverTargetsZeroCapacityShard) {
  // Randomized shrink/grow sweep: whatever the provisioning pattern,
  // no policy may target a drained shard while any shard is live.
  Rng rng(0xD2A1Eull);
  for (const RoutingPolicy policy :
       {RoutingPolicy::kHashUser, RoutingPolicy::kLeastLoaded}) {
    ShardRouter router(policy, 5);
    for (int round = 0; round < 200; ++round) {
      std::vector<ShardStatus> shards(5);
      bool any_live = false;
      for (ShardStatus& s : shards) {
        // Autoscaled capacities: zero (drained), shrunk, or grown.
        const double capacity = rng.NextBool(0.4)
                                    ? 0.0
                                    : rng.NextRange(0.25, 4.0);
        s.next_capacity = capacity;
        any_live = any_live || capacity > 0.0;
        s.pending_load = rng.NextRange(0.0, 10.0);
      }
      if (!any_live) continue;
      const int target = router.Route(
          SubmissionFor(static_cast<auction::UserId>(round)), shards);
      EXPECT_TRUE(ShardRouter::Eligible(
          shards[static_cast<size_t>(target)]))
          << RoutingPolicyName(policy) << " round " << round;
    }
  }
}

TEST(ShardRouterTest, AllShardsDrainedFallsBackToStableHash) {
  ShardRouter router(RoutingPolicy::kLeastLoaded, 4);
  std::vector<ShardStatus> shards(4);
  for (ShardStatus& s : shards) s.next_capacity = 0.0;
  for (auction::UserId user = 0; user < 20; ++user) {
    EXPECT_EQ(router.Route(SubmissionFor(user), shards),
              static_cast<int>(ShardRouter::HashUser(user) % 4ull))
        << user;
  }
}

TEST(ShardRouterTest, UnknownNextCapacityStaysEligible) {
  ShardStatus status;  // next_capacity unset: owner tracks nothing.
  EXPECT_TRUE(ShardRouter::Eligible(status));
  status.next_capacity = 0.0;
  EXPECT_FALSE(ShardRouter::Eligible(status));
  status.next_capacity = 0.75;
  EXPECT_TRUE(ShardRouter::Eligible(status));
}

// --- Placement overrides: the rebalancer pins migrated tenants; every
// policy must follow the current placement, not the original hash. ---

TEST(ShardRouterTest, OverrideWinsUnderEveryPolicy) {
  std::vector<ShardStatus> shards(4);
  shards[2].pending_load = 1e9;  // Worst least-loaded choice.
  PlacementOverrides overrides;
  const auction::UserId user = 7;
  overrides[user] = 2;
  for (const RoutingPolicy policy :
       {RoutingPolicy::kHashUser, RoutingPolicy::kLeastLoaded}) {
    ShardRouter router(policy, 4);
    EXPECT_EQ(router.Route(SubmissionFor(user), shards, &overrides), 2)
        << RoutingPolicyName(policy);
    // Other users are unaffected.
    EXPECT_EQ(router.Route(SubmissionFor(user + 1), shards, &overrides),
              router.Route(SubmissionFor(user + 1), shards))
        << RoutingPolicyName(policy);
  }
}

TEST(ShardRouterTest, OverrideProbesPastDrainedHomeAndSnapsBack) {
  ShardRouter router(RoutingPolicy::kHashUser, 4);
  std::vector<ShardStatus> shards(4);
  PlacementOverrides overrides;
  overrides[7] = 2;
  shards[2].next_capacity = 0.0;  // Pinned home drained.
  EXPECT_EQ(router.Route(SubmissionFor(7), shards, &overrides), 3);
  shards[2].next_capacity = 1.0;  // Recovered: placement snaps back.
  EXPECT_EQ(router.Route(SubmissionFor(7), shards, &overrides), 2);
}

}  // namespace
}  // namespace streambid::cluster
