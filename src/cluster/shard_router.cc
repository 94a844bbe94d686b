// Copyright 2026 The streambid Authors

#include "cluster/shard_router.h"

#include "common/check.h"
#include "common/rng.h"

namespace streambid::cluster {

namespace {

/// Pending load relative to the shard's next-period capacity. A shard
/// whose owner tracks no provisioning compares at capacity 1 — with a
/// provisioning-tracking owner (the ClusterCenter) every shard always
/// carries a capacity, so the mixed case only arises in hand-built
/// status vectors.
double RelativeLoad(const ShardStatus& status) {
  return status.pending_load / status.next_capacity.value_or(1.0);
}

}  // namespace

const char* RoutingPolicyName(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kHashUser:
      return "hash";
    case RoutingPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "unknown";
}

ShardRouter::ShardRouter(RoutingPolicy policy, int num_shards)
    : policy_(policy), num_shards_(num_shards) {
  STREAMBID_CHECK_GE(num_shards, 1);
}

uint64_t ShardRouter::HashUser(auction::UserId user) {
  // User ids are typically small and sequential; Mix64 spreads them
  // evenly over shards.
  return Mix64(static_cast<uint64_t>(static_cast<int64_t>(user)) +
               0x9E3779B97F4A7C15ull);
}

int ShardRouter::ProbeFrom(int home,
                           const std::vector<ShardStatus>& shards) const {
  // Probe forward from the home shard past drained ones, so the
  // placement stays stable while a shard's provisioning is at zero and
  // snaps back the period it recovers.
  for (int k = 0; k < num_shards_; ++k) {
    const int s = (home + k) % num_shards_;
    if (Eligible(shards[static_cast<size_t>(s)])) return s;
  }
  return home;  // Everything drained: deterministic degenerate choice.
}

int ShardRouter::RouteHash(const stream::QuerySubmission& submission,
                           const std::vector<ShardStatus>& shards) const {
  return ProbeFrom(static_cast<int>(HashUser(submission.user) %
                                    static_cast<uint64_t>(num_shards_)),
                   shards);
}

int ShardRouter::Route(const stream::QuerySubmission& submission,
                       const std::vector<ShardStatus>& shards,
                       const PlacementOverrides* overrides) const {
  STREAMBID_CHECK_EQ(static_cast<int>(shards.size()), num_shards_);
  // A pinned placement wins under every policy: the rebalancer moved
  // this tenant's state, so routing anywhere else would re-split it.
  if (overrides != nullptr) {
    const auto it = overrides->find(submission.user);
    if (it != overrides->end()) {
      STREAMBID_CHECK_GE(it->second, 0);
      STREAMBID_CHECK_LT(it->second, num_shards_);
      return ProbeFrom(it->second, shards);
    }
  }
  switch (policy_) {
    case RoutingPolicy::kHashUser:
      return RouteHash(submission, shards);

    case RoutingPolicy::kLeastLoaded: {
      int best = -1;
      for (int s = 0; s < num_shards_; ++s) {
        if (!Eligible(shards[static_cast<size_t>(s)])) continue;
        // Load relative to next-period capacity: a half-drained shard
        // with half the pending load is exactly as full, not roomier.
        // Strict <: ties stay on the lowest index (deterministic).
        if (best < 0 || RelativeLoad(shards[static_cast<size_t>(s)]) <
                            RelativeLoad(shards[static_cast<size_t>(best)])) {
          best = s;
        }
      }
      return best >= 0 ? best : RouteHash(submission, shards);
    }
  }
  STREAMBID_CHECK(false);
  return 0;
}

}  // namespace streambid::cluster
