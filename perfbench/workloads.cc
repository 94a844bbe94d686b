// Copyright 2026 The streambid Authors

#include "perfbench/workloads.h"

#include <utility>

#include "common/rng.h"
#include "common/zipf.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace streambid::perfbench {
namespace {

using stream::CompareOp;
using stream::QueryBuilder;
using stream::QuerySubmission;
using stream::Value;

/// SplitMix64 finalizer: decorrelates (seed, period, salt) into one
/// generator seed, so each period's batch is independent of the others.
uint64_t Mix(uint64_t seed, uint64_t period, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + period * 0xBF58476D1CE4E5B9ull +
               salt * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const std::vector<std::string>& Symbols() {
  static const std::vector<std::string> kSymbols = {
      "IBM", "AAPL", "MSFT", "GOOG", "ORCL", "SAP", "INTC", "AMZN"};
  return kSymbols;
}

/// Every selection filters on the quote volume, which is drawn uniformly
/// from [100, 10100) on every tuple. Prices random-walk, so a price
/// filter's selectivity would drift over a run and differ by seed.
int VolumeSelect(QueryBuilder& b, int quotes, int64_t threshold) {
  return b.Select(quotes, "volume", CompareOp::kGt, Value(threshold));
}

// ---------------------------------------------------------------------------
// engine_share: multi-operator plans over shared quote and news streams.
// The stream engine does the work here (engine completion is most of
// the shard-phase time), so an engine change must show its gain on this
// workload. A few thresholds recur, so subtrees are shared.

constexpr int kShareTenants = 200;
constexpr int kShareOffers = 64;
constexpr int kShareTemplates = 5;
constexpr int64_t kShareThresholds[] = {2000, 4000, 6000, 8000};

class EngineShareGenerator final : public BatchGenerator {
 public:
  explicit EngineShareGenerator(uint64_t seed)
      : seed_(seed), tenants_(kShareTenants, 1.1) {}

  std::vector<QuerySubmission> Batch(int period) const override {
    Rng rng(Mix(seed_, static_cast<uint64_t>(period), 1));
    std::vector<QuerySubmission> batch;
    batch.reserve(kShareOffers);
    for (int i = 0; i < kShareOffers; ++i) {
      const int tenant = tenants_.Sample(rng);
      // A tenant mostly re-submits its favourite plan, which is what
      // makes whole subtrees recur across tenants and periods. The
      // favourite follows the tenant's popularity rank, not the seed:
      // the heaviest tenants send a fifth of the offers, so a seeded
      // favourite would make the plan mix differ from seed to seed.
      const int shape = rng.NextBool(0.7)
                            ? tenant % kShareTemplates
                            : static_cast<int>(rng.NextBounded(
                                  kShareTemplates));
      const int64_t threshold =
          kShareThresholds[rng.NextBool(0.7)
                               ? (tenant / kShareTemplates) % 4
                               : rng.NextBounded(4)];
      QuerySubmission sub;
      sub.query_id = period * 128 + i;
      sub.user = static_cast<auction::UserId>(tenant);
      sub.bid = rng.NextRange(5.0, 40.0);
      sub.plan = Plan(shape, threshold);
      batch.push_back(std::move(sub));
    }
    return batch;
  }

 private:
  static stream::QueryPlan Plan(int shape, int64_t threshold) {
    QueryBuilder b;
    const int quotes = b.Source("quotes");
    const int sel = VolumeSelect(b, quotes, threshold);
    switch (shape) {
      case 0: {
        const int notional =
            b.Map(sel, "price", stream::MapFn::kMul, 100.0, "notional");
        return b.Build(b.Aggregate(notional, stream::AggFn::kAvg, "notional",
                                   "symbol", {2.0, 2.0}));
      }
      case 1: {
        const int news = b.Source("news");
        const int listed =
            b.Select(news, "listed", CompareOp::kEq, Value(int64_t{1}));
        // A short window: a multi-second window multiplies the join's
        // output until it drowns every other operator.
        return b.Build(b.Join(sel, listed, "symbol", "company", 0.5));
      }
      case 2:
        return b.Build(b.TopK(sel, 3, "price", 2.0));
      case 3:
        return b.Build(b.Distinct(sel, "symbol", 2.0));
      default:
        return b.Build(b.Project(sel, {"symbol", "price"}));
    }
  }

  uint64_t seed_;
  ZipfDistribution tenants_;
};

std::unique_ptr<Workload> MakeEngineShare(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "engine_share";
  w->stressor = Stressor::kEngine;
  w->cluster.total_capacity = 72.0;
  w->cluster.period_length = 6.0;
  w->cluster.engine_options.tick = 1.0;
  w->cluster.engine_options.sink_history = 4;
  w->configure_engine = [seed](stream::Engine& engine) -> Status {
    STREAMBID_RETURN_IF_ERROR(engine.RegisterSource(
        stream::MakeStockQuoteSource("quotes", Symbols(), 100.0,
                                     Mix(seed, 0, 3))));
    return engine.RegisterSource(stream::MakeNewsSource(
        "news", Symbols(), 0.7, 20.0, Mix(seed, 0, 4)));
  };
  w->ingress.tenant_classes = 4;
  w->ingress.tickets_per_class = 22;
  w->generator = std::make_unique<EngineShareGenerator>(seed);
  w->warmup_periods = 30;
  w->check_periods = 60;
  w->outcome_periods = 1000;
  return w;
}

// ---------------------------------------------------------------------------
// auction_crowd: many cheap single-select offers per period. Tuple work
// is negligible; the gate's Offer/shed path, the SubmitBatch drain with
// per-submission validation, the auction build and the engine's
// install/uninstall transition do the work. The pools shed about 15% of
// the offers, deterministically, because a single thread offers them.

constexpr int kCrowdTenants = 4096;
constexpr int kCrowdOffers = 1200;
constexpr int kCrowdThresholds = 64;

class AuctionCrowdGenerator final : public BatchGenerator {
 public:
  explicit AuctionCrowdGenerator(uint64_t seed) : seed_(seed) {}

  std::vector<QuerySubmission> Batch(int period) const override {
    Rng rng(Mix(seed_, static_cast<uint64_t>(period), 5));
    std::vector<QuerySubmission> batch;
    batch.reserve(kCrowdOffers);
    for (int i = 0; i < kCrowdOffers; ++i) {
      QueryBuilder b;
      const int quotes = b.Source("quotes");
      const int64_t step =
          static_cast<int64_t>(rng.NextBounded(kCrowdThresholds));
      const int sel = VolumeSelect(b, quotes, 150 + 156 * step);
      b.SetCostOverride(rng.NextRange(0.01, 0.2));
      QuerySubmission sub;
      sub.query_id = period * 2048 + i;
      sub.user = static_cast<auction::UserId>(1 + rng.NextBounded(
                                                      kCrowdTenants));
      sub.bid = rng.NextRange(1.0, 20.0);
      sub.plan = b.Build(sel);
      batch.push_back(std::move(sub));
    }
    return batch;
  }

 private:
  uint64_t seed_;
};

std::unique_ptr<Workload> MakeAuctionCrowd(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "auction_crowd";
  w->stressor = Stressor::kAuction;
  w->cluster.total_capacity = 7.0;
  w->cluster.period_length = 1.0;
  w->cluster.engine_options.tick = 1.0;
  w->cluster.engine_options.sink_history = 1;
  w->configure_engine = [seed](stream::Engine& engine) -> Status {
    return engine.RegisterSource(stream::MakeStockQuoteSource(
        "quotes", Symbols(), 5.0, Mix(seed, 0, 6)));
  };
  w->ingress.tenant_classes = 8;
  w->ingress.tickets_per_class = 128;
  w->generator = std::make_unique<AuctionCrowdGenerator>(seed);
  w->warmup_periods = 20;
  w->check_periods = 30;
  w->outcome_periods = 1000;
  return w;
}

// ---------------------------------------------------------------------------
// control_plane: a handful of offers per one-tick period, with the
// per-shard autoscaler and the rebalancer on. No layer has much work, so
// the fixed per-period costs show: executor fan-out and wake-up, merge,
// router refresh, autoscale and rebalance. Capacity is tight so prices
// are non-zero, and the Zipf-skewed tenants make one shard hot enough to
// migrate from.

constexpr int kControlTenants = 48;

class ControlPlaneGenerator final : public BatchGenerator {
 public:
  explicit ControlPlaneGenerator(uint64_t seed)
      : seed_(seed), tenants_(kControlTenants, 1.0) {}

  std::vector<QuerySubmission> Batch(int period) const override {
    Rng rng(Mix(seed_, static_cast<uint64_t>(period), 7));
    const int offers = static_cast<int>(rng.NextInt(4, 8));
    std::vector<QuerySubmission> batch;
    batch.reserve(static_cast<size_t>(offers));
    for (int i = 0; i < offers; ++i) {
      QueryBuilder b;
      const int quotes = b.Source("quotes");
      int out = VolumeSelect(b, quotes,
                             1000 + 1000 * static_cast<int64_t>(
                                               rng.NextBounded(8)));
      if (rng.NextBool(0.5)) out = b.Project(out, {"symbol", "volume"});
      QuerySubmission sub;
      sub.query_id = period * 16 + i;
      sub.user = static_cast<auction::UserId>(tenants_.Sample(rng));
      sub.bid = rng.NextRange(5.0, 30.0);
      sub.plan = b.Build(out);
      batch.push_back(std::move(sub));
    }
    return batch;
  }

 private:
  uint64_t seed_;
  ZipfDistribution tenants_;
};

std::unique_ptr<Workload> MakeControlPlane(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "control_plane";
  w->stressor = Stressor::kControl;
  w->cluster.total_capacity = 2.0;
  w->cluster.period_length = 1.0;
  w->cluster.engine_options.tick = 1.0;
  w->cluster.engine_options.sink_history = 1;
  w->cluster.autoscale.enabled = true;
  w->cluster.rebalance.enabled = true;
  w->configure_engine = [seed](stream::Engine& engine) -> Status {
    return engine.RegisterSource(stream::MakeStockQuoteSource(
        "quotes", Symbols(), 10.0, Mix(seed, 0, 8)));
  };
  w->ingress.tenant_classes = 2;
  w->ingress.tickets_per_class = 4;
  w->generator = std::make_unique<ControlPlaneGenerator>(seed);
  w->warmup_periods = 500;
  w->check_periods = 800;
  w->outcome_periods = 20000;
  return w;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  std::unique_ptr<Workload> w;
  if (name == "engine_share") w = MakeEngineShare(seed);
  if (name == "auction_crowd") w = MakeAuctionCrowd(seed);
  if (name == "control_plane") w = MakeControlPlane(seed);
  if (w == nullptr) return nullptr;
  // Shared by every workload: the paper's CAT auction on four shards
  // behind the stable user hash, fronted by a gate that sheds at once.
  w->cluster.num_shards = 4;
  w->cluster.mechanism = "cat";
  w->cluster.routing = cluster::RoutingPolicy::kHashUser;
  w->cluster.seed = seed;
  w->ingress.acquire_timeout_ms = 0.0;
  return w;
}

}  // namespace streambid::perfbench
