// Copyright 2026 The streambid Authors
// Byte-identity oracle for the stream engine. One network shares nodes
// across queries and uses every operator kind; it runs overloaded with
// tuple shedding on and goes through a transition that holds, replays
// and uninstalls. Everything observable — sink counts and histories,
// per-node tuple counts and measured loads (the c_j the auction
// prices), and the shed counts — folds into one FNV-1a hash whose
// value is pinned. Any change to emission order, operator semantics or
// the shedding RNG draw order moves the hash.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "stream/engine.h"
#include "stream/query_builder.h"

namespace streambid::stream {
namespace {

class Fnv1a {
 public:
  void Add(const std::string& s) {
    for (const char c : s) Byte(static_cast<uint8_t>(c));
    Byte(0xFF);  // Separator: "ab"+"c" != "a"+"bc".
  }
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ull;
  }
  uint64_t h_ = 0xCBF29CE484222325ull;
};

QueryPlan HighQuotes() {  // q1 and q8: identical plans share a sink node.
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(100.0));
  return b.Build(b.Project(sel, {"symbol", "price"}));
}

QueryPlan HighQuotesVolumeK() {  // Shares the select with q1.
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(100.0));
  return b.Build(b.Map(sel, "volume", MapFn::kMul, 0.001, "volume_k"));
}

QueryPlan SlidingAvgBySymbol() {  // Grouped, overlapping windows.
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(100.0));
  return b.Build(
      b.Aggregate(sel, AggFn::kAvg, "price", "symbol", {3.0, 1.0}));
}

QueryPlan CountAll() {  // Ungrouped, tumbling.
  QueryBuilder b;
  const int src = b.Source("quotes");
  return b.Build(b.Aggregate(src, AggFn::kCount, "", "", {2.0, 2.0}));
}

QueryPlan QuotesJoinListedNews() {
  QueryBuilder b;
  const int quotes = b.Source("quotes");
  const int high =
      b.Select(quotes, "price", CompareOp::kGt, Value(100.0));
  const int news = b.Source("news");
  const int listed =
      b.Select(news, "listed", CompareOp::kEq, Value(int64_t{1}));
  return b.Build(b.Join(high, listed, "symbol", "company", 2.0));
}

QueryPlan ExtremesDistinct() {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int high = b.Select(src, "price", CompareOp::kGt, Value(100.0));
  const int low = b.Select(src, "price", CompareOp::kLt, Value(99.0));
  const int both = b.Union(high, low);
  return b.Build(b.Distinct(both, "symbol", 3.0));
}

QueryPlan TopVolume() {
  QueryBuilder b;
  const int src = b.Source("quotes");
  return b.Build(b.TopK(src, 3, "volume", 2.0));
}

void HashEngine(const Engine& engine, Fnv1a* h) {
  for (const int qid : engine.InstalledQueries()) {
    const SinkStats* sink = engine.sink(qid);
    h->Add(static_cast<int64_t>(qid));
    h->Add(sink->tuples);
    for (const Tuple& t : sink->recent) h->Add(t.ToString());
  }
  for (const OperatorLoadInfo& info : engine.OperatorLoads()) {
    h->Add(info.signature);
    h->Add(info.tuples_processed);
    h->Add(info.measured_load);
  }
}

TEST(EngineGoldenTest, SharedNetworkOutputsAreStable) {
  EngineOptions options;
  options.capacity = 2.0;
  options.tick = 0.5;
  options.sink_history = 6;
  options.shed_on_overload = true;
  Engine engine(options);
  ASSERT_TRUE(engine
                  .RegisterSource(MakeStockQuoteSource(
                      "quotes", {"IBM", "AAPL", "MSFT", "GOOG"},
                      /*rate=*/40.0, /*seed=*/11))
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterSource(MakeNewsSource(
                      "news", {"IBM", "AAPL", "ACME"},
                      /*listed_fraction=*/0.7, /*rate=*/8.0, /*seed=*/12))
                  .ok());
  ASSERT_TRUE(engine.InstallQuery(1, HighQuotes()).ok());
  ASSERT_TRUE(engine.InstallQuery(2, HighQuotesVolumeK()).ok());
  ASSERT_TRUE(engine.InstallQuery(3, SlidingAvgBySymbol()).ok());
  ASSERT_TRUE(engine.InstallQuery(4, CountAll()).ok());
  ASSERT_TRUE(engine.InstallQuery(5, QuotesJoinListedNews()).ok());
  ASSERT_TRUE(engine.InstallQuery(6, ExtremesDistinct()).ok());
  ASSERT_TRUE(engine.InstallQuery(7, TopVolume()).ok());
  ASSERT_TRUE(engine.InstallQuery(8, HighQuotes()).ok());
  EXPECT_GT(engine.num_shared_nodes(), 0);

  Fnv1a h;
  int64_t shed_total = 0;
  engine.Run(12.0);
  shed_total += engine.LastRunShedTuples();
  h.Add(engine.LastRunShedTuples());
  HashEngine(engine, &h);

  // Transition: arrivals are held, q3 leaves, held tuples replay.
  engine.BeginTransition();
  engine.Run(2.0);
  ASSERT_TRUE(engine.UninstallQuery(3).ok());
  ASSERT_TRUE(engine.CommitTransition().ok());
  HashEngine(engine, &h);

  engine.Run(12.0);
  shed_total += engine.LastRunShedTuples();
  h.Add(engine.LastRunShedTuples());
  HashEngine(engine, &h);

  EXPECT_GT(shed_total, 0);  // The capacity really sheds.
  EXPECT_GT(engine.sink(5)->tuples, 0);  // The join really matches.
  EXPECT_EQ(h.value(), 0xCA1FCA07F4958542ull) << std::hex << "0x" << h.value();
}

}  // namespace
}  // namespace streambid::stream
