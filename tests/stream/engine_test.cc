// Copyright 2026 The streambid Authors
// End-to-end engine behaviour: execution, operator sharing, sinks,
// measured loads, install order and plan rejection.

#include "stream/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "stream/query_builder.h"

namespace streambid::stream {
namespace {

/// Deterministic counter source: price cycles 1..10, symbol alternates.
class CounterSource final : public StreamSource {
 public:
  CounterSource(std::string name, double rate)
      : StreamSource(std::move(name),
                     MakeSchema({{"symbol", ValueType::kString},
                                 {"price", ValueType::kDouble}}),
                     rate, /*seed=*/1) {}

 protected:
  std::vector<Value> Generate(VirtualTime ts, Rng& rng) override {
    (void)ts;
    (void)rng;
    ++n_;
    return {Value(n_ % 2 == 0 ? "A" : "B"),
            Value(static_cast<double>(n_ % 10 + 1))};
  }

 private:
  int64_t n_ = 0;
};

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(EngineOptions{100.0, 1.0, 16}) {
    EXPECT_TRUE(engine_
                    .RegisterSource(std::make_unique<CounterSource>(
                        "quotes", /*rate=*/10.0))
                    .ok());
  }

  QueryPlan SelectPlan(double threshold) {
    QueryBuilder b;
    const int src = b.Source("quotes");
    const int sel =
        b.Select(src, "price", CompareOp::kGt, Value(threshold));
    return b.Build(sel);
  }

  Engine engine_;
};

TEST_F(EngineTest, RegisterSourceRejectsDuplicates) {
  EXPECT_FALSE(engine_
                   .RegisterSource(std::make_unique<CounterSource>(
                       "quotes", 1.0))
                   .ok());
  EXPECT_NE(engine_.source("quotes"), nullptr);
  EXPECT_EQ(engine_.source("nope"), nullptr);
}

TEST_F(EngineTest, InstallAndRunDeliversToSink) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  engine_.Run(10.0);
  const SinkStats* sink = engine_.sink(1);
  ASSERT_NE(sink, nullptr);
  // Prices cycle 1..10; > 5 passes half: ~100 tuples emitted, ~50 pass.
  EXPECT_GT(sink->tuples, 30);
  EXPECT_LT(sink->tuples, 70);
  EXPECT_FALSE(sink->recent.empty());
}

TEST_F(EngineTest, InstallValidatesPlan) {
  QueryBuilder b;
  const int src = b.Source("unknown_stream");
  const QueryPlan bad_source = b.Build(src);
  EXPECT_EQ(engine_.InstallQuery(1, bad_source).code(),
            StatusCode::kNotFound);

  const int src2 = b.Source("quotes");
  const int sel = b.Select(src2, "no_such_field", CompareOp::kGt,
                           Value(1.0));
  const QueryPlan bad_field = b.Build(sel);
  EXPECT_EQ(engine_.InstallQuery(1, bad_field).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine_.IsInstalled(1));
}

TEST_F(EngineTest, DuplicateIdRejected) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  EXPECT_EQ(engine_.InstallQuery(1, SelectPlan(6.0)).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, IdenticalPlansShareOperators) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  const int nodes_after_first = engine_.num_runtime_nodes();
  ASSERT_TRUE(engine_.InstallQuery(2, SelectPlan(5.0)).ok());
  // Same subtree: no new nodes.
  EXPECT_EQ(engine_.num_runtime_nodes(), nodes_after_first);
  EXPECT_EQ(engine_.num_shared_nodes(), nodes_after_first);

  ASSERT_TRUE(engine_.InstallQuery(3, SelectPlan(7.0)).ok());
  // Different predicate: one new select node, shared source.
  EXPECT_EQ(engine_.num_runtime_nodes(), nodes_after_first + 1);

  engine_.Run(5.0);
  // Both sharers see identical outputs.
  EXPECT_EQ(engine_.sink(1)->tuples, engine_.sink(2)->tuples);
  EXPECT_GT(engine_.sink(1)->tuples, 0);
}

TEST_F(EngineTest, SharedOutputNodeHandsOneRowToEverySink) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  ASSERT_TRUE(engine_.InstallQuery(2, SelectPlan(5.0)).ok());
  engine_.Run(3.0);
  const SinkStats* first = engine_.sink(1);
  const SinkStats* second = engine_.sink(2);
  ASSERT_FALSE(first->recent.empty());
  ASSERT_EQ(first->recent.size(), second->recent.size());
  // Both queries' output is the one shared select node: its sinks hold
  // the same rows, not copies of them.
  for (size_t i = 0; i < first->recent.size(); ++i) {
    EXPECT_EQ(&first->recent[i].values(), &second->recent[i].values());
  }
}

TEST_F(EngineTest, UninstallKeepsSharedNodesAlive) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  ASSERT_TRUE(engine_.InstallQuery(2, SelectPlan(5.0)).ok());
  const int shared_nodes = engine_.num_runtime_nodes();
  ASSERT_TRUE(engine_.UninstallQuery(1).ok());
  EXPECT_EQ(engine_.num_runtime_nodes(), shared_nodes);
  ASSERT_TRUE(engine_.UninstallQuery(2).ok());
  EXPECT_EQ(engine_.num_runtime_nodes(), 0);
  EXPECT_EQ(engine_.UninstallQuery(2).code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, RunWithoutQueriesIsHarmless) {
  engine_.Run(5.0);
  EXPECT_DOUBLE_EQ(engine_.now(), 5.0);
  EXPECT_DOUBLE_EQ(engine_.LastRunCost(), 0.0);
}

TEST_F(EngineTest, MeasuredLoadsReflectRates) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  engine_.Run(10.0);
  bool found_select = false;
  for (const OperatorLoadInfo& info : engine_.OperatorLoads()) {
    if (info.is_source) continue;
    found_select = true;
    // 10 tuples/sec * kSelect cost (0.01) = 0.1 capacity units.
    EXPECT_NEAR(info.measured_load, 10.0 * 0.01, 0.02);
    EXPECT_EQ(info.sharing_degree, 1);
    EXPECT_GT(info.tuples_processed, 0);
  }
  EXPECT_TRUE(found_select);
  EXPECT_GT(engine_.LastRunUtilization(), 0.0);
  EXPECT_LT(engine_.LastRunUtilization(), 1.0);
}

TEST_F(EngineTest, MeasuredLoadLookupBySignature) {
  const QueryPlan plan = SelectPlan(5.0);
  ASSERT_TRUE(engine_.InstallQuery(1, plan).ok());
  EXPECT_EQ(engine_.MeasuredLoad("nope").status().code(),
            StatusCode::kNotFound);
  engine_.Run(10.0);
  auto load =
      engine_.MeasuredLoad(plan.NodeSignatures()[plan.output_node]);
  ASSERT_TRUE(load.ok());
  EXPECT_GT(*load, 0.0);
}

TEST_F(EngineTest, AggregateQueryEmitsWindows) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int agg = b.Aggregate(src, AggFn::kAvg, "price", "symbol",
                              {10.0, 10.0});
  ASSERT_TRUE(engine_.InstallQuery(9, b.Build(agg)).ok());
  engine_.Run(25.0);
  // Two full windows closed ([0,10), [10,20)), two symbols each.
  const SinkStats* sink = engine_.sink(9);
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->tuples, 4);
}

TEST_F(EngineTest, DeriveOutputSchemaMatchesInstalled) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int agg = b.Aggregate(src, AggFn::kAvg, "price", "symbol",
                              {10.0, 10.0});
  const QueryPlan plan = b.Build(agg);
  auto schema = engine_.DeriveOutputSchema(plan);
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE((*schema)->HasField("symbol"));
  EXPECT_TRUE((*schema)->HasField("window_end"));
  EXPECT_TRUE((*schema)->HasField("value"));
}

TEST_F(EngineTest, BadOperatorParametersAreInvalidArgument) {
  // Each plan puts one out-of-range parameter on the output node; the
  // engine must refuse it instead of reaching the operator's CHECK.
  using AddBadNode = int (*)(QueryBuilder&, int);
  const std::vector<std::pair<std::string, AddBadNode>> cases = {
      {"aggregate size <= 0",
       [](QueryBuilder& b, int src) {
         return b.Aggregate(src, AggFn::kCount, "", "", {0.0, 0.0});
       }},
      {"aggregate slide <= 0",
       [](QueryBuilder& b, int src) {
         return b.Aggregate(src, AggFn::kCount, "", "", {10.0, -1.0});
       }},
      {"aggregate slide > size",
       [](QueryBuilder& b, int src) {
         return b.Aggregate(src, AggFn::kCount, "", "", {10.0, 20.0});
       }},
      {"join window <= 0",
       [](QueryBuilder& b, int src) {
         return b.Join(src, src, "symbol", "symbol", 0.0);
       }},
      {"distinct window <= 0",
       [](QueryBuilder& b, int src) {
         return b.Distinct(src, "symbol", -5.0);
       }},
      {"topk window <= 0",
       [](QueryBuilder& b, int src) { return b.TopK(src, 3, "price", 0.0); }},
      {"map divides by 0",
       [](QueryBuilder& b, int src) {
         return b.Map(src, "price", MapFn::kDiv, 0.0, "q");
       }},
      {"aggregate size NaN",
       [](QueryBuilder& b, int src) {
         return b.Aggregate(src, AggFn::kCount, "", "", {std::nan(""), 1.0});
       }},
      {"join window NaN",
       [](QueryBuilder& b, int src) {
         return b.Join(src, src, "symbol", "symbol", std::nan(""));
       }},
  };
  int query_id = 0;
  for (const auto& [what, add_bad_node] : cases) {
    SCOPED_TRACE(what);
    QueryBuilder b;
    const int src = b.Source("quotes");
    const QueryPlan plan = b.Build(add_bad_node(b, src));
    EXPECT_EQ(engine_.DeriveOutputSchema(plan).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine_.InstallQuery(++query_id, plan).code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(engine_.IsInstalled(query_id));
  }
  EXPECT_EQ(engine_.num_runtime_nodes(), 0);
}

TEST_F(EngineTest, InstallLinksReachableNodesInDepthFirstPostOrder) {
  // The join's right input precedes its left input in plan order, and
  // one select is unreachable from the output.
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int right = b.Select(src, "price", CompareOp::kGt, Value(7.0));
  const int left = b.Select(src, "price", CompareOp::kGt, Value(3.0));
  b.Select(src, "price", CompareOp::kGt, Value(9.0));
  const int join = b.Join(left, right, "symbol", "symbol", 5.0);
  const QueryPlan plan = b.Build(join);
  ASSERT_TRUE(engine_.InstallQuery(1, plan).ok());

  // Inputs first, in port order: not plan order, and without node 3.
  EXPECT_EQ(engine_.num_runtime_nodes(), 4);
  const std::vector<std::string> sigs = plan.NodeSignatures();
  const std::vector<int> post_order = {src, left, right, join};
  const std::vector<OperatorLoadInfo> loads = engine_.OperatorLoads();
  ASSERT_EQ(loads.size(), post_order.size());
  for (size_t k = 0; k < post_order.size(); ++k) {
    EXPECT_EQ(loads[k].signature,
              sigs[static_cast<size_t>(post_order[k])]);
  }
}

TEST_F(EngineTest, FailedInstallLeavesInstalledQueriesUntouched) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  auto sharing_degrees = [this] {
    std::vector<int> degrees;
    for (const OperatorLoadInfo& info : engine_.OperatorLoads()) {
      degrees.push_back(info.sharing_degree);
    }
    return degrees;
  };
  const int nodes_before = engine_.num_runtime_nodes();
  const std::vector<int> degrees_before = sharing_degrees();

  // q2 reaches q1's select and a fresh select above it; its bad field
  // sits on a node the output never reaches.
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int shared = b.Select(src, "price", CompareOp::kGt, Value(5.0));
  b.Select(src, "no_such_field", CompareOp::kGt, Value(1.0));
  const int fresh = b.Select(shared, "price", CompareOp::kLt, Value(9.0));
  EXPECT_EQ(engine_.InstallQuery(2, b.Build(fresh)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine_.IsInstalled(2));
  EXPECT_EQ(engine_.num_runtime_nodes(), nodes_before);
  EXPECT_EQ(sharing_degrees(), degrees_before);
}

}  // namespace
}  // namespace streambid::stream
