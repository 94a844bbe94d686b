// Copyright 2026 The streambid Authors

#include "stream/query_builder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace streambid::stream {
namespace {

TEST(QueryBuilderTest, LinearChainValidates) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(100.0));
  const int proj = b.Project(sel, {"symbol"});
  const QueryPlan plan = b.Build(proj);
  EXPECT_TRUE(plan.Validate().ok());
  EXPECT_EQ(plan.nodes.size(), 3u);
  EXPECT_EQ(plan.output_node, proj);
}

TEST(QueryBuilderTest, JoinPlanValidates) {
  QueryBuilder b;
  const int quotes = b.Source("quotes");
  const int news = b.Source("news");
  const int j = b.Join(quotes, news, "symbol", "company", 60.0);
  const QueryPlan plan = b.Build(j);
  EXPECT_TRUE(plan.Validate().ok());
  EXPECT_EQ(plan.nodes[static_cast<size_t>(j)].inputs.size(), 2u);
}

TEST(QueryBuilderTest, BuilderResetsAfterBuild) {
  QueryBuilder b;
  const int s1 = b.Source("a");
  const QueryPlan p1 = b.Build(s1);
  const int s2 = b.Source("b");
  const QueryPlan p2 = b.Build(s2);
  EXPECT_EQ(p1.nodes.size(), 1u);
  EXPECT_EQ(p2.nodes.size(), 1u);
  EXPECT_EQ(p2.nodes[0].spec.source_name, "b");
}

TEST(QueryBuilderTest, CostOverrideAppliesToLastNode) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(1.0));
  b.SetCostOverride(0.25);
  const QueryPlan plan = b.Build(sel);
  EXPECT_DOUBLE_EQ(plan.nodes[static_cast<size_t>(sel)].spec.cost_override,
                   0.25);
}

TEST(QueryPlanTest, SignatureStableAndStructural) {
  QueryBuilder b1;
  int s = b1.Source("quotes");
  int sel = b1.Select(s, "price", CompareOp::kGt, Value(100.0));
  const QueryPlan p1 = b1.Build(sel);

  QueryBuilder b2;
  s = b2.Source("quotes");
  sel = b2.Select(s, "price", CompareOp::kGt, Value(100.0));
  const QueryPlan p2 = b2.Build(sel);

  EXPECT_EQ(p1.NodeSignatures()[p1.output_node],
            p2.NodeSignatures()[p2.output_node]);

  QueryBuilder b3;
  s = b3.Source("quotes");
  sel = b3.Select(s, "price", CompareOp::kGt, Value(200.0));  // Differs.
  const QueryPlan p3 = b3.Build(sel);
  EXPECT_NE(p1.NodeSignatures()[p1.output_node],
            p3.NodeSignatures()[p3.output_node]);
}

TEST(QueryPlanTest, NodeSignaturesSpellEverySubtree) {
  // A self-join over one select: the select's subtree appears twice.
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(5.0));
  const int self_join = b.Join(sel, sel, "symbol", "symbol", 30.0);
  const std::vector<std::string> sigs = b.Build(self_join).NodeSignatures();
  ASSERT_EQ(sigs.size(), 3u);
  EXPECT_EQ(sigs[0], "source(quotes)");
  EXPECT_EQ(sigs[1], "select(price>d:5)<source(quotes)>");
  EXPECT_EQ(sigs[2],
            "join(symbol==symbol,w=30.000000)"
            "<select(price>d:5)<source(quotes)>;"
            "select(price>d:5)<source(quotes)>>");
}

TEST(QueryPlanTest, ValidateCatchesBadArity) {
  QueryPlan plan;
  QueryPlan::Node join;
  join.spec.kind = OpKind::kJoin;
  join.inputs = {0};  // Joins need two inputs.
  plan.nodes.push_back(join);
  plan.output_node = 0;
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(QueryPlanTest, ValidateCatchesForwardReference) {
  QueryPlan plan;
  QueryPlan::Node src;
  src.spec.kind = OpKind::kSource;
  src.spec.source_name = "s";
  QueryPlan::Node sel;
  sel.spec.kind = OpKind::kSelect;
  sel.spec.field = "x";
  sel.inputs = {1};  // Self/forward reference.
  plan.nodes.push_back(src);
  plan.nodes.push_back(sel);
  plan.output_node = 1;
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(QueryPlanTest, ValidateRequiresSource) {
  QueryPlan plan;
  plan.output_node = 0;
  EXPECT_FALSE(plan.Validate().ok());  // Empty.
}

TEST(OpSpecTest, SignaturesDistinguishKinds) {
  OpSpec select;
  select.kind = OpKind::kSelect;
  select.field = "x";
  select.operand = Value(1.0);
  OpSpec agg;
  agg.kind = OpKind::kAggregate;
  agg.field = "x";
  EXPECT_NE(select.Signature(), agg.Signature());
  EXPECT_NE(select.Signature().find("select"), std::string::npos);
}

TEST(OpSpecTest, CostPerTupleIsOverrideElseKindDefault) {
  OpSpec spec;
  spec.kind = OpKind::kJoin;
  EXPECT_DOUBLE_EQ(spec.cost_per_tuple(), DefaultCosts::kJoin);
  spec.cost_override = 0.25;
  EXPECT_DOUBLE_EQ(spec.cost_per_tuple(), 0.25);
  OpSpec source;
  source.kind = OpKind::kSource;
  EXPECT_DOUBLE_EQ(source.cost_per_tuple(), 0.0);
}

}  // namespace
}  // namespace streambid::stream
