// Copyright 2026 The streambid Authors
// The §II transition phase: during the boundary between subscription
// periods, connection points hold arriving tuples, in-flight tuples
// drain, the network is modified, and held tuples replay before new
// arrivals — "this transition phase ensures the correctness of the
// results output by CQs that continue to execute".

#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "stream/engine.h"
#include "stream/query_builder.h"

namespace streambid::stream {
namespace {

/// Emits exactly one tuple per second with increasing sequence numbers.
class SequenceSource final : public StreamSource {
 public:
  explicit SequenceSource(std::string name)
      : StreamSource(std::move(name),
                     MakeSchema({{"seq", ValueType::kInt64}}), 1.0, 1) {}

 protected:
  std::vector<Value> Generate(VirtualTime ts, Rng& rng) override {
    (void)ts;
    (void)rng;
    return {Value(next_++)};
  }

 private:
  int64_t next_ = 0;
};

QueryPlan PassThrough() {
  QueryBuilder b;
  const int src = b.Source("seq");
  const int sel = b.Select(src, "seq", CompareOp::kGe, Value(int64_t{0}));
  return b.Build(sel);
}

QueryPlan EvenOnly() {
  QueryBuilder b;
  const int src = b.Source("seq");
  const int sel = b.Select(src, "seq", CompareOp::kGe, Value(int64_t{0}));
  const int proj = b.Project(sel, {"seq"});
  return b.Build(proj);
}

class TransitionTest : public ::testing::Test {
 protected:
  TransitionTest() : engine_(EngineOptions{100.0, 1.0, 1024}) {
    EXPECT_TRUE(
        engine_.RegisterSource(std::make_unique<SequenceSource>("seq"))
            .ok());
  }

  Engine engine_;
};

TEST_F(TransitionTest, HeldTuplesReplayAfterCommit) {
  ASSERT_TRUE(engine_.InstallQuery(1, PassThrough()).ok());
  engine_.Run(5.0);
  const int64_t before = engine_.sink(1)->tuples;
  ASSERT_GT(before, 0);

  engine_.BeginTransition();
  EXPECT_TRUE(engine_.in_transition());
  // Tuples arriving mid-transition are held at the connection point.
  engine_.Run(5.0);
  EXPECT_EQ(engine_.sink(1)->tuples, before);

  ASSERT_TRUE(engine_.CommitTransition().ok());
  EXPECT_FALSE(engine_.in_transition());
  // Held tuples were replayed: nothing lost.
  const int64_t after = engine_.sink(1)->tuples;
  EXPECT_GT(after, before);
  // Running further continues normally.
  engine_.Run(5.0);
  EXPECT_GT(engine_.sink(1)->tuples, after);
}

TEST_F(TransitionTest, NoTupleLossAcrossTransition) {
  ASSERT_TRUE(engine_.InstallQuery(1, PassThrough()).ok());
  engine_.Run(10.0);
  engine_.BeginTransition();
  engine_.Run(7.0);
  ASSERT_TRUE(engine_.CommitTransition().ok());
  engine_.Run(10.0);
  // Sequence source emits 1/s beginning at t=0: by t=27 it has emitted
  // 28 tuples (0..27). Every one must reach the sink exactly once.
  EXPECT_EQ(engine_.sink(1)->tuples, 28);
  // Sequence numbers in the sink history are consecutive.
  const auto& recent = engine_.sink(1)->recent;
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].field("seq").AsInt64(),
              recent[i - 1].field("seq").AsInt64() + 1);
  }
}

TEST_F(TransitionTest, QuerySwapDuringTransition) {
  ASSERT_TRUE(engine_.InstallQuery(1, PassThrough()).ok());
  engine_.Run(5.0);
  engine_.BeginTransition();
  ASSERT_TRUE(engine_.UninstallQuery(1).ok());
  ASSERT_TRUE(engine_.InstallQuery(2, EvenOnly()).ok());
  engine_.Run(3.0);  // Held.
  ASSERT_TRUE(engine_.CommitTransition().ok());
  engine_.Run(5.0);
  EXPECT_EQ(engine_.sink(1), nullptr);
  // The new query received the held tuples AND the post-commit ones.
  EXPECT_GT(engine_.sink(2)->tuples, 5);
}

TEST_F(TransitionTest, SinkHistoryOutlivesUninstall) {
  ASSERT_TRUE(engine_.InstallQuery(1, EvenOnly()).ok());
  engine_.Run(5.0);
  // Handles to the rows the project node produced.
  const std::deque<Tuple> history = engine_.sink(1)->recent;
  ASSERT_EQ(history.size(), 6u);  // seq 0..5.
  engine_.BeginTransition();
  ASSERT_TRUE(engine_.UninstallQuery(1).ok());
  ASSERT_TRUE(engine_.CommitTransition().ok());
  // The nodes and the sink are gone; the rows they shared are not.
  EXPECT_EQ(engine_.num_runtime_nodes(), 0);
  EXPECT_EQ(engine_.sink(1), nullptr);
  int64_t seq = 0;
  for (const Tuple& t : history) {
    EXPECT_EQ(t.schema()->ToString(), "seq:int64");
    EXPECT_DOUBLE_EQ(t.timestamp(), static_cast<double>(seq));
    EXPECT_EQ(t.ToString(),
              "(ts=" + std::to_string(t.timestamp()) +
                  " seq=" + std::to_string(seq) + ")");
    ++seq;
  }
}

TEST_F(TransitionTest, CommitWithoutBeginFails) {
  EXPECT_EQ(engine_.CommitTransition().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(TransitionTest, DoubleBeginIsIdempotent) {
  ASSERT_TRUE(engine_.InstallQuery(1, PassThrough()).ok());
  engine_.BeginTransition();
  engine_.BeginTransition();
  EXPECT_TRUE(engine_.in_transition());
  ASSERT_TRUE(engine_.CommitTransition().ok());
  EXPECT_FALSE(engine_.in_transition());
}

TEST_F(TransitionTest, NewQueryDoesNotSeePreTransitionTuples) {
  // A query installed during the transition must only process tuples
  // held at the connection point (arrivals during the transition) and
  // later ones — not historical data.
  engine_.Run(10.0);  // Tuples 0..10 flow with no queries installed.
  engine_.BeginTransition();
  ASSERT_TRUE(engine_.InstallQuery(3, PassThrough()).ok());
  ASSERT_TRUE(engine_.CommitTransition().ok());
  engine_.Run(10.0);
  // Tuples 11..20 (emitted after t=10) reach the sink.
  EXPECT_EQ(engine_.sink(3)->tuples, 10);
  EXPECT_GE(engine_.sink(3)->recent.front().field("seq").AsInt64(), 11);
}

}  // namespace
}  // namespace streambid::stream
