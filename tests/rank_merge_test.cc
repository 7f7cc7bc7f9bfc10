// Unit tests for the rank-merge operator: NRA-style thresholds, ordered
// emission, incremental CQ activation (Table 4's counter), pruning, and
// completion.

#include <gtest/gtest.h>

#include <cmath>

#include "src/exec/rank_merge_op.h"

namespace qsys {
namespace {

/// A scripted in-memory stream (no catalog needed).
class FakeStream : public StreamingSource {
 public:
  FakeStream(std::vector<double> sums, double max_sum)
      : StreamingSource(Expr(), max_sum), sums_(std::move(sums)) {}

  Status Open(ExecContext&) override { return Status::OK(); }

  std::optional<CompositeTuple> Read(ExecContext&) override {
    if (cursor_ >= sums_.size()) return std::nullopt;
    CompositeTuple t = CompositeTuple::ForBase(0, cursor_, sums_[cursor_]);
    ++cursor_;
    ++tuples_read_;
    return t;
  }

  double frontier_sum() const override {
    if (cursor_ >= sums_.size()) {
      return -std::numeric_limits<double>::infinity();
    }
    return sums_[cursor_];
  }

  bool exhausted() const override { return cursor_ >= sums_.size(); }

 private:
  std::vector<double> sums_;
  size_t cursor_ = 0;
};

class RankMergeTest : public ::testing::Test {
 protected:
  ExecContext Ctx() {
    ExecContext ctx;
    ctx.clock = &clock_;
    ctx.stats = &stats_;
    return ctx;
  }
  VirtualClock clock_;
  ExecStats stats_;
};

CompositeTuple TupleWithSum(double sum) {
  return CompositeTuple::ForBase(0, 0, sum);
}

TEST_F(RankMergeTest, EmitsInScoreOrderOnceThresholdCleared) {
  RankMergeOp merge(/*uq_id=*/1, /*k=*/3, /*submit=*/0);
  FakeStream stream({0.9, 0.8, 0.2}, /*max_sum=*/0.9);
  CqRegistration reg;
  reg.cq_id = 10;
  reg.score_fn = ScoreFunction::DiscoverSum(1);
  reg.max_sum = 0.9;
  reg.streams = {&stream};
  int port = merge.RegisterCq(reg);
  ExecContext ctx = Ctx();

  // Buffer a 0.8-scoring result while the frontier still promises 0.9:
  // it must NOT be emitted yet.
  merge.Consume(port, TupleWithSum(0.8), ctx);
  merge.Maintain(ctx);
  EXPECT_TRUE(merge.results().empty());

  // Read past the 0.9 promise (frontier drops to 0.8): now emittable.
  ASSERT_TRUE(stream.Next(ctx).has_value());
  merge.Maintain(ctx);
  ASSERT_EQ(merge.results().size(), 1u);
  EXPECT_DOUBLE_EQ(merge.results()[0].score, 0.8);
}

TEST_F(RankMergeTest, ThresholdUsesMinSlackAcrossStreams) {
  RankMergeOp merge(1, 3, 0);
  FakeStream a({0.9, 0.5}, 0.9);
  FakeStream b({0.7, 0.6}, 0.7);
  CqRegistration reg;
  reg.cq_id = 1;
  reg.score_fn = ScoreFunction::DiscoverSum(1);
  reg.max_sum = 1.6;  // 0.9 + 0.7
  reg.streams = {&a, &b};
  int port = merge.RegisterCq(reg);
  // No reads yet: slack 0 on both, threshold = U = 1.6.
  EXPECT_DOUBLE_EQ(merge.Threshold(port), 1.6);
  ExecContext ctx = Ctx();
  a.Next(ctx);  // a's frontier 0.5 -> slack 0.4; b slack 0.
  EXPECT_DOUBLE_EQ(merge.Threshold(port), 1.6);  // min slack still 0 (b)
  b.Next(ctx);  // b frontier 0.6 -> slack 0.1; min slack now 0.1.
  EXPECT_NEAR(merge.Threshold(port), 1.5, 1e-12);
}

TEST_F(RankMergeTest, ExhaustedStreamsDropThresholdToNegInf) {
  RankMergeOp merge(1, 2, 0);
  FakeStream stream({0.4}, 0.4);
  CqRegistration reg;
  reg.cq_id = 5;
  reg.score_fn = ScoreFunction::DiscoverSum(1);
  reg.max_sum = 0.4;
  reg.streams = {&stream};
  int port = merge.RegisterCq(reg);
  ExecContext ctx = Ctx();
  merge.Consume(port, TupleWithSum(0.4), ctx);
  stream.Next(ctx);  // exhaust
  EXPECT_TRUE(std::isinf(merge.Threshold(port)));
  merge.Maintain(ctx);
  // Fewer than k results exist: everything emits, then completion.
  EXPECT_EQ(merge.results().size(), 1u);
  EXPECT_TRUE(merge.complete());
  EXPECT_EQ(merge.complete_time_us(), clock_.now());
}

TEST_F(RankMergeTest, PreferredStreamActivatesHighestBoundCq) {
  RankMergeOp merge(1, 2, 0);
  FakeStream hot({0.9}, 0.9);
  FakeStream cold({0.5}, 0.5);
  CqRegistration high;
  high.cq_id = 1;
  high.score_fn = ScoreFunction::DiscoverSum(1);
  high.max_sum = 0.9;
  high.streams = {&hot};
  CqRegistration low;
  low.cq_id = 2;
  low.score_fn = ScoreFunction::DiscoverSum(1);
  low.max_sum = 0.5;
  low.streams = {&cold};
  merge.RegisterCq(high);
  merge.RegisterCq(low);
  EXPECT_EQ(merge.cqs_executed(), 0);  // nothing activated yet
  StreamingSource* s = merge.PreferredStream();
  EXPECT_EQ(s, &hot);  // the higher-bound CQ drives
  EXPECT_EQ(merge.cqs_executed(), 1);
  EXPECT_EQ(merge.cqs_total(), 2);
}

TEST_F(RankMergeTest, LowerBoundCqActivatesOnlyWhenNeeded) {
  RankMergeOp merge(1, 3, 0);
  FakeStream hot({0.9, 0.85, 0.8}, 0.9);
  FakeStream cold({0.5}, 0.5);
  CqRegistration high;
  high.cq_id = 1;
  high.score_fn = ScoreFunction::DiscoverSum(1);
  high.max_sum = 0.9;
  high.streams = {&hot};
  CqRegistration low;
  low.cq_id = 2;
  low.score_fn = ScoreFunction::DiscoverSum(1);
  low.max_sum = 0.5;
  low.streams = {&cold};
  int hp = merge.RegisterCq(high);
  merge.RegisterCq(low);
  ExecContext ctx = Ctx();
  // Drive the high CQ: deliver its three strong results.
  for (double s : {0.9, 0.85, 0.8}) {
    ASSERT_EQ(merge.PreferredStream(), &hot);
    hot.Next(ctx);
    merge.Consume(hp, TupleWithSum(s), ctx);
    merge.Maintain(ctx);
  }
  // Top-3 all beat the cold CQ's 0.5 bound: done without activating it.
  EXPECT_TRUE(merge.complete());
  EXPECT_EQ(merge.cqs_executed(), 1);
  EXPECT_EQ(merge.results().size(), 3u);
}

TEST_F(RankMergeTest, PrunesCqBelowKthKnownScore) {
  RankMergeOp merge(1, 2, 0);
  FakeStream hot({0.9, 0.8, 0.7}, 0.9);
  FakeStream weak({0.3, 0.2}, 0.3);
  CqRegistration strong;
  strong.cq_id = 1;
  strong.score_fn = ScoreFunction::DiscoverSum(1);
  strong.max_sum = 0.9;
  strong.streams = {&hot};
  strong.initially_active = true;
  CqRegistration feeble;
  feeble.cq_id = 2;
  feeble.score_fn = ScoreFunction::DiscoverSum(1);
  feeble.max_sum = 0.3;
  feeble.streams = {&weak};
  feeble.initially_active = true;
  int sp = merge.RegisterCq(strong);
  merge.RegisterCq(feeble);
  int pruned_cq = -1;
  merge.on_cq_pruned = [&](int cq) {
    if (cq == 2) pruned_cq = cq;
  };
  ExecContext ctx = Ctx();
  merge.Consume(sp, TupleWithSum(0.9), ctx);
  merge.Consume(sp, TupleWithSum(0.8), ctx);
  hot.Next(ctx);
  hot.Next(ctx);  // frontier 0.7: both results emit (0.9, 0.8)
  merge.Maintain(ctx);
  // kth known = 0.8 > feeble's bound 0.3: feeble must be pruned.
  EXPECT_EQ(pruned_cq, 2);
  EXPECT_TRUE(merge.complete());  // k=2 results out
  EXPECT_EQ(stats_.results_emitted, 2);
}

TEST_F(RankMergeTest, RecoveryRegistrationSharesLogicalId) {
  RankMergeOp merge(1, 2, 0);
  FakeStream live({0.9}, 0.9);
  FakeStream replay({0.8}, 0.9);
  CqRegistration original;
  original.cq_id = 7;
  original.score_fn = ScoreFunction::DiscoverSum(1);
  original.max_sum = 0.9;
  original.streams = {&live};
  CqRegistration recovery = original;
  recovery.streams = {&replay};
  recovery.initially_active = true;
  merge.RegisterCq(original);
  merge.RegisterCq(recovery);
  // Both registrations share logical CQ id 7.
  EXPECT_EQ(merge.cqs_total(), 1);
  EXPECT_EQ(merge.num_registrations(), 2);
  EXPECT_EQ(merge.cqs_executed(), 1);  // recovery counts as activation
}

TEST_F(RankMergeTest, CompletesAtExactlyK) {
  RankMergeOp merge(1, 2, 0);
  FakeStream stream({0.9, 0.8, 0.7, 0.6}, 0.9);
  CqRegistration reg;
  reg.cq_id = 1;
  reg.score_fn = ScoreFunction::DiscoverSum(1);
  reg.max_sum = 0.9;
  reg.streams = {&stream};
  reg.initially_active = true;
  int port = merge.RegisterCq(reg);
  ExecContext ctx = Ctx();
  for (double s : {0.9, 0.8, 0.7, 0.6}) {
    stream.Next(ctx);
    merge.Consume(port, TupleWithSum(s), ctx);
    merge.Maintain(ctx);
    if (merge.complete()) break;
  }
  EXPECT_TRUE(merge.complete());
  EXPECT_EQ(merge.results().size(), 2u);
  EXPECT_DOUBLE_EQ(merge.results()[0].score, 0.9);
  EXPECT_DOUBLE_EQ(merge.results()[1].score, 0.8);
  // Consumption after completion-marked CQs is dropped gracefully.
  merge.Consume(port, TupleWithSum(0.5), ctx);
  EXPECT_EQ(merge.results().size(), 2u);
  EXPECT_GT(merge.StateSizeBytes(), 0);
}

TEST_F(RankMergeTest, MaintainAfterPruneHasNothingLeftToDo) {
  RankMergeOp merge(1, 2, 0);
  FakeStream hot({0.9, 0.8, 0.7}, 0.9);
  FakeStream weak({0.3, 0.2}, 0.3);
  CqRegistration strong;
  strong.cq_id = 1;
  strong.score_fn = ScoreFunction::DiscoverSum(1);
  strong.max_sum = 0.9;
  strong.streams = {&hot};
  strong.initially_active = true;
  CqRegistration feeble;
  feeble.cq_id = 2;
  feeble.score_fn = ScoreFunction::DiscoverSum(1);
  feeble.max_sum = 0.3;
  feeble.streams = {&weak};
  feeble.initially_active = true;
  int sp = merge.RegisterCq(strong);
  merge.RegisterCq(feeble);
  int prunes = 0;
  merge.on_cq_pruned = [&](int) { ++prunes; };
  ExecContext ctx = Ctx();
  EXPECT_TRUE(merge.NeedsMaintain());  // never maintained

  // hot's frontier still promises 0.9, so 0.9 emits and 0.8 waits; the
  // kth known score, 0.8, prunes feeble's 0.3 bound.
  merge.Consume(sp, TupleWithSum(0.9), ctx);
  merge.Consume(sp, TupleWithSum(0.8), ctx);
  merge.Maintain(ctx);
  ASSERT_EQ(merge.results().size(), 1u);
  EXPECT_EQ(prunes, 1);
  EXPECT_FALSE(merge.complete());

  // The prune left the bar where it was (strong's 0.9): with no new
  // input, the next call has nothing to emit, prune or complete.
  EXPECT_FALSE(merge.NeedsMaintain());
  merge.Maintain(ctx);
  EXPECT_EQ(merge.results().size(), 1u);
  EXPECT_EQ(prunes, 1);
  EXPECT_FALSE(merge.complete());
  EXPECT_EQ(stats_.results_emitted, 1);

  // Reading a pruned registration's stream changes no bound.
  weak.Next(ctx);
  EXPECT_FALSE(merge.NeedsMaintain());
  // Reading a live one does: hot's frontier drops to 0.8, which 0.8
  // clears.
  hot.Next(ctx);
  EXPECT_TRUE(merge.NeedsMaintain());
  merge.Maintain(ctx);
  EXPECT_EQ(merge.results().size(), 2u);
  EXPECT_FALSE(merge.NeedsMaintain());
  // A consumed result is new input too.
  ASSERT_FALSE(merge.complete());  // strong's bound still ties the kth
  merge.Consume(sp, TupleWithSum(0.75), ctx);
  EXPECT_TRUE(merge.NeedsMaintain());
}

}  // namespace
}  // namespace qsys
