// Unit tests for the plan graph: wiring, automatic split insertion,
// source routing, CQ dependency tracking, unlinking and retirement
// (§6.3).

#include <gtest/gtest.h>

#include "src/exec/atc.h"
#include "src/exec/plan_graph.h"
#include "src/qs/recover.h"

namespace qsys {
namespace {

class CountingSink : public Operator {
 public:
  void Consume(int, const CompositeTuple&, ExecContext&) override {
    ++count;
  }
  std::string Describe() const override { return "counting-sink"; }
  int count = 0;
};

class PlanGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema schema("t", {{"id", FieldType::kInt},
                             {"score", FieldType::kDouble}});
    schema.set_score_field(1);
    tid_ = catalog_.AddTable(std::move(schema)).value();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(catalog_.table(tid_)
                      .AddRow({Value(int64_t{i}), Value(0.9 - 0.1 * i)})
                      .ok());
    }
    catalog_.FinalizeAll();
    sources_ = std::make_unique<SourceManager>(&catalog_);
    delays_ = std::make_unique<DelayModel>(DelayParams{}, 1);
    ctx_.clock = &clock_;
    ctx_.stats = &stats_;
    ctx_.catalog = &catalog_;
    ctx_.delays = delays_.get();
  }

  Expr SingleExpr() {
    Expr e;
    Atom a;
    a.table = tid_;
    e.AddAtom(a);
    e.Normalize();
    return e;
  }

  Catalog catalog_;
  TableId tid_;
  std::unique_ptr<SourceManager> sources_;
  std::unique_ptr<DelayModel> delays_;
  VirtualClock clock_;
  ExecStats stats_;
  ExecContext ctx_;
};

TEST_F(PlanGraphTest, SourceRoutingSingleConsumer) {
  PlanGraph graph(&catalog_, true);
  StreamingSource* src = sources_->GetOrCreateStream(SingleExpr());
  CountingSink sink;
  graph.ConnectSource(src, {&sink, 0});
  EXPECT_TRUE(graph.SourceAttached(src));
  graph.RouteFromSource(src, CompositeTuple::ForBase(tid_, 0, 0.9), ctx_);
  EXPECT_EQ(sink.count, 1);
  EXPECT_EQ(stats_.split_routed, 0);  // no fan-out, no split
}

TEST_F(PlanGraphTest, FanOutInsertsSplit) {
  PlanGraph graph(&catalog_, true);
  StreamingSource* src = sources_->GetOrCreateStream(SingleExpr());
  CountingSink a, b, c;
  graph.ConnectSource(src, {&a, 0});
  graph.ConnectSource(src, {&b, 0});
  graph.ConnectSource(src, {&c, 0});
  graph.RouteFromSource(src, CompositeTuple::ForBase(tid_, 0, 0.9), ctx_);
  EXPECT_EQ(a.count, 1);
  EXPECT_EQ(b.count, 1);
  EXPECT_EQ(c.count, 1);
  EXPECT_EQ(stats_.split_routed, 3);  // routed through a SplitOp
}

TEST_F(PlanGraphTest, MJoinFanOutInsertsSplit) {
  PlanGraph graph(&catalog_, true);
  MJoinOp* join = graph.AddMJoin(SingleExpr());
  int port = join->AddStreamModule(SingleExpr()).value();
  ASSERT_TRUE(join->Finalize().ok());
  CountingSink a, b;
  graph.ConnectMJoin(join, {&a, 0});
  graph.ConnectMJoin(join, {&b, 0});
  join->Consume(port, CompositeTuple::ForBase(tid_, 0, 0.9), ctx_);
  EXPECT_EQ(a.count, 1);
  EXPECT_EQ(b.count, 1);
}

TEST_F(PlanGraphTest, SplitSkipsInactiveConsumers) {
  SplitOp split;
  CountingSink a, b;
  split.AddConsumer({&a, 0});
  split.AddConsumer({&b, 0});
  b.set_active(false);
  split.Consume(0, CompositeTuple::ForBase(tid_, 0, 0.9), ctx_);
  EXPECT_EQ(a.count, 1);
  EXPECT_EQ(b.count, 0);
  EXPECT_EQ(split.RemoveConsumer(&a), 1);
}

TEST_F(PlanGraphTest, FindMJoinsBySignature) {
  PlanGraph graph(&catalog_, true);
  Expr e = SingleExpr();
  MJoinOp* j1 = graph.AddMJoin(e);
  MJoinOp* j2 = graph.AddMJoin(e);
  const std::vector<MJoinOp*>& found = graph.FindMJoins(e.Signature());
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0], j1);  // oldest first
  EXPECT_EQ(found[1], j2);
  EXPECT_TRUE(graph.FindMJoins("nope").empty());
}

TEST_F(PlanGraphTest, RetireRankMergeReclaimsRecoveryOperators) {
  // A terminal m-join feeds two live queries through a split when a
  // third, warm query with the same CQ body arrives; its CQ gets an
  // Algorithm 2 recovery query over the terminal's buffered table.
  // Retiring the warm query must free everything built for it.
  Atc atc(0, &catalog_, delays_.get(), /*adaptive=*/true);
  PlanGraph& graph = atc.graph();
  const Expr expr = SingleExpr();
  StreamingSource* src = sources_->GetOrCreateStream(expr);
  MJoinOp* terminal = graph.AddMJoin(expr);
  const int port = terminal->AddStreamModule(expr).value();
  ASSERT_TRUE(terminal->Finalize().ok());
  graph.ConnectSource(src, {terminal, port});

  ConjunctiveQuery cq;
  cq.expr = expr;
  cq.score_fn = ScoreFunction::DiscoverSum(1);
  cq.max_sum = src->initial_max_sum();
  auto add_query = [&](int uq_id, int cq_id) {
    RankMergeOp* merge = graph.AddRankMerge(uq_id, /*k=*/10, 0);
    CqRegistration reg;
    reg.cq_id = cq_id;
    reg.score_fn = cq.score_fn;
    reg.max_sum = cq.max_sum;
    reg.streams = {src};
    graph.ConnectMJoin(terminal, {merge, merge->RegisterCq(reg)});
    graph.RegisterCqDependency(cq_id, terminal);
    return merge;
  };
  add_query(1, 10);
  add_query(2, 20);
  atc.Step();
  atc.Step();  // two tuples buffered before the warm query's epoch
  JoinHashTable* buffered = terminal->module_table(port);
  ASSERT_EQ(buffered->num_entries(), 2);
  const int64_t ops_before = graph.num_operators();
  const int64_t replays_before = graph.num_replay_streams();

  atc.set_epoch(1);
  RankMergeOp* warm = add_query(3, 30);
  cq.id = 30;
  ASSERT_TRUE(BuildRecoveryQuery(cq, {{expr, buffered}}, {}, /*epoch=*/1,
                                 warm, &atc, sources_.get(), /*tag=*/0,
                                 catalog_)
                  .ok());
  EXPECT_EQ(graph.num_operators(), ops_before + 2);  // merge, recovery
  EXPECT_EQ(graph.num_replay_streams(), replays_before + 1);
  EXPECT_EQ(buffered->borrowers(), 1);
  atc.RunToCompletion();
  ASSERT_TRUE(warm->complete());
  EXPECT_EQ(warm->results().size(), 4u);  // 2 recovered + 2 live
  const Operator* retired = warm;
  atc.RetireCompleted(3);

  EXPECT_EQ(graph.num_operators(), ops_before);
  EXPECT_EQ(graph.num_replay_streams(), replays_before);
  const std::vector<MJoinOp*>& found = graph.FindMJoins(expr.Signature());
  ASSERT_EQ(found.size(), 1u);  // never the recovery m-join
  EXPECT_EQ(found[0], terminal);
  const auto* split = dynamic_cast<const SplitOp*>(terminal->consumer().op);
  ASSERT_NE(split, nullptr);
  ASSERT_EQ(split->consumers().size(), 2u);
  for (const Consumer& c : split->consumers()) EXPECT_NE(c.op, retired);
  EXPECT_EQ(buffered->borrowers(), 0);

  // Retiring the rest empties the split, which stays for reuse: the
  // next query on the terminal joins it instead of a new split.
  atc.RetireCompleted(1);
  atc.RetireCompleted(2);
  EXPECT_TRUE(split->consumers().empty());
  EXPECT_EQ(graph.num_operators(), 2);  // terminal, split
  add_query(4, 40);
  EXPECT_EQ(terminal->consumer().op, split);
  EXPECT_EQ(split->consumers().size(), 1u);
  EXPECT_EQ(graph.num_operators(), 3);
}

TEST_F(PlanGraphTest, RetireRankMergeClearsDirectConsumerEdge) {
  PlanGraph graph(&catalog_, true);
  MJoinOp* join = graph.AddMJoin(SingleExpr());
  int port = join->AddStreamModule(SingleExpr()).value();
  ASSERT_TRUE(join->Finalize().ok());
  RankMergeOp* first = graph.AddRankMerge(1, 5, 0);
  graph.ConnectMJoin(join, {first, 0});
  graph.RetireRankMerge(first);
  EXPECT_EQ(join->consumer().op, nullptr);
  EXPECT_EQ(graph.num_operators(), 1);
  // The next consumer takes the plain edge again: no split.
  CountingSink sink;
  graph.ConnectMJoin(join, {&sink, 0});
  join->Consume(port, CompositeTuple::ForBase(tid_, 0, 0.9), ctx_);
  EXPECT_EQ(sink.count, 1);
  EXPECT_EQ(stats_.split_routed, 0);
  EXPECT_EQ(graph.num_operators(), 1);
}

TEST_F(PlanGraphTest, UnlinkCqDeactivatesOrphanedOperators) {
  PlanGraph graph(&catalog_, true);
  MJoinOp* shared = graph.AddMJoin(SingleExpr());
  MJoinOp* exclusive = graph.AddMJoin(SingleExpr());
  graph.RegisterCqDependency(1, shared);
  graph.RegisterCqDependency(2, shared);
  graph.RegisterCqDependency(1, exclusive);
  graph.UnlinkCq(1);
  EXPECT_TRUE(shared->active());      // CQ 2 still flows through
  EXPECT_FALSE(exclusive->active());  // orphaned: deactivated
  graph.UnlinkCq(2);
  EXPECT_FALSE(shared->active());
}

TEST_F(PlanGraphTest, AllCompleteOnEmptyAndWithMerges) {
  PlanGraph graph(&catalog_, true);
  EXPECT_TRUE(graph.AllComplete());
  RankMergeOp* rm = graph.AddRankMerge(1, 5, 0);
  EXPECT_FALSE(graph.AllComplete());
  (void)rm;
}

TEST_F(PlanGraphTest, ToStringRendersOperators) {
  PlanGraph graph(&catalog_, true);
  graph.AddMJoin(SingleExpr());
  graph.AddRankMerge(3, 5, 0);
  std::string s = graph.ToString();
  EXPECT_NE(s.find("m-join"), std::string::npos);
  EXPECT_NE(s.find("rank-merge"), std::string::npos);
}

}  // namespace
}  // namespace qsys
