// Unit tests for the ATC controller (§4.2): round-robin scheduling over
// rank-merges, demand-driven source reads, completion recording, the
// replay-stream recovery source, and the exactness of maintaining only
// the merges a round changed.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/exec/atc.h"
#include "src/qs/recover.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

using ::qsys::testing::BuildTinyBioDataset;
using ::qsys::testing::FastTestConfig;

class AtcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sys_ = std::make_unique<QSystem>(FastTestConfig());
    ASSERT_TRUE(BuildTinyBioDataset(*sys_).ok());
    delays_ = std::make_unique<DelayModel>(DelayParams{}, 77);
    sources_ = std::make_unique<SourceManager>(&sys_->catalog());
  }

  Expr SingleExpr(const std::string& table) {
    Expr e;
    Atom a;
    a.table = sys_->catalog().FindTable(table).value();
    e.AddAtom(a);
    e.Normalize();
    return e;
  }

  /// A pass-through m-join over `table`'s stream from `sources`.
  MJoinOp* PassThrough(Atc* atc, SourceManager* sources,
                       const std::string& table) {
    Expr expr = SingleExpr(table);
    MJoinOp* join = atc->graph().AddMJoin(expr);
    int port = join->AddStreamModule(expr).value();
    EXPECT_TRUE(join->Finalize().ok());
    atc->graph().ConnectSource(sources->GetOrCreateStream(expr),
                               {join, port});
    return join;
  }

  /// Builds one single-CQ pipeline (pass-through m-join over one stream)
  /// into `atc` and returns its rank-merge.
  RankMergeOp* BuildSingleCqPipeline(Atc* atc, const std::string& table,
                                     int uq_id, int k, int cq_id) {
    MJoinOp* join = PassThrough(atc, sources_.get(), table);
    RankMergeOp* merge = atc->graph().AddRankMerge(uq_id, k, 0);
    Register(atc, merge, join, cq_id, ScoreFunction::DiscoverSum(1),
             {sources_->GetOrCreateStream(SingleExpr(table))});
    return merge;
  }

  /// Registers a CQ on `merge` fed by `join`, bounded by `streams`.
  void Register(Atc* atc, RankMergeOp* merge, MJoinOp* join, int cq_id,
                ScoreFunction fn, std::vector<StreamingSource*> streams) {
    CqRegistration reg;
    reg.cq_id = cq_id;
    reg.score_fn = fn;
    for (StreamingSource* s : streams) reg.max_sum += s->initial_max_sum();
    reg.streams = std::move(streams);
    atc->graph().ConnectMJoin(join, {merge, merge->RegisterCq(reg)});
  }

  /// One of the two identical plan graphs of the exactness test.
  struct RoundCopy {
    explicit RoundCopy(const Catalog* catalog)
        : delays(DelayParams{}, 77),
          sources(catalog),
          atc(0, catalog, &delays, /*adaptive=*/true) {}
    DelayModel delays;
    SourceManager sources;
    Atc atc;
    int prunes = 0;
    MJoinOp* protein_join = nullptr;  // protein_info ⋈ prot2term
    MJoinOp* term_join = nullptr;     // pass-through term_info
    int protein_port = -1;
    int p2t_port = -1;
  };

  Expr ProteinTermExpr() {
    Expr e;
    Atom p, pt;
    p.table = sys_->catalog().FindTable("protein_info").value();
    pt.table = sys_->catalog().FindTable("prot2term").value();
    int pi = e.AddAtom(p);
    int ti = e.AddAtom(pt);
    e.AddEdge({pi, 0, ti, 1, 0.8});  // protein_info.id = prot2term.a_id
    e.Normalize();
    return e;
  }

  RankMergeOp* AddMerge(RoundCopy& c, int uq_id, int k) {
    RankMergeOp* merge =
        c.atc.graph().AddRankMerge(uq_id, k, c.atc.clock().now());
    merge->on_cq_pruned = [&c](int) { ++c.prunes; };
    return merge;
  }

  /// Three user queries over shared streams: a protein ⋈ prot2term
  /// m-join feeds two of them, pass-through gene and term m-joins feed
  /// two each, and the weak term CQs fall below the kth answer.
  std::unique_ptr<RoundCopy> BuildRoundCopy() {
    auto c = std::make_unique<RoundCopy>(&sys_->catalog());
    PlanGraph& graph = c->atc.graph();
    Expr pt_expr = ProteinTermExpr();
    c->protein_join = graph.AddMJoin(pt_expr);
    c->protein_port =
        c->protein_join->AddStreamModule(SingleExpr("protein_info")).value();
    c->p2t_port =
        c->protein_join->AddStreamModule(SingleExpr("prot2term")).value();
    EXPECT_TRUE(c->protein_join->Finalize().ok());
    StreamingSource* protein =
        c->sources.GetOrCreateStream(SingleExpr("protein_info"));
    StreamingSource* p2t =
        c->sources.GetOrCreateStream(SingleExpr("prot2term"));
    graph.ConnectSource(protein, {c->protein_join, c->protein_port});
    graph.ConnectSource(p2t, {c->protein_join, c->p2t_port});
    MJoinOp* gene_join = PassThrough(&c->atc, &c->sources, "gene_info");
    c->term_join = PassThrough(&c->atc, &c->sources, "term_info");
    StreamingSource* gene =
        c->sources.GetOrCreateStream(SingleExpr("gene_info"));
    StreamingSource* term =
        c->sources.GetOrCreateStream(SingleExpr("term_info"));

    RankMergeOp* m1 = AddMerge(*c, 1, 4);
    Register(&c->atc, m1, c->protein_join, 10, ScoreFunction::DiscoverSum(2),
             {protein, p2t});
    Register(&c->atc, m1, gene_join, 11, ScoreFunction::DiscoverSum(1), {gene});
    RankMergeOp* m2 = AddMerge(*c, 2, 3);
    Register(&c->atc, m2, c->protein_join, 20, ScoreFunction::QSystem(0.5, 2),
             {protein, p2t});
    Register(&c->atc, m2, c->term_join, 21, ScoreFunction::QSystem(3.0, 1),
             {term});
    RankMergeOp* m4 = AddMerge(*c, 4, 5);
    Register(&c->atc, m4, gene_join, 40, ScoreFunction::DiscoverSum(1), {gene});
    Register(&c->atc, m4, c->term_join, 41, ScoreFunction::DiscoverSum(3),
             {term});
    return c;
  }

  /// Grafts a fourth user query in epoch 1: a live registration on the
  /// protein ⋈ prot2term m-join plus the Algorithm 2 recovery query that
  /// replays its epoch-0 prefix, and a weak term CQ.
  void GraftRecoveringQuery(RoundCopy& c) {
    c.atc.set_epoch(1);
    StreamingSource* protein =
        c.sources.GetOrCreateStream(SingleExpr("protein_info"));
    StreamingSource* p2t =
        c.sources.GetOrCreateStream(SingleExpr("prot2term"));
    RankMergeOp* m3 = AddMerge(c, 3, 4);
    Register(&c.atc, m3, c.protein_join, 30, ScoreFunction::DiscoverSum(2),
             {protein, p2t});
    ConjunctiveQuery cq;
    cq.id = 30;
    cq.uq_id = 3;
    cq.expr = ProteinTermExpr();
    cq.score_fn = ScoreFunction::DiscoverSum(2);
    cq.max_sum = protein->initial_max_sum() + p2t->initial_max_sum();
    std::vector<FrozenInput> frozen = {
        {SingleExpr("protein_info"),
         c.protein_join->module_table(c.protein_port)},
        {SingleExpr("prot2term"), c.protein_join->module_table(c.p2t_port)}};
    ASSERT_TRUE(BuildRecoveryQuery(cq, frozen, {}, /*epoch=*/1, m3, &c.atc,
                                   &c.sources, 0, sys_->catalog())
                    .ok());
    Register(&c.atc, m3, c.term_join, 31, ScoreFunction::QSystem(3.0, 1),
             {c.sources.GetOrCreateStream(SingleExpr("term_info"))});
  }

  std::unique_ptr<QSystem> sys_;
  std::unique_ptr<DelayModel> delays_;
  std::unique_ptr<SourceManager> sources_;
};

/// The scheduling round as it was before merges were maintained
/// selectively: the visited merge is maintained before and after
/// choosing its stream, and every incomplete merge after every read.
bool MaintainEveryMergeStep(Atc& atc, size_t& rr_pos) {
  const std::vector<RankMergeOp*>& merges = atc.graph().rank_merges();
  if (merges.empty()) return false;
  ExecContext ctx = atc.MakeContext();
  const size_t n = merges.size();
  for (size_t i = 0; i < n; ++i) {
    RankMergeOp* rm = merges[(rr_pos + i) % n];
    if (rm->complete()) continue;
    rm->Maintain(ctx);
    if (rm->complete()) continue;
    StreamingSource* src = rm->PreferredStream();
    if (src == nullptr) {
      rm->Maintain(ctx);
      continue;
    }
    std::optional<CompositeTuple> t = src->Next(ctx);
    if (t.has_value()) atc.graph().RouteFromSource(src, *t, ctx);
    for (RankMergeOp* m : merges) {
      if (!m->complete()) m->Maintain(ctx);
    }
    rr_pos = (rr_pos + i + 1) % n;
    return true;
  }
  return !atc.graph().AllComplete();
}

void MaintainEveryMerge(Atc& atc) {
  ExecContext ctx = atc.MakeContext();
  for (RankMergeOp* rm : atc.graph().rank_merges()) {
    if (!rm->complete()) rm->Maintain(ctx);
  }
}

std::vector<int64_t> StatsFields(const ExecStats& s) {
  return {s.stream_read_us,   s.random_access_us,
          s.join_us,          s.optimize_us,
          s.tuples_streamed,  s.probes_issued,
          s.probe_cache_hits, s.join_probes,
          s.join_outputs,     s.split_routed,
          s.results_emitted,  s.tuples_rederived,
          s.tuples_rederived_skipped, s.tuples_shared_served};
}

std::vector<VirtualTime> EmissionTimes(const RankMergeOp& rm) {
  std::vector<VirtualTime> times;
  for (const ResultTuple& r : rm.results()) times.push_back(r.emitted_at_us);
  return times;
}

/// Everything a round can make observable: clock, work counters, and
/// every merge's answers, emission times and completion.
void ExpectSameRoundState(const Atc& got, const Atc& want, int round) {
  SCOPED_TRACE("round " + std::to_string(round));
  ASSERT_EQ(got.clock().now(), want.clock().now());
  EXPECT_EQ(StatsFields(got.stats()), StatsFields(want.stats()));
  const std::vector<RankMergeOp*>& a = got.graph().rank_merges();
  const std::vector<RankMergeOp*>& b = want.graph().rank_merges();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("UQ" + std::to_string(a[i]->uq_id()));
    EXPECT_EQ(FingerprintResults(a[i]->results()),
              FingerprintResults(b[i]->results()));
    EXPECT_EQ(EmissionTimes(*a[i]), EmissionTimes(*b[i]));
    EXPECT_EQ(a[i]->complete(), b[i]->complete());
    EXPECT_EQ(a[i]->complete_time_us(), b[i]->complete_time_us());
    EXPECT_EQ(a[i]->cqs_executed(), b[i]->cqs_executed());
  }
}

TEST_F(AtcTest, StepReturnsFalseOnEmptyGraph) {
  Atc atc(0, &sys_->catalog(), delays_.get(), true);
  EXPECT_FALSE(atc.Step());
  EXPECT_FALSE(atc.HasWork());
}

TEST_F(AtcTest, RunsSingleQueryToCompletion) {
  Atc atc(0, &sys_->catalog(), delays_.get(), true);
  RankMergeOp* merge =
      BuildSingleCqPipeline(&atc, "protein_info", 1, 3, 10);
  EXPECT_TRUE(atc.HasWork());
  int64_t rounds = atc.RunToCompletion(/*max_rounds=*/10'000);
  EXPECT_TRUE(merge->complete());
  EXPECT_EQ(merge->results().size(), 3u);
  EXPECT_GT(rounds, 0);
  // Clock advanced by the stream-read charges.
  EXPECT_GT(atc.clock().now(), 0);
  EXPECT_GT(atc.stats().tuples_streamed, 0);
  // Results in nonincreasing score order.
  for (size_t i = 1; i < merge->results().size(); ++i) {
    EXPECT_LE(merge->results()[i].score,
              merge->results()[i - 1].score + 1e-12);
  }
}

TEST_F(AtcTest, RecordsMetricsOncePerQuery) {
  Atc atc(0, &sys_->catalog(), delays_.get(), true);
  BuildSingleCqPipeline(&atc, "protein_info", 1, 2, 10);
  BuildSingleCqPipeline(&atc, "gene_info", 2, 2, 11);
  atc.RunToCompletion(10'000);
  std::vector<UserQueryMetrics> metrics = atc.TakeCompletedMetrics();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_NE(metrics[0].uq_id, metrics[1].uq_id);
  // Taking again yields nothing (ownership transferred).
  EXPECT_TRUE(atc.TakeCompletedMetrics().empty());
}

TEST_F(AtcTest, RoundRobinServesBothQueries) {
  Atc atc(0, &sys_->catalog(), delays_.get(), true);
  RankMergeOp* m1 = BuildSingleCqPipeline(&atc, "protein_info", 1, 4, 10);
  RankMergeOp* m2 = BuildSingleCqPipeline(&atc, "gene_info", 2, 4, 11);
  // Interleave a few steps: after 2 steps both merges must have been
  // served once each (round-robin, no starvation).
  atc.Step();
  atc.Step();
  int64_t reads1 = 0, reads2 = 0;
  for (StreamingSource* s : atc.graph().attached_sources()) {
    if (s->expr().Signature() == SingleExpr("protein_info").Signature()) {
      reads1 = s->tuples_read();
    }
    if (s->expr().Signature() == SingleExpr("gene_info").Signature()) {
      reads2 = s->tuples_read();
    }
  }
  EXPECT_GE(reads1, 1);
  EXPECT_GE(reads2, 1);
  atc.RunToCompletion(10'000);
  EXPECT_TRUE(m1->complete());
  EXPECT_TRUE(m2->complete());
}

TEST_F(AtcTest, MaxRoundsBoundsExecution) {
  Atc atc(0, &sys_->catalog(), delays_.get(), true);
  BuildSingleCqPipeline(&atc, "protein_info", 1, 16, 10);
  int64_t rounds = atc.RunToCompletion(/*max_rounds=*/2);
  EXPECT_EQ(rounds, 2);
}

TEST_F(AtcTest, EpochSettingPropagatesToContext) {
  Atc atc(0, &sys_->catalog(), delays_.get(), true);
  atc.set_epoch(7);
  EXPECT_EQ(atc.MakeContext().epoch, 7);
}

TEST_F(AtcTest, ReplayStreamDeliversPrefixInOrder) {
  // Fill a hash table across two epochs, then replay only epoch 0.
  JoinHashTable table(&sys_->catalog());
  TableId protein = sys_->catalog().FindTable("protein_info").value();
  const Table& t = sys_->catalog().table(protein);
  // Arrival order = score order.
  int inserted = 0;
  for (RowId r : t.score_order()) {
    table.Insert(inserted < 5 ? 0 : 1, CompositeTuple::ForBase(
                                           protein, r, t.RowScore(r)));
    ++inserted;
  }
  ReplayStream replay(SingleExpr("protein_info"), t.max_score(), &table,
                      /*max_epoch_exclusive=*/1);
  EXPECT_EQ(replay.limit(), 5);
  VirtualClock clock;
  ExecStats stats;
  ExecContext ctx;
  ctx.clock = &clock;
  ctx.stats = &stats;
  ctx.catalog = &sys_->catalog();
  ctx.delays = delays_.get();
  double prev = 1e9;
  int count = 0;
  while (auto tup = replay.Next(ctx)) {
    EXPECT_LE(tup->sum_scores(), prev + 1e-12);
    prev = tup->sum_scores();
    ++count;
  }
  EXPECT_EQ(count, 5);
  EXPECT_TRUE(replay.exhausted());
  // Replays charge CPU (join bucket), never network.
  EXPECT_GT(stats.join_us, 0);
  EXPECT_EQ(stats.stream_read_us, 0);
  EXPECT_EQ(stats.tuples_streamed, 0);
}

TEST_F(AtcTest, MaintainingChangedMergesMatchesMaintainingAll) {
  std::unique_ptr<RoundCopy> fast = BuildRoundCopy();
  std::unique_ptr<RoundCopy> ref = BuildRoundCopy();
  size_t ref_rr = 0;
  int round = 0;
  // Epoch 0: three queries share the protein, prot2term, gene and term
  // streams.
  for (; round < 25; ++round) {
    ASSERT_EQ(fast->atc.Step(), MaintainEveryMergeStep(ref->atc, ref_rr));
    ExpectSameRoundState(fast->atc, ref->atc, round);
  }
  // Epoch 1: a late query recovers the buffered prefix by replay.
  GraftRecoveringQuery(*fast);
  GraftRecoveringQuery(*ref);
  fast->atc.MaintainAll();
  MaintainEveryMerge(ref->atc);
  ExpectSameRoundState(fast->atc, ref->atc, round);
  for (; fast->atc.HasWork() && round < 10'000; ++round) {
    ASSERT_EQ(fast->atc.Step(), MaintainEveryMergeStep(ref->atc, ref_rr));
    ExpectSameRoundState(fast->atc, ref->atc, round);
  }
  EXPECT_FALSE(ref->atc.HasWork());
  // The scenario exercised what it is meant to: every query finished,
  // the weak CQs were pruned, and the recovery replay was read.
  for (const RankMergeOp* rm : fast->atc.graph().rank_merges()) {
    EXPECT_TRUE(rm->complete()) << "UQ" << rm->uq_id();
    EXPECT_FALSE(rm->results().empty()) << "UQ" << rm->uq_id();
  }
  EXPECT_GT(fast->prunes, 0);
  EXPECT_EQ(fast->prunes, ref->prunes);
  ASSERT_EQ(fast->atc.graph().num_replay_streams(), 1);
  int64_t replayed = 0;
  for (const StreamingSource* s : fast->atc.graph().attached_sources()) {
    if (dynamic_cast<const ReplayStream*>(s) != nullptr) {
      replayed += s->tuples_read();
    }
  }
  EXPECT_GT(replayed, 0);
}

}  // namespace
}  // namespace qsys
