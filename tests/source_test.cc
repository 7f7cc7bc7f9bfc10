// Unit tests for the simulated remote sources: pushdown evaluation,
// streaming order/frontiers, probe caches, the source manager's sharing
// scopes, and virtual-time charging.

#include <gtest/gtest.h>

#include <cmath>

#include "src/source/probe_source.h"
#include "src/source/pushdown.h"
#include "src/source/source_manager.h"
#include "src/source/table_stream.h"

namespace qsys {
namespace {

/// Two tables, R(id, key, score) and S(id, rkey, score), joined on
/// R.id = S.rkey with known contents.
class SourceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema r("r", {{"id", FieldType::kInt},
                        {"key", FieldType::kInt},
                        {"score", FieldType::kDouble}});
    r.set_key_field(0);
    r.set_score_field(2);
    TableSchema s("s", {{"id", FieldType::kInt},
                        {"rkey", FieldType::kInt},
                        {"score", FieldType::kDouble}});
    s.set_key_field(0);
    s.set_score_field(2);
    r_ = catalog_.AddTable(std::move(r)).value();
    s_ = catalog_.AddTable(std::move(s)).value();
    // R: ids 0..3, scores descending 0.9,0.8,0.7,0.6.
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(catalog_.table(r_)
                      .AddRow({Value(int64_t{i}), Value(int64_t{i % 2}),
                               Value(0.9 - 0.1 * i)})
                      .ok());
    }
    // S: rkey references R ids: (0->0), (1->0), (2->1), (3->9 dangling).
    int64_t rkeys[] = {0, 0, 1, 9};
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(catalog_.table(s_)
                      .AddRow({Value(int64_t{i}), Value(rkeys[i]),
                               Value(0.5 + 0.1 * i)})
                      .ok());
    }
    catalog_.FinalizeAll();
    delays_ = std::make_unique<DelayModel>(DelayParams{}, 99);
    ctx_.clock = &clock_;
    ctx_.stats = &stats_;
    ctx_.catalog = &catalog_;
    ctx_.delays = delays_.get();
  }

  Expr JoinExpr() {
    Expr e;
    Atom ra;
    ra.table = r_;
    Atom sa;
    sa.table = s_;
    int ri = e.AddAtom(ra);
    int si = e.AddAtom(sa);
    e.AddEdge({ri, 0, si, 1, 1.0});  // R.id = S.rkey
    e.Normalize();
    return e;
  }

  Catalog catalog_;
  TableId r_, s_;
  VirtualClock clock_;
  ExecStats stats_;
  std::unique_ptr<DelayModel> delays_;
  ExecContext ctx_;
};

TEST_F(SourceFixture, PushdownJoinIsCorrect) {
  auto result = EvaluatePushdown(JoinExpr(), catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Matches: S rows 0,1 join R0; S row 2 joins R1; S row 3 dangles.
  EXPECT_EQ(result.value().tuples.size(), 3u);
  // Sorted by sum of base scores, nonincreasing.
  const auto& tuples = result.value().tuples;
  for (size_t i = 1; i < tuples.size(); ++i) {
    EXPECT_GE(tuples[i - 1].sum_scores(), tuples[i].sum_scores());
  }
  EXPECT_GT(result.value().work_units, 0);
}

TEST_F(SourceFixture, PushdownSelectionFilters) {
  Expr e;
  Atom ra;
  ra.table = r_;
  Selection sel;
  sel.kind = SelectionKind::kEquals;
  sel.column = 1;
  sel.constant = Value(int64_t{0});
  ra.selections.push_back(sel);
  e.AddAtom(ra);
  e.Normalize();
  auto result = EvaluatePushdown(e, catalog_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().tuples.size(), 2u);  // ids 0 and 2
}

TEST_F(SourceFixture, PushdownRejectsDisconnected) {
  Expr e;
  Atom ra;
  ra.table = r_;
  Atom sa;
  sa.table = s_;
  e.AddAtom(ra);
  e.AddAtom(sa);  // no edge
  e.Normalize();
  EXPECT_FALSE(EvaluatePushdown(e, catalog_).ok());
  Expr empty;
  empty.Normalize();
  EXPECT_FALSE(EvaluatePushdown(empty, catalog_).ok());
}

TEST_F(SourceFixture, AtomAndExprBounds) {
  Atom ra;
  ra.table = r_;
  EXPECT_DOUBLE_EQ(AtomMaxScore(ra, catalog_), 0.9);
  EXPECT_DOUBLE_EQ(ExprMaxSum(JoinExpr(), catalog_), 0.9 + 0.8);
  EXPECT_TRUE(ExprHasScoredAtom(JoinExpr(), catalog_));
}

TEST_F(SourceFixture, StreamDeliversInScoreOrderAndCharges) {
  SourceManager mgr(&catalog_);
  Expr single;
  Atom ra;
  ra.table = r_;
  single.AddAtom(ra);
  single.Normalize();
  StreamingSource* stream = mgr.GetOrCreateStream(single);
  EXPECT_DOUBLE_EQ(stream->initial_max_sum(), 0.9);
  EXPECT_DOUBLE_EQ(stream->frontier_sum(), 0.9);  // stats bound pre-open
  double prev = 1.0;
  int count = 0;
  while (auto t = stream->Next(ctx_)) {
    EXPECT_LE(t->sum_scores(), prev + 1e-12);
    prev = t->sum_scores();
    ++count;
  }
  EXPECT_EQ(count, 4);
  EXPECT_TRUE(stream->exhausted());
  EXPECT_TRUE(std::isinf(stream->frontier_sum()));
  EXPECT_EQ(stats_.tuples_streamed, 4);
  EXPECT_GT(stats_.stream_read_us, 0);
  EXPECT_EQ(stream->tuples_read(), 4);
}

TEST_F(SourceFixture, MultiAtomStreamChargesPushdownSetup) {
  SourceManager mgr(&catalog_);
  StreamingSource* stream = mgr.GetOrCreateStream(JoinExpr());
  VirtualTime before = clock_.now();
  auto t = stream->Next(ctx_);
  ASSERT_TRUE(t.has_value());
  // Setup cost (>= pushdown_setup_us) charged on first read.
  EXPECT_GE(clock_.now() - before,
            static_cast<VirtualTime>(
                delays_->params().pushdown_setup_us));
}

TEST_F(SourceFixture, ProbeSourceCachesAnswers) {
  Atom sa;
  sa.table = s_;
  ProbeSource probe(sa, /*key_column=*/1, catalog_);
  const auto& first = probe.Probe(Value(int64_t{0}), ctx_);
  EXPECT_EQ(first.size(), 2u);  // S rows 0,1 have rkey 0
  EXPECT_EQ(probe.probes_issued(), 1);
  int64_t t_after_miss = clock_.now();
  const auto& again = probe.Probe(Value(int64_t{0}), ctx_);
  EXPECT_EQ(again.size(), 2u);
  EXPECT_EQ(probe.cache_hits(), 1);
  EXPECT_EQ(clock_.now(), t_after_miss);  // cache hits are free
  EXPECT_TRUE(probe.Probe(Value(int64_t{42}), ctx_).empty());
  EXPECT_GT(probe.CacheSizeBytes(), 0);
  probe.EvictCache();
  EXPECT_EQ(probe.CacheSizeBytes(), 0);
}

TEST_F(SourceFixture, ProbeSourceAppliesSelections) {
  Atom sa;
  sa.table = s_;
  Selection sel;
  sel.kind = SelectionKind::kEquals;
  sel.column = 0;
  sel.constant = Value(int64_t{1});
  sa.selections.push_back(sel);
  ProbeSource probe(sa, 1, catalog_);
  // rkey=0 matches S rows 0 and 1, but selection keeps only id=1.
  EXPECT_EQ(probe.Probe(Value(int64_t{0}), ctx_).size(), 1u);
}

TEST_F(SourceFixture, SourceManagerSharesByExprAndTag) {
  SourceManager mgr(&catalog_);
  Expr e = JoinExpr();
  StreamingSource* a = mgr.GetOrCreateStream(e, /*tag=*/0);
  StreamingSource* b = mgr.GetOrCreateStream(e, /*tag=*/0);
  EXPECT_EQ(a, b);  // shared within a scope
  StreamingSource* c = mgr.GetOrCreateStream(e, /*tag=*/1);
  EXPECT_NE(a, c);  // isolated across scopes
  EXPECT_EQ(mgr.FindStream(e, 0), a);
  EXPECT_EQ(mgr.FindStream(e, 7), nullptr);
  // Probe sources shared the same way.
  Atom sa;
  sa.table = s_;
  EXPECT_EQ(mgr.GetOrCreateProbe(sa, 1, 0), mgr.GetOrCreateProbe(sa, 1, 0));
  EXPECT_NE(mgr.GetOrCreateProbe(sa, 1, 0), mgr.GetOrCreateProbe(sa, 1, 2));
  EXPECT_NE(mgr.GetOrCreateProbe(sa, 1, 0), mgr.GetOrCreateProbe(sa, 0, 0));
}

}  // namespace
}  // namespace qsys
