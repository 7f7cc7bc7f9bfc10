// Differential property tests: the pipelined m-join executed over
// streams must produce exactly the same result set as the one-shot
// reference evaluator (EvaluatePushdown), for randomized schemas, data,
// and expression shapes. This is the strongest correctness check on the
// execution engine: symmetric hash joins, probe modules, binding
// verification, and adaptivity must all agree with the textbook join.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <string>

#include "src/common/rng.h"
#include "src/exec/mjoin_op.h"
#include "src/exec/rank_merge_op.h"
#include "src/source/pushdown.h"
#include "src/source/table_stream.h"

namespace qsys {
namespace {

struct DiffCase {
  uint64_t seed;
  int num_entities;   // entity tables (scored)
  int64_t rows;       // rows per table
  bool probe_modules; // drive some inputs by remote probe
  bool adaptive;
};

std::string DiffCaseName(const DiffCase& c) {
  return "seed" + std::to_string(c.seed) + "_e" +
         std::to_string(c.num_entities) +
         (c.probe_modules ? "_probe" : "_stream") +
         (c.adaptive ? "_adaptive" : "_fixed");
}

// Print a case by name. The default byte dump includes uninitialized
// struct padding, which would change the listed test IDs between builds.
void PrintTo(const DiffCase& c, std::ostream* os) { *os << DiffCaseName(c); }

class MJoinDifferential : public ::testing::TestWithParam<DiffCase> {
 protected:
  /// Builds: E0, E1 (entities), L0 joining E0-E1, optionally L1 joining
  /// E1-E0 — a chain or diamond depending on the seed.
  void Build(const DiffCase& pc) {
    Rng rng(pc.seed);
    for (int i = 0; i < pc.num_entities; ++i) {
      TableSchema s("e" + std::to_string(i), {{"id", FieldType::kInt},
                                              {"score",
                                               FieldType::kDouble}});
      s.set_key_field(0);
      s.set_score_field(1);
      entities_.push_back(catalog_.AddTable(std::move(s)).value());
      Table& t = catalog_.table(entities_.back());
      for (int64_t r = 0; r < pc.rows; ++r) {
        ASSERT_TRUE(
            t.AddRow({Value(r), Value(rng.NextDouble())}).ok());
      }
    }
    // Link tables between consecutive entities.
    for (int i = 0; i + 1 < pc.num_entities; ++i) {
      TableSchema s("l" + std::to_string(i), {{"id", FieldType::kInt},
                                              {"a", FieldType::kInt},
                                              {"b", FieldType::kInt},
                                              {"score",
                                               FieldType::kDouble}});
      s.set_key_field(0);
      s.set_score_field(3);
      links_.push_back(catalog_.AddTable(std::move(s)).value());
      Table& t = catalog_.table(links_.back());
      int64_t rows_a = catalog_.table(entities_[i]).num_rows();
      int64_t rows_b = catalog_.table(entities_[i + 1]).num_rows();
      for (int64_t r = 0; r < pc.rows * 2; ++r) {
        ASSERT_TRUE(t.AddRow({Value(r),
                              Value(static_cast<int64_t>(rng.NextZipf(
                                  static_cast<uint64_t>(rows_a), 0.7))),
                              Value(static_cast<int64_t>(rng.NextZipf(
                                  static_cast<uint64_t>(rows_b), 0.7))),
                              Value(rng.NextDouble())})
                        .ok());
      }
    }
    catalog_.FinalizeAll();
    delays_ = std::make_unique<DelayModel>(DelayParams{}, pc.seed ^ 0xff);
    sources_ = std::make_unique<SourceManager>(&catalog_);
  }

  /// The chain expression E0 ⋈ L0 ⋈ E1 [⋈ L1 ⋈ E2 ...].
  Expr ChainExpr() const {
    Expr e;
    std::vector<int> ent_idx, link_idx;
    for (TableId t : entities_) {
      Atom a;
      a.table = t;
      ent_idx.push_back(const_cast<Expr&>(e).AddAtom(a));
    }
    for (TableId t : links_) {
      Atom a;
      a.table = t;
      link_idx.push_back(const_cast<Expr&>(e).AddAtom(a));
    }
    for (size_t i = 0; i < links_.size(); ++i) {
      e.AddEdge({ent_idx[i], 0, link_idx[i], 1, 1.0});       // E_i.id=L.a
      e.AddEdge({link_idx[i], 2, ent_idx[i + 1], 0, 1.0});   // L.b=E_{i+1}
    }
    e.Normalize();
    return e;
  }

  Expr SingleExpr(TableId t) const {
    Expr e;
    Atom a;
    a.table = t;
    e.AddAtom(a);
    e.Normalize();
    return e;
  }

  Catalog catalog_;
  std::vector<TableId> entities_, links_;
  std::unique_ptr<DelayModel> delays_;
  std::unique_ptr<SourceManager> sources_;
};

class CollectingSink : public Operator {
 public:
  void Consume(int, const CompositeTuple& t, ExecContext&) override {
    tuples.push_back(t);
  }
  std::string Describe() const override { return "collect"; }
  std::vector<CompositeTuple> tuples;
};

TEST_P(MJoinDifferential, PipelineMatchesReferenceEvaluator) {
  const DiffCase& pc = GetParam();
  Build(pc);
  Expr expr = ChainExpr();

  // Reference: one-shot evaluation.
  auto reference = EvaluatePushdown(expr, catalog_);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::multiset<uint64_t> want;
  for (const CompositeTuple& t : reference.value().tuples) {
    want.insert(t.IdentityHash());
  }

  // Pipeline: one m-join; entities streamed, links streamed or probed.
  MJoinOp join(expr, &catalog_, pc.adaptive);
  struct Feed {
    StreamingSource* src;
    int port;
  };
  std::vector<Feed> feeds;
  for (TableId t : entities_) {
    int port = join.AddStreamModule(SingleExpr(t)).value();
    feeds.push_back({sources_->GetOrCreateStream(SingleExpr(t)), port});
  }
  for (TableId t : links_) {
    if (pc.probe_modules) {
      Atom a;
      a.table = t;
      ASSERT_TRUE(join.AddProbeModule(a, sources_.get()).ok());
    } else {
      int port = join.AddStreamModule(SingleExpr(t)).value();
      feeds.push_back({sources_->GetOrCreateStream(SingleExpr(t)), port});
    }
  }
  ASSERT_TRUE(join.Finalize().ok());
  CollectingSink sink;
  join.SetConsumer({&sink, 0});

  VirtualClock clock;
  ExecStats stats;
  ExecContext ctx;
  ctx.clock = &clock;
  ctx.stats = &stats;
  ctx.catalog = &catalog_;
  ctx.delays = delays_.get();
  // Interleave the streams round-robin (arrival order must not matter).
  bool progress = true;
  while (progress) {
    progress = false;
    for (Feed& f : feeds) {
      if (auto t = f.src->Next(ctx)) {
        join.Consume(f.port, *t, ctx);
        progress = true;
      }
    }
  }
  std::multiset<uint64_t> got;
  for (const CompositeTuple& t : sink.tuples) {
    got.insert(t.IdentityHash());
  }
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got, want) << "pipeline and reference disagree";
  // Scores agree too: total score mass must match.
  double want_mass = 0.0, got_mass = 0.0;
  for (const CompositeTuple& t : reference.value().tuples) {
    want_mass += t.sum_scores();
  }
  for (const CompositeTuple& t : sink.tuples) got_mass += t.sum_scores();
  EXPECT_NEAR(got_mass, want_mass, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MJoinDifferential,
    ::testing::Values(
        DiffCase{1, 2, 8, false, true}, DiffCase{2, 2, 8, true, true},
        DiffCase{3, 3, 6, false, true}, DiffCase{4, 3, 6, true, true},
        DiffCase{5, 3, 6, true, false}, DiffCase{6, 4, 5, false, true},
        DiffCase{7, 4, 5, true, false}, DiffCase{8, 2, 20, true, true},
        DiffCase{9, 3, 12, false, false}, DiffCase{10, 4, 8, true, true}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return DiffCaseName(info.param);
    });

// The rank-merge must agree with a brute-force top-k over the reference
// results, for every scoring model.
class RankMergeDifferential
    : public ::testing::TestWithParam<ScoreModel> {};

TEST_P(RankMergeDifferential, TopKMatchesBruteForce) {
  Catalog catalog;
  Rng rng(42);
  TableSchema s("e", {{"id", FieldType::kInt},
                      {"score", FieldType::kDouble}});
  s.set_key_field(0);
  s.set_score_field(1);
  TableId e0 = catalog.AddTable(std::move(s)).value();
  for (int64_t r = 0; r < 40; ++r) {
    ASSERT_TRUE(catalog.table(e0)
                    .AddRow({Value(r), Value(rng.NextDouble())})
                    .ok());
  }
  catalog.FinalizeAll();

  ScoreFunction fn;
  switch (GetParam()) {
    case ScoreModel::kDiscoverSize:
      fn = ScoreFunction::DiscoverSize(1);
      break;
    case ScoreModel::kDiscoverSum:
      fn = ScoreFunction::DiscoverSum(1);
      break;
    case ScoreModel::kQSystem:
      fn = ScoreFunction::QSystem(0.7, 1);
      break;
    case ScoreModel::kBanksLike:
      fn = ScoreFunction::BanksLike(0.8, 0.1);
      break;
  }
  // Brute force: top-5 scores over all rows.
  std::vector<double> all;
  for (RowId r = 0; r < 40; ++r) {
    all.push_back(fn.Score(catalog.table(e0).RowScore(r)));
  }
  std::sort(all.rbegin(), all.rend());
  all.resize(5);

  // System: stream through a rank merge.
  SourceManager sources(&catalog);
  Expr expr;
  Atom a;
  a.table = e0;
  expr.AddAtom(a);
  expr.Normalize();
  StreamingSource* src = sources.GetOrCreateStream(expr);
  RankMergeOp merge(1, 5, 0);
  CqRegistration reg;
  reg.cq_id = 1;
  reg.score_fn = fn;
  reg.max_sum = src->initial_max_sum();
  reg.streams = {src};
  int port = merge.RegisterCq(reg);
  DelayModel delays(DelayParams{}, 5);
  VirtualClock clock;
  ExecStats stats;
  ExecContext ctx;
  ctx.clock = &clock;
  ctx.stats = &stats;
  ctx.catalog = &catalog;
  ctx.delays = &delays;
  while (!merge.complete()) {
    StreamingSource* next = merge.PreferredStream();
    if (next == nullptr) {
      merge.Maintain(ctx);
      break;
    }
    auto t = next->Next(ctx);
    if (t.has_value()) merge.Consume(port, *t, ctx);
    merge.Maintain(ctx);
  }
  ASSERT_EQ(merge.results().size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_NEAR(merge.results()[i].score, all[i], 1e-9) << "rank " << i;
  }
  // Top-k termination: far fewer reads than the full relation when the
  // model is score-sensitive.
  if (GetParam() != ScoreModel::kDiscoverSize) {
    EXPECT_LT(src->tuples_read(), 40);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, RankMergeDifferential,
                         ::testing::Values(ScoreModel::kDiscoverSize,
                                           ScoreModel::kDiscoverSum,
                                           ScoreModel::kQSystem,
                                           ScoreModel::kBanksLike),
                         [](const ::testing::TestParamInfo<ScoreModel>& i) {
                           std::string name = ScoreModelName(i.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace qsys
