// Micro-benchmarks (google-benchmark) for the core execution operators:
// join hash table insert/probe, m-join consumption, split fan-out,
// rank-merge maintenance, and ATC scheduling rounds. Run in Release
// mode for meaningful numbers.

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/exec/atc.h"
#include "src/exec/mjoin_op.h"
#include "src/exec/rank_merge_op.h"
#include "src/exec/replay_stream.h"
#include "src/exec/split_op.h"

namespace qsys {
namespace {

/// Shared fixture data: R(id,score) / S(id,r_id,score) with Zipfian keys.
struct MicroData {
  MicroData() {
    TableSchema r("r", {{"id", FieldType::kInt},
                        {"score", FieldType::kDouble}});
    r.set_key_field(0);
    r.set_score_field(1);
    TableSchema s("s", {{"id", FieldType::kInt},
                        {"r_id", FieldType::kInt},
                        {"score", FieldType::kDouble}});
    s.set_key_field(0);
    s.set_score_field(2);
    r_id = catalog.AddTable(std::move(r)).value();
    s_id = catalog.AddTable(std::move(s)).value();
    Rng rng(17);
    for (int i = 0; i < 4096; ++i) {
      (void)catalog.table(r_id).AddRow(
          {Value(int64_t{i}), Value(1.0 - i / 8192.0)});
      (void)catalog.table(s_id).AddRow(
          {Value(int64_t{i}),
           Value(static_cast<int64_t>(rng.NextZipf(4096, 0.9))),
           Value(1.0 - i / 8192.0)});
    }
    catalog.FinalizeAll();
    delays = std::make_unique<DelayModel>(DelayParams{}, 3);
  }

  ExecContext Ctx() {
    stats = ExecStats{};
    clock = VirtualClock{};
    ExecContext ctx;
    ctx.clock = &clock;
    ctx.stats = &stats;
    ctx.catalog = &catalog;
    ctx.delays = delays.get();
    return ctx;
  }

  Expr SingleExpr(TableId t) {
    Expr e;
    Atom a;
    a.table = t;
    e.AddAtom(a);
    e.Normalize();
    return e;
  }

  Expr JoinExpr() {
    Expr e;
    Atom ra, sa;
    ra.table = r_id;
    sa.table = s_id;
    int ri = e.AddAtom(ra);
    int si = e.AddAtom(sa);
    e.AddEdge({ri, 0, si, 1, 1.0});
    e.Normalize();
    return e;
  }

  Catalog catalog;
  TableId r_id, s_id;
  VirtualClock clock;
  ExecStats stats;
  std::unique_ptr<DelayModel> delays;
};

MicroData& Data() {
  static MicroData* data = new MicroData();
  return *data;
}

void BM_HashTableInsert(benchmark::State& state) {
  MicroData& d = Data();
  for (auto _ : state) {
    state.PauseTiming();
    JoinHashTable table(&d.catalog);
    state.ResumeTiming();
    for (RowId i = 0; i < 4096; ++i) {
      table.Insert(0, CompositeTuple::ForBase(d.r_id, i, 0.5));
    }
    benchmark::DoNotOptimize(table.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HashTableInsert);

void BM_HashTableProbe(benchmark::State& state) {
  MicroData& d = Data();
  JoinHashTable table(&d.catalog);
  for (RowId i = 0; i < 4096; ++i) {
    table.Insert(0, CompositeTuple::ForBase(d.s_id, i, 0.5));
  }
  int64_t hits = 0;
  for (auto _ : state) {
    for (int64_t k = 0; k < 1024; ++k) {
      table.Probe(0, 1, Value(k), JoinHashTable::kAllEpochs,
                  [&](const CompositeTuple&) { ++hits; });
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_HashTableProbe);

void BM_MJoinConsume(benchmark::State& state) {
  MicroData& d = Data();
  for (auto _ : state) {
    state.PauseTiming();
    MJoinOp join(d.JoinExpr(), &d.catalog, /*adaptive=*/true);
    int rp = join.AddStreamModule(d.SingleExpr(d.r_id)).value();
    int sp = join.AddStreamModule(d.SingleExpr(d.s_id)).value();
    (void)join.Finalize();
    ExecContext ctx = d.Ctx();
    state.ResumeTiming();
    for (RowId i = 0; i < 1024; ++i) {
      join.Consume(rp, CompositeTuple::ForBase(d.r_id, i, 0.5), ctx);
      join.Consume(sp, CompositeTuple::ForBase(d.s_id, i, 0.5), ctx);
    }
    benchmark::DoNotOptimize(ctx.stats->join_outputs);
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_MJoinConsume);

void BM_SplitFanOut(benchmark::State& state) {
  MicroData& d = Data();
  class NullOp : public Operator {
   public:
    void Consume(int, const CompositeTuple& t, ExecContext&) override {
      benchmark::DoNotOptimize(t.sum_scores());
    }
    std::string Describe() const override { return "null"; }
  };
  NullOp sinks[8];
  SplitOp split;
  const int fanout = static_cast<int>(state.range(0));
  for (int i = 0; i < fanout; ++i) split.AddConsumer({&sinks[i], 0});
  ExecContext ctx = d.Ctx();
  CompositeTuple t = CompositeTuple::ForBase(d.r_id, 0, 0.5);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) split.Consume(0, t, ctx);
  }
  state.SetItemsProcessed(state.iterations() * 1024 * fanout);
}
BENCHMARK(BM_SplitFanOut)->Arg(2)->Arg(4)->Arg(8);

void BM_RankMergeMaintain(benchmark::State& state) {
  MicroData& d = Data();
  for (auto _ : state) {
    state.PauseTiming();
    RankMergeOp merge(1, 50, 0);
    CqRegistration reg;
    reg.cq_id = 1;
    reg.score_fn = ScoreFunction::DiscoverSum(1);
    reg.max_sum = 1.0;
    reg.initially_active = true;
    int port = merge.RegisterCq(reg);
    ExecContext ctx = d.Ctx();
    state.ResumeTiming();
    for (int i = 0; i < 1024; ++i) {
      merge.Consume(port,
                    CompositeTuple::ForBase(d.r_id, i % 4096,
                                            1.0 - i / 2048.0),
                    ctx);
      merge.Maintain(ctx);
    }
    benchmark::DoNotOptimize(merge.results().size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RankMergeMaintain);

/// Six user queries on one ATC, each with a CQ over R and a CQ over S:
/// every registration shares its stream (and the m-join behind it) with
/// the other five merges. The streams replay score-ordered in-memory
/// tables, so a round costs scheduling, routing and merge bookkeeping,
/// not source setup.
class AtcRoundFixture {
 public:
  explicit AtcRoundFixture(MicroData& d)
      : atc_(0, &d.catalog, d.delays.get(), /*adaptive=*/true) {
    PlanGraph& graph = atc_.graph();
    std::vector<std::pair<MJoinOp*, StreamingSource*>> inputs;
    for (TableId t : {d.r_id, d.s_id}) {
      Expr expr = d.SingleExpr(t);
      streams_.push_back(std::make_unique<ReplayStream>(
          expr, 1.0, &ScoreOrdered(d, t), JoinHashTable::kAllEpochs));
      MJoinOp* join = graph.AddMJoin(expr);
      int port = join->AddStreamModule(expr).value();
      (void)join->Finalize();
      graph.ConnectSource(streams_.back().get(), {join, port});
      inputs.emplace_back(join, streams_.back().get());
    }
    for (int uq = 0; uq < 6; ++uq) {
      RankMergeOp* merge = graph.AddRankMerge(uq, /*k=*/100, 0);
      for (size_t i = 0; i < inputs.size(); ++i) {
        CqRegistration reg;
        reg.cq_id = uq * 2 + static_cast<int>(i);
        reg.score_fn = uq % 2 == 0
                           ? ScoreFunction::DiscoverSum(1)
                           : ScoreFunction::QSystem(0.25 * i, 1);
        reg.max_sum = 1.0;
        reg.streams = {inputs[i].second};
        graph.ConnectMJoin(inputs[i].first,
                           {merge, merge->RegisterCq(reg)});
      }
    }
  }

  Atc& atc() { return atc_; }

 private:
  /// Base tuples of `t` in score order, built once per table.
  static const JoinHashTable& ScoreOrdered(MicroData& d, TableId t) {
    static std::vector<std::unique_ptr<JoinHashTable>>* tables =
        new std::vector<std::unique_ptr<JoinHashTable>>(2);
    std::unique_ptr<JoinHashTable>& table = (*tables)[t == d.r_id ? 0 : 1];
    if (table == nullptr) {
      table = std::make_unique<JoinHashTable>(&d.catalog);
      const Table& rows = d.catalog.table(t);
      for (RowId r : rows.score_order()) {
        table->Insert(0, CompositeTuple::ForBase(t, r, rows.RowScore(r)));
      }
    }
    return *table;
  }

  std::vector<std::unique_ptr<ReplayStream>> streams_;
  Atc atc_;
};

void BM_AtcRound(benchmark::State& state) {
  MicroData& d = Data();
  int64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fixture = std::make_unique<AtcRoundFixture>(d);
    state.ResumeTiming();
    rounds += fixture->atc().RunToCompletion();
    benchmark::DoNotOptimize(fixture->atc().stats().results_emitted);
    state.PauseTiming();
    fixture.reset();
    state.ResumeTiming();
  }
  // Inverting a rate of (rounds / 1e9) per second gives ns per round.
  state.counters["ns_per_round"] = benchmark::Counter(
      static_cast<double>(rounds) / 1e9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["rounds"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AtcRound);

}  // namespace
}  // namespace qsys
