// Temporal-reuse completeness: warm-state batches must return exactly
// the fresh-run top-k (§6.2/§6.3 — threshold-based pruning and early
// termination are only safe if a CQ grafted onto already-deep shared
// state sees the complete buffered prefix at every level of its plan,
// and if completion never races a sibling whose bound still ties the
// kth score).
//
// Three layers of coverage:
//   * RankMergeOp unit tests for tie-safe completion and per-CQ dedup
//     release;
//   * a staggered 10+10 GUS differential: the 20-query bio workload
//     executed as two staggered waves must be per-UQ byte-equivalent
//     to the same workload executed fresh, at 1 and 3 shards;
//   * a seed-swept repeat of the concurrent_service scenario (the
//     catalog + queries of examples/concurrent_service.cpp) across
//     arrival permutations and warm-graft split points, pinning the
//     historical ~1-in-50 zero-result completion at exactly 0.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/query_service.h"
#include "src/workload/bio_terms.h"
#include "src/workload/gus.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

// ---- RankMergeOp: tie-safe completion --------------------------------

/// A deterministic in-memory stream over pre-built composites.
class VectorStream : public StreamingSource {
 public:
  VectorStream(Expr expr, double initial_max,
               std::vector<CompositeTuple> tuples)
      : StreamingSource(std::move(expr), initial_max),
        tuples_(std::move(tuples)) {}

  Status Open(ExecContext&) override { return Status::OK(); }

  std::optional<CompositeTuple> Read(ExecContext&) override {
    if (cursor_ >= tuples_.size()) return std::nullopt;
    ++tuples_read_;
    return tuples_[cursor_++];
  }

  double frontier_sum() const override {
    if (cursor_ >= tuples_.size()) {
      return -std::numeric_limits<double>::infinity();
    }
    return tuples_[cursor_].sum_scores();
  }

  bool exhausted() const override { return cursor_ >= tuples_.size(); }

 private:
  std::vector<CompositeTuple> tuples_;
  size_t cursor_ = 0;
};

struct MergeHarness {
  Catalog catalog;
  DelayModel delays{DelayParams{}, 99};
  VirtualClock clock;
  ExecStats stats;

  ExecContext Ctx() {
    ExecContext ctx;
    ctx.clock = &clock;
    ctx.stats = &stats;
    ctx.catalog = &catalog;
    ctx.delays = &delays;
    return ctx;
  }
};

Expr SingleAtomExpr(TableId t) {
  Expr e;
  Atom a;
  a.table = t;
  e.AddAtom(a);
  e.Normalize();
  return e;
}

TEST(RankMergeCompletenessTest, TiedSiblingBoundBlocksCompletion) {
  // Port 0 delivers k results at score 0.5; port 1's bound *ties* 0.5
  // and its stream has not been activated. The merge must not complete
  // until port 1's tied results are read, and the final top-k must be
  // the canonical selection among all tied answers — not whichever
  // arrived first.
  MergeHarness h;
  TableSchema s("t", {{"id", FieldType::kInt},
                      {"score", FieldType::kDouble}});
  s.set_key_field(0);
  s.set_score_field(1);
  TableId tid = h.catalog.AddTable(std::move(s)).value();
  for (int64_t r = 0; r < 8; ++r) {
    ASSERT_TRUE(h.catalog.table(tid).AddRow({Value(r), Value(0.5)}).ok());
  }
  h.catalog.FinalizeAll();
  Expr expr = SingleAtomExpr(tid);

  auto tuple_for = [&](RowId r) {
    return CompositeTuple::ForBase(tid, r, 0.5);
  };
  // Stream A: rows 4..7; stream B: rows 0..3. All scores tie at 0.5.
  VectorStream a(expr, 0.5, {tuple_for(4), tuple_for(5), tuple_for(6),
                             tuple_for(7)});
  VectorStream b(expr, 0.5, {tuple_for(0), tuple_for(1), tuple_for(2),
                             tuple_for(3)});

  RankMergeOp merge(/*uq_id=*/1, /*k=*/4, /*submit=*/0);
  CqRegistration ra;
  ra.cq_id = 1;
  ra.score_fn = ScoreFunction::DiscoverSum(1);
  ra.max_sum = 0.5;
  ra.streams = {&a};
  int port_a = merge.RegisterCq(ra);
  CqRegistration rb;
  rb.cq_id = 2;
  rb.score_fn = ScoreFunction::DiscoverSum(1);
  rb.max_sum = 0.5;
  rb.streams = {&b};
  int port_b = merge.RegisterCq(rb);

  ExecContext ctx = h.Ctx();
  // Deliver all of A first (the "warm sibling arrived first" ordering).
  while (auto t = a.Next(ctx)) merge.Consume(port_a, *t, ctx);
  merge.Maintain(ctx);
  // A alone filled k buffered answers, but B's bound still ties the
  // kth score: completion must wait for B.
  EXPECT_FALSE(merge.complete())
      << "completed while a sibling bound tied the kth score";
  while (auto t = b.Next(ctx)) merge.Consume(port_b, *t, ctx);
  merge.Maintain(ctx);
  ASSERT_TRUE(merge.complete());
  ASSERT_EQ(merge.results().size(), 4u);
  // Canonical order among the 8 tied answers: rows 0..3 (provenance),
  // regardless of B arriving last.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(merge.results()[i].tuple.ref(0).row, i)
        << "tie selection must follow the canonical order";
  }
}

TEST(RankMergeCompletenessTest, PerCqDedupReleasedOnCompletion) {
  MergeHarness h;
  TableSchema s("t", {{"id", FieldType::kInt},
                      {"score", FieldType::kDouble}});
  s.set_key_field(0);
  s.set_score_field(1);
  TableId tid = h.catalog.AddTable(std::move(s)).value();
  for (int64_t r = 0; r < 4; ++r) {
    ASSERT_TRUE(h.catalog.table(tid)
                    .AddRow({Value(r), Value(0.9 - 0.1 * r)})
                    .ok());
  }
  h.catalog.FinalizeAll();
  Expr expr = SingleAtomExpr(tid);
  VectorStream a(expr, 0.9,
                 {CompositeTuple::ForBase(tid, 0, 0.9),
                  CompositeTuple::ForBase(tid, 1, 0.8),
                  CompositeTuple::ForBase(tid, 2, 0.7),
                  CompositeTuple::ForBase(tid, 3, 0.6)});
  RankMergeOp merge(/*uq_id=*/1, /*k=*/2, /*submit=*/0);
  CqRegistration reg;
  reg.cq_id = 7;
  reg.score_fn = ScoreFunction::DiscoverSum(1);
  reg.max_sum = 0.9;
  reg.streams = {&a};
  int port = merge.RegisterCq(reg);
  ExecContext ctx = h.Ctx();
  int64_t baseline = merge.StateSizeBytes();
  while (auto t = a.Next(ctx)) merge.Consume(port, *t, ctx);
  merge.Maintain(ctx);
  ASSERT_TRUE(merge.complete());
  // The per-CQ dedup entries were dropped when the CQ finished; only
  // emitted results (and the leftover buffer) remain accounted.
  EXPECT_LE(merge.StateSizeBytes(),
            baseline + 2 * 64 +
                static_cast<int64_t>(merge.results().size()) * 64 + 256)
      << "dedup set must not outlive its CQ";
}

TEST(RankMergeCompletenessTest, WarmRegistrationCounter) {
  MergeHarness h;
  TableSchema s("t", {{"id", FieldType::kInt},
                      {"score", FieldType::kDouble}});
  s.set_key_field(0);
  s.set_score_field(1);
  TableId tid = h.catalog.AddTable(std::move(s)).value();
  ASSERT_TRUE(h.catalog.table(tid).AddRow({Value(int64_t{0}),
                                           Value(0.5)}).ok());
  h.catalog.FinalizeAll();
  Expr expr = SingleAtomExpr(tid);
  VectorStream a(expr, 0.5, {CompositeTuple::ForBase(tid, 0, 0.5)});
  RankMergeOp merge(1, 1, 0);
  CqRegistration cold;
  cold.cq_id = 1;
  cold.score_fn = ScoreFunction::DiscoverSum(1);
  cold.max_sum = 0.5;
  cold.streams = {&a};
  merge.RegisterCq(cold);
  EXPECT_EQ(merge.warm_registrations(), 0);
  CqRegistration warm = cold;
  warm.cq_id = 2;
  warm.grafted_depth = 12;  // grafter's grounding report
  merge.RegisterCq(warm);
  CqRegistration exhausted = cold;
  exhausted.cq_id = 3;
  exhausted.grafted_exhausted = 1;
  merge.RegisterCq(exhausted);
  EXPECT_EQ(merge.warm_registrations(), 2);
}

// ---- staggered 10+10 GUS differential --------------------------------

using ::qsys::testing::BuildTinyBioDataset;


QConfig GusConfig() {
  QConfig config;
  config.k = 50;
  config.batch_size = 5;
  // Wall-clock window for partial batches (waves that do not divide
  // batch_size evenly); short, so the manual pump loop is not stuck
  // spinning out a multi-second window. Results are window-invariant —
  // that is the property under test.
  config.batch_window_us = 20'000;
  config.max_rounds = 200'000'000;
  return config;
}

std::vector<std::string> GusWorkload() {
  WorkloadOptions wopts;
  wopts.num_queries = 20;
  wopts.seed = 7;  // the bench_serve_throughput workload
  std::vector<std::string> queries;
  for (const WorkloadQuery& q :
       GenerateBioWorkload(BioVocabulary(), wopts)) {
    queries.push_back(q.keywords);
  }
  return queries;
}

Status BuildSmallGus(Engine& e) {
  GusOptions gus;
  gus.num_relations = 80;
  gus.min_rows = 60;
  gus.max_rows = 180;
  gus.seed = 3;
  return BuildGusDataset(e, gus);
}

/// Runs `queries` through a manually pumped service in `waves`: each
/// wave is submitted only after every query of the previous wave has
/// resolved, so later waves graft onto warm (possibly exhausted)
/// shared state. Returns one fingerprint per query ("" = failed).
std::vector<std::string> RunWaves(
    int num_shards, const std::vector<std::string>& queries,
    const std::vector<size_t>& wave_sizes,
    const std::function<Status(Engine&)>& builder) {
  ServiceOptions options;
  options.config = GusConfig();
  options.config.num_shards = num_shards;
  options.manual_pump = true;
  options.queue_capacity = queries.size() * 8 + 16;
  QueryService service(options);
  EXPECT_TRUE(service.BuildEachEngine(builder).ok());
  EXPECT_TRUE(service.Start().ok());
  auto session = service.OpenSession("staggered");
  EXPECT_TRUE(session.ok());
  std::vector<QueryTicket> tickets;
  size_t next = 0;
  for (size_t wave : wave_sizes) {
    size_t begin = next;
    for (size_t i = 0; i < wave && next < queries.size(); ++i, ++next) {
      auto ticket = service.Submit(session.value(), queries[next]);
      EXPECT_TRUE(ticket.ok()) << queries[next];
      tickets.push_back(ticket.value());
    }
    // Pump until this wave fully resolves (partial batches flush once
    // their wall-clock window expires; keep pumping through it).
    for (int spin = 0; spin < 10'000; ++spin) {
      EXPECT_TRUE(service.PumpOnce().ok());
      bool all_done = true;
      for (size_t i = begin; i < tickets.size(); ++i) {
        if (tickets[i].future().wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          all_done = false;
          break;
        }
      }
      if (all_done) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(service.Shutdown(QueryService::ShutdownMode::kDrain).ok());
  std::vector<std::string> fingerprints;
  for (QueryTicket& t : tickets) {
    const QueryOutcome& out = t.Wait();
    fingerprints.push_back(out.status.ok() ? FingerprintResults(out.results)
                                           : "");
  }
  return fingerprints;
}

class StaggeredGusTest : public ::testing::TestWithParam<int> {};

TEST_P(StaggeredGusTest, StaggeredWavesMatchFreshRun) {
  const int num_shards = GetParam();
  std::vector<std::string> queries = GusWorkload();
  ASSERT_EQ(queries.size(), 20u);
  // Fresh reference: all 20 queries in one wave on a single engine.
  std::vector<std::string> fresh =
      RunWaves(1, queries, {queries.size()}, BuildSmallGus);
  // Staggered: two waves of 10; the second grafts onto warm state.
  std::vector<std::string> staggered =
      RunWaves(num_shards, queries, {10, 10}, BuildSmallGus);
  ASSERT_EQ(fresh.size(), staggered.size());
  int completed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(staggered[i], fresh[i])
        << "per-UQ divergence at " << num_shards << " shard(s): \""
        << queries[i] << "\" (query " << i << ")";
    if (!fresh[i].empty()) ++completed;
  }
  EXPECT_GT(completed, 10) << "workload must mostly complete";
}

INSTANTIATE_TEST_SUITE_P(Shards, StaggeredGusTest,
                         ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "shards" +
                                  std::to_string(info.param);
                         });

TEST(StaggeredTinyBioTest, ThreeWavesMatchFreshRun) {
  // Same property on the hand-checkable catalog, three waves deep —
  // the third wave grafts onto state warmed twice over.
  const std::vector<std::string> queries = {
      "membrane gene",    "kinase pathway",      "receptor transport",
      "membrane pathway", "mutation metabolism", "kinase gene",
      "membrane gene",    "receptor gene",       "membrane kinase"};
  auto builder = [](Engine& e) { return BuildTinyBioDataset(e); };
  std::vector<std::string> fresh =
      RunWaves(1, queries, {queries.size()}, builder);
  std::vector<std::string> staggered = RunWaves(1, queries, {3, 3, 3},
                                                builder);
  ASSERT_EQ(fresh.size(), staggered.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_FALSE(fresh[i].empty()) << queries[i];
    EXPECT_EQ(staggered[i], fresh[i]) << queries[i];
  }
}

// ---- seed-swept zero-result flake repeat -----------------------------

/// The examples/concurrent_service.cpp catalog: proteins and genes
/// bridged by a scored record-link table.
Status BuildExampleCatalog(Engine& engine) {
  Catalog& catalog = engine.catalog();
  TableSchema protein("protein", {{"id", FieldType::kInt},
                                  {"name", FieldType::kString},
                                  {"description", FieldType::kString},
                                  {"relevance", FieldType::kDouble}});
  protein.set_key_field(0);
  protein.set_score_field(3);
  QSYS_ASSIGN_OR_RETURN(TableId protein_id,
                        catalog.AddTable(std::move(protein)));
  TableSchema gene("gene", {{"id", FieldType::kInt},
                            {"name", FieldType::kString},
                            {"description", FieldType::kString},
                            {"relevance", FieldType::kDouble}});
  gene.set_key_field(0);
  gene.set_score_field(3);
  QSYS_ASSIGN_OR_RETURN(TableId gene_id, catalog.AddTable(std::move(gene)));
  TableSchema link("protein2gene", {{"id", FieldType::kInt},
                                    {"protein_id", FieldType::kInt},
                                    {"gene_id", FieldType::kInt},
                                    {"similarity", FieldType::kDouble}});
  link.set_key_field(0);
  link.set_score_field(3);
  QSYS_ASSIGN_OR_RETURN(TableId link_id, catalog.AddTable(std::move(link)));
  const char* proteins[][2] = {
      {"EGFR kinase", "membrane receptor kinase"},
      {"INSR receptor", "insulin membrane receptor"},
      {"TP53 factor", "tumor suppressor factor"},
      {"AQP1 channel", "water transport channel"},
  };
  for (int i = 0; i < 4; ++i) {
    QSYS_RETURN_IF_ERROR(
        catalog.table(protein_id)
            .AddRow({Value(int64_t{i}), Value(proteins[i][0]),
                     Value(proteins[i][1]), Value(0.95 - 0.1 * i)}));
  }
  const char* genes[][2] = {
      {"EGFR", "growth factor receptor gene"},
      {"INS", "insulin gene"},
      {"TP53", "tumor protein gene"},
      {"AQP1", "aquaporin transport gene"},
  };
  for (int i = 0; i < 4; ++i) {
    QSYS_RETURN_IF_ERROR(
        catalog.table(gene_id)
            .AddRow({Value(int64_t{i}), Value(genes[i][0]),
                     Value(genes[i][1]), Value(0.9 - 0.1 * i)}));
  }
  int link_row = 0;
  for (int p = 0; p < 4; ++p) {
    QSYS_RETURN_IF_ERROR(
        catalog.table(link_id)
            .AddRow({Value(int64_t{link_row++}), Value(int64_t{p}),
                     Value(int64_t{p}), Value(0.8 + 0.04 * p)}));
  }
  SchemaGraph& graph = engine.InitSchemaGraph();
  QSYS_RETURN_IF_ERROR(
      graph.AddEdge(link_id, "protein_id", protein_id, "id", 0.8).status());
  QSYS_RETURN_IF_ERROR(
      graph.AddEdge(link_id, "gene_id", gene_id, "id", 0.9).status());
  return Status::OK();
}

QConfig ExampleConfig() {
  QConfig c;
  c.k = 3;
  c.batch_size = 4;
  c.batch_window_us = 20'000;
  return c;
}

struct ServedEngine {
  Engine engine;
  std::map<int, std::string> fingerprints;
  std::map<int, int> result_counts;

  ServedEngine() : engine(ExampleConfig()) {
    EXPECT_TRUE(BuildExampleCatalog(engine).ok());
    EXPECT_TRUE(engine.FinalizeCatalog().ok());
    // Serving mode: every completion is handed off and retired eagerly.
    engine.set_completed_sink([this](Engine::CompletedQuery&& done) {
      fingerprints[done.metrics.uq_id] = FingerprintResults(done.results);
      result_counts[done.metrics.uq_id] = done.metrics.results;
    });
  }

  /// Runs every event before virtual time `horizon` (ATC rounds
  /// included), or everything when `horizon` is Engine::kNeverUs.
  void Drain(VirtualTime horizon) {
    Engine::DrainOptions drain;
    drain.arrival_horizon = horizon;
    drain.pace_to_horizon = true;
    auto out = engine.Drain(drain);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
  }

  bool HasAtcWork() const {
    for (int i = 0; i < engine.num_atcs(); ++i) {
      if (engine.atc(i).HasWork()) return true;
    }
    return false;
  }
};

TEST(ZeroResultFlakeTest, SeedSweptWarmGraftsNeverLoseResults) {
  // The concurrent_service scenario: 8 queries from 4 client scripts.
  // Timing in the real service decides (a) which queries form the first
  // batch and (b) how many scheduling rounds run before the second
  // batch grafts. Sweep both dimensions deterministically; every
  // query's warm answer set must equal its fresh-run answer set, and
  // in particular never come back empty (the historical ~1-in-50
  // flake completed "kinase gene" with 0 results).
  const std::vector<std::string> queries = {
      "membrane receptor", "kinase gene",    "membrane gene",
      "insulin receptor",  "receptor gene",  "membrane receptor",
      "transport gene",    "membrane kinase"};

  // Fresh per-query baselines (each query alone in a cold engine).
  std::map<std::string, std::string> fresh;
  for (const std::string& q : queries) {
    if (fresh.count(q) > 0) continue;
    ServedEngine s;
    int id = s.engine.AllocateUqId();
    ASSERT_TRUE(s.engine.Ingest(id, q, 1, 0, {}).ok()) << q;
    s.Drain(Engine::kNeverUs);
    ASSERT_TRUE(s.fingerprints.count(id) > 0) << q;
    ASSERT_FALSE(s.fingerprints[id].empty()) << q;
    fresh[q] = s.fingerprints[id];
  }

  // Deterministic permutation sweep (seeded LCG shuffles).
  std::vector<int> perm(queries.size());
  std::iota(perm.begin(), perm.end(), 0);
  uint64_t rng = 12345;
  auto next_rand = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  int cases = 0;
  int live_grafts = 0;
  for (int trial = 0; trial < 10; ++trial) {
    for (size_t i = perm.size() - 1; i > 0; --i) {
      std::swap(perm[i], perm[next_rand() % (i + 1)]);
    }
    for (int split = 0; split <= 40; split += 2) {
      ServedEngine s;
      std::vector<int> ids(queries.size());
      // First batch of four at t=0 (full batch -> immediate flush).
      for (int i = 0; i < 4; ++i) {
        ids[perm[i]] = s.engine.AllocateUqId();
        ASSERT_TRUE(
            s.engine.Ingest(ids[perm[i]], queries[perm[i]], 1, 0, {}).ok());
      }
      // Second batch arrives at `horizon` and grafts after batch one
      // ran every round before it — mid-execution for small splits,
      // onto fully exhausted streams for large ones.
      const VirtualTime horizon = split * 2000;
      s.Drain(horizon);
      const bool batch_one_live = s.HasAtcWork();
      const bool batch_one_done = s.engine.num_atcs() > 0 && !batch_one_live;
      for (int i = 4; i < 8; ++i) {
        ids[perm[i]] = s.engine.AllocateUqId();
        ASSERT_TRUE(s.engine
                        .Ingest(ids[perm[i]], queries[perm[i]], 1, horizon,
                                {})
                        .ok());
      }
      s.Drain(Engine::kNeverUs);
      ++cases;
      if (batch_one_live) ++live_grafts;
      for (size_t q = 0; q < queries.size(); ++q) {
        ASSERT_TRUE(s.fingerprints.count(ids[q]) > 0)
            << "unresolved: " << queries[q];
        EXPECT_GT(s.result_counts[ids[q]], 0)
            << "zero-result completion: trial=" << trial
            << " split=" << split << " \"" << queries[q] << "\"";
        EXPECT_EQ(s.fingerprints[ids[q]], fresh[queries[q]])
            << "warm/fresh divergence: trial=" << trial
            << " split=" << split << " \"" << queries[q] << "\"";
      }
      if (batch_one_done) break;  // larger splits graft the same way
    }
  }
  // The acceptance bar: a seed-swept repeat of >= 200 warm-graft runs,
  // some of which graft while batch one is still executing.
  EXPECT_GE(cases * static_cast<int>(queries.size()), 200);
  EXPECT_GT(live_grafts, 0);
}

}  // namespace
}  // namespace qsys
