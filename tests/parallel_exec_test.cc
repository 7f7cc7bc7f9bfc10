// Multi-core epochs (intra-shard parallelism): byte-equivalence of
// parallel ATC execution, the replay watermark, and the spill tier's
// background write-back.
//
// The acceptance bar of the parallel executor is *byte-equivalence*:
// per-UQ top-k answers must be identical to the single-threaded run at
// every exec_threads count, fresh and warm (staggered graft waves),
// because per-ATC execution is a pure function of the grafted queries
// — ATCs share no mutable execution state (disjoint sharing scopes,
// per-ATC delay samplers) and the flush deadline bounds every ATC at
// the same per-ATC point the serial loop would flush at.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/buffer/spill_manager.h"
#include "src/serve/query_service.h"
#include "src/workload/bio_terms.h"
#include "src/workload/gus.h"
#include "src/workload/runner.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

using ::qsys::testing::BuildTinyBioDataset;
using ::qsys::testing::FastTestConfig;

// ---- differential harness (the shard_test/temporal_reuse_test shape) --

QConfig GusConfig() {
  QConfig config;
  config.k = 50;
  config.batch_size = 5;
  config.batch_window_us = 20'000;
  config.max_rounds = 200'000'000;
  return config;
}

Status BuildSmallGus(Engine& e) {
  GusOptions gus;
  gus.num_relations = 80;
  gus.min_rows = 60;
  gus.max_rows = 180;
  gus.seed = 3;
  return BuildGusDataset(e, gus);
}

std::vector<std::string> GusWorkload(uint64_t seed = 7,
                                     int num_queries = 20) {
  WorkloadOptions wopts;
  wopts.num_queries = num_queries;
  wopts.seed = seed;
  std::vector<std::string> queries;
  for (const WorkloadQuery& q :
       GenerateBioWorkload(BioVocabulary(), wopts)) {
    queries.push_back(q.keywords);
  }
  return queries;
}

/// Runs `queries` through a manually pumped single-shard service in
/// `wave_sizes` waves (later waves graft onto warm state) with
/// `exec_threads` executors, and returns per-query fingerprints
/// ("" = failed). `grafter_skipped`, when non-null, receives the
/// engine's replay-watermark skip counter at shutdown.
std::vector<std::string> RunThreaded(
    int exec_threads, QConfig config,
    const std::vector<std::string>& queries,
    const std::vector<size_t>& wave_sizes,
    const std::function<Status(Engine&)>& builder,
    int64_t* grafter_skipped = nullptr) {
  ServiceOptions options;
  options.config = config;
  options.config.exec_threads = exec_threads;
  options.manual_pump = true;
  options.queue_capacity = queries.size() * 8 + 16;
  QueryService service(options);
  EXPECT_TRUE(service.BuildEachEngine(builder).ok());
  EXPECT_TRUE(service.Start().ok());
  auto session = service.OpenSession("parallel");
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
  if (grafter_skipped != nullptr) {
    *grafter_skipped =
        service.shard_engine(0).grafter().tuples_rederived_skipped();
  }
  EXPECT_TRUE(service.Shutdown(QueryService::ShutdownMode::kDrain).ok());
  std::vector<std::string> fingerprints;
  for (QueryTicket& t : tickets) {
    const QueryOutcome& out = t.Wait();
    fingerprints.push_back(out.status.ok() ? FingerprintResults(out.results) : "");
  }
  return fingerprints;
}

void ExpectSameFingerprints(const std::vector<std::string>& a,
                            const std::vector<std::string>& b,
                            const std::vector<std::string>& queries,
                            const std::string& label) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << label << ": query " << i << " ("
                          << queries[i] << ")";
  }
}

// ---- N-thread vs 1-thread byte-equivalence ----

// TinyBio, fresh arrivals, clustered sharing (kAtcCl = several
// independent ATCs per engine — the configuration intra-shard
// parallelism exists for).
TEST(ParallelExecTest, TinyBioFreshEquivalentAcrossThreadCounts) {
  const std::vector<std::string> queries = {
      "membrane gene",    "kinase pathway",      "receptor transport",
      "membrane pathway", "mutation metabolism", "kinase gene",
      "membrane gene",
  };
  auto builder = [](Engine& e) { return BuildTinyBioDataset(e); };
  QConfig config = FastTestConfig();
  config.sharing = SharingConfig::kAtcCl;
  config.batch_size = 4;
  config.batch_window_us = 20'000;
  std::vector<std::string> base =
      RunThreaded(1, config, queries, {queries.size()}, builder);
  int completed = 0;
  for (const std::string& f : base) {
    if (!f.empty()) completed += 1;
  }
  EXPECT_GT(completed, 0);
  for (int threads : {2, 4}) {
    std::vector<std::string> parallel =
        RunThreaded(threads, config, queries, {queries.size()}, builder);
    ExpectSameFingerprints(base, parallel, queries,
                           "exec_threads=" + std::to_string(threads));
  }
}

// GUS under the default full-sharing config (one ATC): the pool path
// must degenerate cleanly and stay byte-equivalent.
TEST(ParallelExecTest, GusSingleAtcEquivalentAcrossThreadCounts) {
  std::vector<std::string> queries = GusWorkload(/*seed=*/7,
                                                /*num_queries=*/10);
  QConfig config = GusConfig();
  std::vector<std::string> base =
      RunThreaded(1, config, queries, {queries.size()}, BuildSmallGus);
  std::vector<std::string> parallel =
      RunThreaded(3, config, queries, {queries.size()}, BuildSmallGus);
  ExpectSameFingerprints(base, parallel, queries, "exec_threads=3");
}

// GUS, clustered sharing, staggered 10+10 waves: the second wave
// grafts onto warm (partially exhausted, watermarked) state while the
// ATCs execute in parallel — the full PR-4 temporal-reuse machinery
// under the parallel executor.
TEST(ParallelExecTest, StaggeredGusWarmGraftsEquivalentAcrossThreadCounts) {
  std::vector<std::string> queries = GusWorkload();
  QConfig config = GusConfig();
  config.sharing = SharingConfig::kAtcCl;
  std::vector<std::string> base =
      RunThreaded(1, config, queries, {10, 10}, BuildSmallGus);
  int completed = 0;
  for (const std::string& f : base) {
    if (!f.empty()) completed += 1;
  }
  EXPECT_GT(completed, 0);
  for (int threads : {2, 4}) {
    std::vector<std::string> parallel =
        RunThreaded(threads, config, queries, {10, 10}, BuildSmallGus);
    ExpectSameFingerprints(base, parallel, queries,
                           "staggered exec_threads=" +
                               std::to_string(threads));
  }
}

// Seed-swept thread-count sweep: different workloads, fresh and
// staggered, 1 vs 3 threads.
TEST(ParallelExecTest, SeedSweptThreadCountSweep) {
  auto builder = [](Engine& e) { return BuildTinyBioDataset(e); };
  QConfig config = FastTestConfig();
  config.sharing = SharingConfig::kAtcCl;
  config.batch_size = 3;
  config.batch_window_us = 20'000;
  for (uint64_t seed : {11u, 23u, 42u}) {
    WorkloadOptions wopts;
    wopts.num_queries = 6;
    wopts.seed = seed;
    std::vector<std::string> queries;
    for (const WorkloadQuery& q :
         GenerateBioWorkload(BioVocabulary(), wopts)) {
      queries.push_back(q.keywords);
    }
    for (const std::vector<size_t>& waves :
         {std::vector<size_t>{queries.size()}, std::vector<size_t>{3, 3}}) {
      std::vector<std::string> base =
          RunThreaded(1, config, queries, waves, builder);
      std::vector<std::string> parallel =
          RunThreaded(3, config, queries, waves, builder);
      ExpectSameFingerprints(base, parallel, queries,
                             "seed=" + std::to_string(seed));
    }
  }
}

// Tight memory budget + spill tier + parallel drains: eviction demotes
// state to disk between waves and spill-faults (including probe-cache
// restores, which run on whichever drain worker first misses) fault it
// back during parallel execution. Eviction decisions are made in the
// serialized flush section against deterministic per-ATC state, so the
// answers must stay byte-equivalent across thread counts — and TSan
// (which runs this test in CI) sees the spill tier under concurrency.
TEST(ParallelExecTest, SpillPressureEquivalentAcrossThreadCounts) {
  char tmpl[] = "/tmp/qsys_parallel_spill_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  std::vector<std::string> queries = GusWorkload(/*seed=*/7,
                                                 /*num_queries=*/12);
  QConfig config = GusConfig();
  config.sharing = SharingConfig::kAtcCl;
  config.memory_budget_bytes = 64 << 10;  // tight: forces demotion
  config.spill_dir = tmpl;
  config.spill_pool_frames = 16;
  std::vector<std::string> base =
      RunThreaded(1, config, queries, {6, 6}, BuildSmallGus);
  int completed = 0;
  for (const std::string& f : base) {
    if (!f.empty()) completed += 1;
  }
  EXPECT_GT(completed, 0);
  std::vector<std::string> parallel =
      RunThreaded(3, config, queries, {6, 6}, BuildSmallGus);
  ExpectSameFingerprints(base, parallel, queries, "spill exec_threads=3");
  ::rmdir(tmpl);  // engines removed their scratch subdirs at shutdown
}

// ---- replay watermark (steady-state warm grafts) ----

// Repeating an identical wave grafts the exact same plan shapes onto
// warm state: every component is reused and nothing is stale, so the
// watermark must skip the re-derivation the pre-watermark code paid on
// every warm graft — without changing a single answer.
TEST(ReplayWatermarkTest, SteadyStateWarmGraftSkipsReplay) {
  std::vector<std::string> wave = GusWorkload(/*seed=*/7,
                                              /*num_queries=*/10);
  std::vector<std::string> twice = wave;
  twice.insert(twice.end(), wave.begin(), wave.end());
  QConfig config = GusConfig();
  int64_t skipped = 0;
  std::vector<std::string> fingerprints = RunThreaded(
      1, config, twice, {wave.size(), wave.size()}, BuildSmallGus,
      &skipped);
  ASSERT_EQ(fingerprints.size(), 2 * wave.size());
  int completed = 0;
  for (size_t i = 0; i < wave.size(); ++i) {
    // The repeated wave answers from warm state; answers must match
    // the fresh wave exactly.
    EXPECT_EQ(fingerprints[i], fingerprints[i + wave.size()])
        << "repeat of " << twice[i];
    if (!fingerprints[i].empty()) completed += 1;
  }
  EXPECT_GT(completed, 0);
  // The steady-state saving: at least one warm graft consulted the
  // watermark and skipped its already-replayed prefix.
  EXPECT_GT(skipped, 0);
}

// ---- spill background write-back ----

TEST(SpillWriteBackTest, BackgroundWriterCleansPagesAndBarriersOnRestore) {
  char tmpl[] = "/tmp/qsys_spill_wb_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  auto spill = SpillManager::Open(tmpl, /*frame_count=*/8);
  ASSERT_TRUE(spill.ok()) << spill.status().ToString();
  SpillManager& mgr = *spill.value();

  Catalog catalog;
  TableSchema schema("t", {{"id", FieldType::kInt},
                           {"score", FieldType::kDouble}});
  schema.set_score_field(1);
  TableId tid = catalog.AddTable(std::move(schema)).value();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        catalog.table(tid)
            .AddRow({Value(int64_t{i}), Value(1.0 / (i + 1))})
            .ok());
  }
  catalog.FinalizeAll();

  JoinHashTable table(&catalog);
  for (RowId i = 0; i < 64; ++i) {
    CompositeTuple t = CompositeTuple::WithSlots(2);
    t.set_ref(0, {tid, i, 1.0 / (i + 1)});
    t.set_ref(1, {tid, (i * 3) % 64, 0.25});
    t.RecomputeSum();
    table.Insert(/*epoch=*/static_cast<int>(i) % 3, std::move(t));
  }
  ASSERT_TRUE(mgr.SpillTable("wb-test", table).ok());
  // The barrier drains the background writer; afterwards every page of
  // the spill is clean on disk even though nothing was evicted.
  mgr.FlushWriteBacks();
  SpillStats stats = mgr.stats();
  EXPECT_GT(stats.pages_written, 0);
  EXPECT_GT(stats.bytes_on_disk, 0);

  JoinHashTable restored(&catalog);
  auto outcome = mgr.RestoreTable("wb-test", &restored);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().items, table.num_entries());
  ASSERT_EQ(restored.num_entries(), table.num_entries());
  for (int64_t i = 0; i < table.num_entries(); ++i) {
    EXPECT_EQ(restored.entry_epoch(i), table.entry_epoch(i));
    ASSERT_EQ(restored.entry(i).num_refs(), table.entry(i).num_refs());
    for (int s = 0; s < table.entry(i).num_refs(); ++s) {
      EXPECT_EQ(restored.entry(i).ref(s).table, table.entry(i).ref(s).table);
      EXPECT_EQ(restored.entry(i).ref(s).row, table.entry(i).ref(s).row);
      EXPECT_EQ(restored.entry(i).ref(s).score, table.entry(i).ref(s).score);
    }
  }
  spill.value().reset();
  ::rmdir(tmpl);
}

}  // namespace
}  // namespace qsys
