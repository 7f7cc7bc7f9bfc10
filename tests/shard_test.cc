// Tests for the sharded serving layer (src/shard/ + the sharded
// QueryService): router determinism, the canonical result order,
// sharded-vs-single-engine differential equivalence (per-UQ top-k
// byte-equivalent across shard counts, every answer in canonical order
// and at most k long), multi-shard drain/cancel shutdown, and the
// per-shard stats snapshots adding up to the service totals.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/rank_merge_op.h"
#include "src/serve/query_service.h"
#include "src/shard/shard_router.h"
#include "src/workload/bio_terms.h"
#include "src/workload/gus.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

using ::qsys::testing::BuildTinyBioDataset;
using ::qsys::testing::FastTestConfig;

// ---- ShardRouter ----

TEST(ShardRouterTest, CanonicalKeyNormalizesOrderCaseAndDuplicates) {
  EXPECT_EQ(ShardRouter::CanonicalKey("membrane gene"),
            ShardRouter::CanonicalKey("Gene MEMBRANE"));
  EXPECT_EQ(ShardRouter::CanonicalKey("gene gene membrane"),
            ShardRouter::CanonicalKey("membrane gene"));
  EXPECT_NE(ShardRouter::CanonicalKey("membrane gene"),
            ShardRouter::CanonicalKey("membrane kinase"));
  EXPECT_EQ(ShardRouter::CanonicalSignature("a  b"),
            ShardRouter::CanonicalSignature("b A"));
}

TEST(ShardRouterTest, RouteIsStableAndInRange) {
  ShardRouter router(4);
  const char* queries[] = {"membrane gene", "kinase pathway",
                           "receptor transport", "mutation metabolism",
                           "protein family domain"};
  std::set<int> used;
  for (const char* q : queries) {
    int shard = router.Route(q);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, router.Route(q)) << "routing must be stable";
    used.insert(shard);
  }
  // The workload above must not all collapse onto one shard.
  EXPECT_GT(used.size(), 1u);
  // Term order / case variants co-locate.
  EXPECT_EQ(router.Route("membrane gene"), router.Route("GENE membrane"));

  ShardRouter single(1);
  EXPECT_EQ(single.Route("anything at all"), 0);
}

// ---- the canonical result order ----

ResultTuple MakeResult(double score, TableId table, RowId row,
                       int cq_id = 1) {
  ResultTuple r;
  r.score = score;
  r.cq_id = cq_id;
  r.tuple = CompositeTuple::ForBase(table, row, score);
  return r;
}

TEST(RankMergerTest, TieBreakIsDeterministicAcrossStreamOrder) {
  // Three results with one tied score, arriving in opposite orders:
  // ResultTupleOrder, which every rank-merge finalizes its answers
  // under, must rank them identically either way.
  std::vector<ResultTuple> m1 = {MakeResult(0.8, 3, 30, /*cq=*/7),
                                 MakeResult(0.8, 1, 99, /*cq=*/8),
                                 MakeResult(0.8, 2, 5, /*cq=*/9)};
  std::vector<ResultTuple> m2(m1.rbegin(), m1.rend());
  std::stable_sort(m1.begin(), m1.end(), ResultTupleOrder());
  std::stable_sort(m2.begin(), m2.end(), ResultTupleOrder());
  ASSERT_EQ(m1.size(), 3u);
  ASSERT_EQ(m2.size(), 3u);
  for (size_t i = 0; i < m1.size(); ++i) {
    EXPECT_EQ(m1[i].tuple.ref(0).table, m2[i].tuple.ref(0).table) << i;
    EXPECT_EQ(m1[i].tuple.ref(0).row, m2[i].tuple.ref(0).row) << i;
  }
  // Ties order by provenance: tables 1, 2, 3.
  EXPECT_EQ(m1[0].tuple.ref(0).table, 1);
  EXPECT_EQ(m1[1].tuple.ref(0).table, 2);
  EXPECT_EQ(m1[2].tuple.ref(0).table, 3);
}

// ---- sharded service: differential equivalence ----


/// Runs `queries` through a sharded service (deterministically: manual
/// pump, drain shutdown) and returns each query's outcome fingerprint
/// ("" = failed). Every answer must already be in the canonical order
/// and at most k long: the service delivers the shard's rank-merge
/// output as is.
std::vector<std::string> RunSharded(
    int num_shards, const std::vector<std::string>& queries,
    const std::function<Status(Engine&)>& builder, QConfig base) {
  ServiceOptions options;
  options.config = base;
  options.config.num_shards = num_shards;
  options.manual_pump = true;
  options.queue_capacity = queries.size() * 8 + 16;
  QueryService service(options);
  EXPECT_TRUE(service.BuildEachEngine(builder).ok());
  EXPECT_TRUE(service.Start().ok());
  EXPECT_EQ(service.num_shards(), num_shards);
  auto session = service.OpenSession("differential");
  EXPECT_TRUE(session.ok());
  std::vector<QueryTicket> tickets;
  for (const std::string& q : queries) {
    auto ticket = service.Submit(session.value(), q);
    EXPECT_TRUE(ticket.ok()) << q;
    tickets.push_back(ticket.value());
  }
  EXPECT_TRUE(service.Shutdown(QueryService::ShutdownMode::kDrain).ok());
  std::vector<std::string> fingerprints;
  for (QueryTicket& t : tickets) {
    const QueryOutcome& out = t.Wait();
    if (out.status.ok()) {
      EXPECT_TRUE(std::is_sorted(out.results.begin(), out.results.end(),
                                 ResultTupleOrder()))
          << out.keywords << ": answer not in canonical order";
      EXPECT_LE(out.results.size(), static_cast<size_t>(base.k))
          << out.keywords;
    }
    fingerprints.push_back(out.status.ok() ? FingerprintResults(out.results) : "");
  }
  return fingerprints;
}

TEST(ShardedServiceTest, TinyBioShardedMatchesSingleEngine) {
  const std::vector<std::string> queries = {
      "membrane gene",    "kinase pathway",      "receptor transport",
      "membrane pathway", "mutation metabolism", "kinase gene",
      "membrane gene",  // repeat: temporal-reuse path under sharding
  };
  auto builder = [](Engine& e) { return BuildTinyBioDataset(e); };
  QConfig config = FastTestConfig();
  std::vector<std::string> single = RunSharded(1, queries, builder, config);
  std::vector<std::string> sharded = RunSharded(3, queries, builder, config);
  ASSERT_EQ(single.size(), sharded.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_FALSE(single[i].empty()) << queries[i];
    EXPECT_EQ(single[i], sharded[i])
        << "per-UQ top-k must be byte-equivalent for " << queries[i];
  }
}

TEST(ShardedServiceTest, GusShardedMatchesSingleEngine) {
  // A scaled-down GUS dataset + the paper-style keyword workload,
  // num_shards=4 vs 1: the acceptance bar for sharded serving.
  GusOptions gus;
  gus.num_relations = 80;
  gus.min_rows = 60;
  gus.max_rows = 180;
  gus.seed = 3;
  auto builder = [&gus](Engine& e) { return BuildGusDataset(e, gus); };
  WorkloadOptions wopts;
  wopts.num_queries = 8;
  wopts.seed = 11;
  std::vector<std::string> queries;
  for (const WorkloadQuery& q :
       GenerateBioWorkload(BioVocabulary(), wopts)) {
    queries.push_back(q.keywords);
  }
  QConfig config;
  config.k = 50;
  config.batch_size = 4;
  config.max_rounds = 200'000'000;
  std::vector<std::string> single = RunSharded(1, queries, builder, config);
  std::vector<std::string> sharded = RunSharded(4, queries, builder, config);
  ASSERT_EQ(single.size(), sharded.size());
  int completed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(single[i], sharded[i]) << queries[i];
    if (!single[i].empty()) completed += 1;
  }
  EXPECT_GT(completed, 0);
}

// ---- sharded service: lifecycle ----

TEST(ShardedServiceTest, QueriesSpreadAcrossShardsAndReportShard) {
  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.num_shards = 4;
  options.manual_pump = true;
  QueryService service(options);
  ASSERT_TRUE(service
                  .BuildEachEngine(
                      [](Engine& e) { return BuildTinyBioDataset(e); })
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("spread");
  ASSERT_TRUE(session.ok());
  const std::vector<std::string> queries = {
      "membrane gene", "kinase pathway", "receptor transport",
      "mutation metabolism", "membrane transport", "kinase gene"};
  std::vector<QueryTicket> tickets;
  for (const std::string& q : queries) {
    auto ticket = service.Submit(session.value(), q);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  ASSERT_TRUE(service.Shutdown(QueryService::ShutdownMode::kDrain).ok());
  std::set<int> shards_used;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryOutcome& out = tickets[i].Wait();
    ASSERT_TRUE(out.status.ok()) << queries[i];
    EXPECT_EQ(out.shard, service.router().Route(queries[i]));
    shards_used.insert(out.shard);
  }
  EXPECT_GT(shards_used.size(), 1u)
      << "workload should not collapse onto one shard";
}

TEST(ShardedServiceTest, MultiShardDrainShutdownCompletesInFlight) {
  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.num_shards = 3;
  options.config.batch_size = 50;               // never fills
  options.config.batch_window_us = 60'000'000;  // never expires
  QueryService service(options);
  ASSERT_TRUE(service
                  .BuildEachEngine(
                      [](Engine& e) { return BuildTinyBioDataset(e); })
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("drain");
  ASSERT_TRUE(session.ok());
  std::vector<QueryTicket> tickets;
  for (const char* q : {"membrane gene", "kinase pathway",
                        "receptor transport", "mutation metabolism"}) {
    auto ticket = service.Submit(session.value(), q);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  // Neither window nor size would flush these on any shard; a draining
  // shutdown must still execute and deliver them everywhere.
  ASSERT_TRUE(service.Shutdown(QueryService::ShutdownMode::kDrain).ok());
  for (QueryTicket& t : tickets) {
    const QueryOutcome& out = t.Wait();
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_FALSE(out.results.empty());
  }
  EXPECT_EQ(service.counters().completed.load(), 4);
  EXPECT_EQ(service.Submit(session.value(), "late").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedServiceTest, MultiShardCancelShutdownResolvesAllTickets) {
  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.num_shards = 3;
  options.config.batch_size = 50;
  options.config.batch_window_us = 60'000'000;
  options.manual_pump = true;  // keep the queries un-executed
  QueryService service(options);
  ASSERT_TRUE(service
                  .BuildEachEngine(
                      [](Engine& e) { return BuildTinyBioDataset(e); })
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("cancel");
  ASSERT_TRUE(session.ok());
  std::vector<QueryTicket> tickets;
  for (const char* q : {"membrane gene", "kinase pathway",
                        "receptor transport"}) {
    auto ticket = service.Submit(session.value(), q);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  ASSERT_TRUE(service.PumpOnce().ok());  // ingested, batched, unflushed
  ASSERT_TRUE(
      service.Shutdown(QueryService::ShutdownMode::kCancelPending).ok());
  for (QueryTicket& t : tickets) {
    EXPECT_EQ(t.Wait().status.code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(service.counters().cancelled.load(), 3);
  auto stats = service.sessions().StatsFor(session.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().in_flight, 0);
}

TEST(ShardedServiceTest, ConcurrentClientsAcrossShards) {
  // Threaded end to end: 4 client threads against 3 shard executors.
  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.num_shards = 3;
  options.config.batch_window_us = 50'000;
  QueryService service(options);
  ASSERT_TRUE(service
                  .BuildEachEngine(
                      [](Engine& e) { return BuildTinyBioDataset(e); })
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  const std::vector<std::string> queries = {
      "membrane gene", "kinase pathway", "receptor transport",
      "mutation metabolism", "membrane transport", "kinase gene",
      "membrane pathway", "receptor gene"};
  std::vector<std::thread> clients;
  std::atomic<int> delivered{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      auto session = service.OpenSession("client-" + std::to_string(c));
      ASSERT_TRUE(session.ok());
      std::vector<QueryTicket> tickets;
      for (size_t i = c; i < queries.size(); i += 4) {
        auto ticket = service.Submit(session.value(), queries[i]);
        ASSERT_TRUE(ticket.ok());
        tickets.push_back(ticket.value());
      }
      for (QueryTicket& t : tickets) {
        const QueryOutcome& out = t.Wait();
        EXPECT_TRUE(out.status.ok()) << out.status.ToString();
        EXPECT_FALSE(out.results.empty());
        delivered.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_TRUE(service.Shutdown().ok());
  EXPECT_EQ(delivered.load(), static_cast<int>(queries.size()));
  EXPECT_EQ(service.counters().completed.load(),
            static_cast<int64_t>(queries.size()));
}

TEST(ShardedServiceTest, StartRejectsShardsPopulatedOnTheirOwn) {
  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.num_shards = 2;
  {
    // Populating shard 0 alone is correct: Start() shares its dataset.
    QueryService service(options);
    ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
    ASSERT_TRUE(service.Start().ok());
    EXPECT_EQ(&service.shard_engine(1).catalog(),
              &service.shard_engine(0).catalog());
    EXPECT_TRUE(service.Shutdown().ok());
  }
  // A shard built on its own would serve a different copy of the data.
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.shard_engine(0)).ok());
  ASSERT_TRUE(BuildTinyBioDataset(service.shard_engine(1)).ok());
  EXPECT_EQ(service.Start().code(), StatusCode::kFailedPrecondition);
}

// ---- sharded service: per-shard snapshots ----

/// The value of the `qsys_<family>{shard="<shard>"}` sample in a
/// Prometheus exposition; -1 when absent.
int64_t ShardSample(const std::string& prom, const std::string& family,
                    int shard) {
  const std::string needle = "\nqsys_" + family + "{shard=\"" +
                             std::to_string(shard) + "\"} ";
  const size_t pos = prom.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(prom.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(ShardedServiceTest, PerShardSnapshotsAddUpToServiceTotals) {
  constexpr int kShards = 2;
  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.num_shards = kShards;
  // A budget far below the working set, with the spill tier on, so the
  // spill gauges move on the shards that serve.
  options.config.memory_budget_bytes = 512;
  options.config.spill_dir =
      ::testing::TempDir() + "qsys_shard_snapshot_test";
  options.config.spill_pool_frames = 4;
  options.manual_pump = true;
  QueryService service(options);
  ASSERT_TRUE(service
                  .BuildEachEngine(
                      [](Engine& e) { return BuildTinyBioDataset(e); })
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("snapshots");
  ASSERT_TRUE(session.ok());
  const std::vector<std::string> queries = {
      "membrane gene",  "kinase pathway",     "membrane transport",
      "kinase gene",    "receptor transport", "membrane gene",
      "kinase pathway", "membrane transport"};
  std::set<int> homes;
  std::vector<QueryTicket> tickets;
  for (const std::string& q : queries) {
    homes.insert(service.router().Route(q));
    auto ticket = service.Submit(session.value(), q);
    ASSERT_TRUE(ticket.ok()) << q;
    ASSERT_TRUE(service.PumpOnce().ok());
    tickets.push_back(ticket.value());
  }
  ASSERT_EQ(homes.size(), static_cast<size_t>(kShards))
      << "the workload must reach every shard";
  ASSERT_TRUE(service.Shutdown(QueryService::ShutdownMode::kDrain).ok());
  for (QueryTicket& t : tickets) ASSERT_TRUE(t.Wait().status.ok());

  // The per-shard epoch counts sum to the service total, and the
  // per-shard work counters merge to the service snapshot in every
  // field.
  int64_t epochs = 0;
  ExecStats merged;
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(service.shard_epochs(s), 0) << "shard " << s;
    epochs += service.shard_epochs(s);
    merged.Merge(service.shard_stats(s).exec);
  }
  EXPECT_EQ(epochs, service.counters().epochs.load());
  const ExecStats total = service.stats_snapshot();
  EXPECT_GT(total.tuples_streamed, 0);
  EXPECT_EQ(std::memcmp(&merged, &total, sizeof(ExecStats)), 0);

  // The service's spill gauges are the sum of the per-shard samples.
  const std::string prom = service.MetricsPrometheus();
  const SpillStats spill = service.counters().LoadSpill();
  EXPECT_GT(spill.items_spilled, 0);
  const struct {
    const char* family;
    int64_t total;
  } kSpillFamilies[] = {
      {"spill_pages_written", spill.pages_written},
      {"spill_pages_read", spill.pages_read},
      {"spill_page_faults", spill.page_faults},
      {"spill_items_spilled", spill.items_spilled},
      {"spill_items_restored", spill.items_restored},
      {"spill_bytes_on_disk", spill.bytes_on_disk},
      {"spill_io_faults", spill.spill_faults},
      {"spill_read_retry_waits", spill.read_retry_waits},
  };
  for (const auto& f : kSpillFamilies) {
    int64_t sum = 0;
    for (int s = 0; s < kShards; ++s) {
      const int64_t sample = ShardSample(prom, f.family, s);
      EXPECT_GE(sample, 0) << f.family << " shard " << s;
      sum += sample;
    }
    EXPECT_EQ(sum, f.total) << f.family;
  }

  // Each shard's exported samples are its own snapshot.
  for (int s = 0; s < kShards; ++s) {
    const ShardStats shard = service.shard_stats(s);
    EXPECT_EQ(ShardSample(prom, "exec_tuples_streamed_total", s),
              shard.exec.tuples_streamed)
        << "shard " << s;
    EXPECT_EQ(ShardSample(prom, "plan_graph_operators", s),
              shard.plan_graph_operators)
        << "shard " << s;
  }
}

}  // namespace
}  // namespace qsys
