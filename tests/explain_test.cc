// Tests for the explainability subsystem (src/obs/explain.h,
// src/obs/export.h, QueryService::Explain/MetricsPrometheus):
//
//  * Explain's kFailedPrecondition contract (journal disabled, unknown
//    or not-yet-resolved uq) mirrors DumpTrace's;
//  * Explain output is deterministic — byte-identical run to run AND
//    across shard counts / exec-thread counts for the same fixed-seed
//    workload — and every optimizer decision records >= 2 costed
//    alternatives;
//  * the sharing-benefit attribution is conservative: the per-UQ
//    tuples_from_shared totals sum exactly to the engines'
//    ExecStats::tuples_shared_served, with the journal on or off;
//  * the Prometheus exporter renders the expected families.
//
// Suite name starts with Obs so the CI TSan job's test filter picks
// these up alongside the other observability tests.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/export.h"
#include "src/serve/query_service.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

using ::qsys::testing::BuildTinyBioDataset;
using ::qsys::testing::FastTestConfig;

ServiceOptions ExplainServiceOptions(int num_shards, int exec_threads) {
  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.num_shards = num_shards;
  options.config.exec_threads = exec_threads;
  options.config.explain_journal_queries = 32;
  options.manual_pump = true;  // deterministic epochs
  return options;
}

/// Pumps until `ticket` resolves (bounded); returns its outcome.
QueryOutcome PumpUntilResolved(QueryService& service,
                               const QueryTicket& ticket) {
  for (int i = 0; i < 1000; ++i) {
    if (ticket.future().wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      return ticket.Wait();
    }
    EXPECT_TRUE(service.PumpOnce().ok());
  }
  ADD_FAILURE() << "query never resolved";
  return ticket.Wait();
}

/// One fixed workload: the same two-keyword query submitted
/// `repeats` times back to back (resolved one at a time, so later
/// repeats graft onto the warm state the first left behind). Returns
/// the concatenated Explain texts in uq order plus the outcomes.
struct ExplainRun {
  std::string text;
  std::vector<QueryOutcome> outcomes;
  int64_t shared_served = 0;
};

ExplainRun RunRepeatWorkload(int num_shards, int exec_threads,
                             int repeats = 3) {
  ExplainRun run;
  QueryService service(ExplainServiceOptions(num_shards, exec_threads));
  EXPECT_TRUE(service
                  .BuildEachEngine([](Engine& e) {
                    return BuildTinyBioDataset(e);
                  })
                  .ok());
  EXPECT_TRUE(service.Start().ok());
  SessionId session = service.OpenSession("explain").value();
  // Same keywords every time: the signature-hash router sends every
  // repeat to the same shard at any shard count, and uq ids are
  // assigned sequentially — so the journals are comparable across
  // configurations.
  for (int i = 0; i < repeats; ++i) {
    auto ticket = service.Submit(session, "protein gene");
    EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
    if (!ticket.ok()) break;
    run.outcomes.push_back(PumpUntilResolved(service, ticket.value()));
  }
  EXPECT_TRUE(service.Shutdown(QueryService::ShutdownMode::kDrain).ok());
  run.shared_served = service.stats_snapshot().tuples_shared_served;
  for (const QueryOutcome& out : run.outcomes) {
    auto text = service.Explain(out.uq_id);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    if (text.ok()) run.text += text.value();
  }
  return run;
}

// ---- the kFailedPrecondition contract ----

TEST(ObsExplainTest, ExplainDisabledFailsPrecondition) {
  ServiceOptions options;
  options.config = FastTestConfig();  // journal off by default
  options.manual_pump = true;
  QueryService service(options);
  ASSERT_TRUE(service
                  .BuildEachEngine([](Engine& e) {
                    return BuildTinyBioDataset(e);
                  })
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.journal(), nullptr);
  EXPECT_EQ(service.Explain(1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.ExplainEngine().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service.Shutdown().ok());
}

TEST(ObsExplainTest, ExplainUnknownOrUnresolvedFailsPrecondition) {
  QueryService service(ExplainServiceOptions(1, 1));
  ASSERT_TRUE(service
                  .BuildEachEngine([](Engine& e) {
                    return BuildTinyBioDataset(e);
                  })
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  ASSERT_NE(service.journal(), nullptr);
  // Never-submitted uq.
  EXPECT_EQ(service.Explain(999).status().code(),
            StatusCode::kFailedPrecondition);
  SessionId session = service.OpenSession("pending").value();
  auto ticket = service.Submit(session, "protein gene");
  ASSERT_TRUE(ticket.ok());
  // Submitted but not yet resolved (nothing pumped).
  EXPECT_EQ(service.Explain(ticket.value().uq_id()).status().code(),
            StatusCode::kFailedPrecondition);
  QueryOutcome out = PumpUntilResolved(service, ticket.value());
  ASSERT_TRUE(out.status.ok());
  // Resolved: queryable, and the engine-scope log is always queryable.
  EXPECT_TRUE(service.Explain(out.uq_id).ok());
  EXPECT_TRUE(service.ExplainEngine().ok());
  EXPECT_TRUE(service.Shutdown().ok());
}

// ---- determinism & content ----

TEST(ObsExplainTest, ExplainDeterministicAcrossRunsShardsAndThreads) {
  ExplainRun base = RunRepeatWorkload(1, 1);
  ASSERT_FALSE(base.text.empty());

  // Byte-identical on a second identical run...
  ExplainRun rerun = RunRepeatWorkload(1, 1);
  EXPECT_EQ(base.text, rerun.text);

  // ...and across shard counts and exec-thread counts: the journal
  // renders no shard ids, wall times, or raw sharing tags in per-UQ
  // output, and the workload routes to one shard at any count.
  for (const auto& [shards, threads] :
       std::vector<std::pair<int, int>>{{2, 1}, {3, 1}, {1, 2}, {2, 2}}) {
    ExplainRun other = RunRepeatWorkload(shards, threads);
    EXPECT_EQ(base.text, other.text)
        << "shards=" << shards << " threads=" << threads;
  }
}

TEST(ObsExplainTest, ExplainRecordsDecisionsAndAttribution) {
  ExplainRun run = RunRepeatWorkload(1, 1);
  // Every optimizer decision records its choice with >= 2 costed
  // alternatives (rank 0 = winner, rank 1 = first alternative).
  EXPECT_NE(run.text.find("opt_choice"), std::string::npos);
  EXPECT_NE(run.text.find("opt_alt rank=0"), std::string::npos);
  EXPECT_NE(run.text.find("opt_alt rank=1"), std::string::npos);
  EXPECT_NE(run.text.find("atc_assign"), std::string::npos);
  EXPECT_NE(run.text.find("graft_component"), std::string::npos);
  EXPECT_NE(run.text.find("sharing_benefit"), std::string::npos);

  // The repeats inherit the first query's warm streams: attribution
  // credits uq 1 as producer, and the per-UQ metric agrees.
  ASSERT_EQ(run.outcomes.size(), 3u);
  EXPECT_EQ(run.outcomes[0].metrics.tuples_from_shared, 0);
  EXPECT_GT(run.outcomes[1].metrics.tuples_from_shared, 0);
  EXPECT_GT(run.outcomes[1].metrics.est_saved_us, 0);
  EXPECT_NE(run.text.find("shared_inherit producer_uq=" +
                          std::to_string(run.outcomes[0].uq_id)),
            std::string::npos);
  EXPECT_NE(run.text.find("producers=[" +
                          std::to_string(run.outcomes[0].uq_id) + ":"),
            std::string::npos);

  // Warm repeats return exactly as many results as the cold run.
  EXPECT_EQ(run.outcomes[1].results.size(), run.outcomes[0].results.size());
}

// ---- attribution conservation ----

/// Distinct + repeated queries; returns (sum of per-UQ
/// tuples_from_shared, engine total tuples_shared_served).
std::pair<int64_t, int64_t> ConservationRun(bool journal_on,
                                            int num_shards) {
  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.num_shards = num_shards;
  options.config.explain_journal_queries = journal_on ? 32 : 0;
  options.manual_pump = true;
  QueryService service(options);
  EXPECT_TRUE(service
                  .BuildEachEngine([](Engine& e) {
                    return BuildTinyBioDataset(e);
                  })
                  .ok());
  EXPECT_TRUE(service.Start().ok());
  SessionId session = service.OpenSession("conserve").value();
  const char* queries[] = {"protein gene", "gene term",    "protein term",
                           "protein gene", "gene term",    "protein gene",
                           "protein term", "protein gene", "gene term"};
  int64_t per_uq_sum = 0;
  for (const char* q : queries) {
    auto ticket = service.Submit(session, q);
    EXPECT_TRUE(ticket.ok());
    if (!ticket.ok()) continue;
    QueryOutcome out = PumpUntilResolved(service, ticket.value());
    EXPECT_TRUE(out.status.ok());
    per_uq_sum += out.metrics.tuples_from_shared;
  }
  EXPECT_TRUE(service.Shutdown(QueryService::ShutdownMode::kDrain).ok());
  return {per_uq_sum, service.stats_snapshot().tuples_shared_served};
}

TEST(ObsExplainTest, AttributionConservesAgainstCounters) {
  for (bool journal_on : {true, false}) {
    for (int shards : {1, 2}) {
      auto [per_uq, total] = ConservationRun(journal_on, shards);
      EXPECT_EQ(per_uq, total)
          << "journal_on=" << journal_on << " shards=" << shards;
      EXPECT_GT(total, 0) << "workload never shared anything";
    }
  }
}

// ---- exporter ----

TEST(ObsExplainTest, PrometheusExporterRendersExpectedFamilies) {
  QueryService service(ExplainServiceOptions(2, 1));
  ASSERT_TRUE(service
                  .BuildEachEngine([](Engine& e) {
                    return BuildTinyBioDataset(e);
                  })
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  SessionId session = service.OpenSession("prom").value();
  auto ticket = service.Submit(session, "protein gene");
  ASSERT_TRUE(ticket.ok());
  PumpUntilResolved(service, ticket.value());
  ASSERT_TRUE(service.Shutdown(QueryService::ShutdownMode::kDrain).ok());

  std::string prom = service.MetricsPrometheus();
  for (const char* needle : {
           "# TYPE qsys_latency_e2e_us summary",
           "qsys_latency_e2e_us{shard=\"all\",quantile=\"0.5\"}",
           "# TYPE qsys_submitted_total counter",
           "qsys_submitted_total 1",
           "qsys_completed_total 1",
           "# TYPE qsys_spill_bytes_on_disk gauge",
           "qsys_spill_bytes_on_disk{shard=\"1\"}",
           "# TYPE qsys_plan_graph_operators gauge",
           "qsys_plan_graph_operators{shard=\"1\"}",
           "# TYPE qsys_exec_tuples_streamed_total counter",
           "qsys_exec_tuples_streamed_total{shard=\"0\"}",
           "qsys_exec_tuples_shared_served_total{shard=\"1\"}",
       }) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace qsys
