// Tests for the concurrent query-serving subsystem (src/serve/):
// admission/session control, submit-queue backpressure, equivalence of
// concurrently served results with an equivalent virtual-clock
// simulator timeline, and clean shutdown with in-flight queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/query_service.h"
#include "src/serve/submit_queue.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

using ::qsys::testing::BuildTinyBioDataset;
using ::qsys::testing::FastTestConfig;

ServiceOptions TinyServiceOptions() {
  ServiceOptions options;
  options.config = FastTestConfig();
  return options;
}

// ---- SubmitQueue ----

TEST(SubmitQueueTest, FifoAndCapacity) {
  SubmitQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full
  EXPECT_EQ(q.size(), 2u);
  auto a = q.PopUntil(std::nullopt);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 1);
  EXPECT_TRUE(q.TryPush(3));
  auto b = q.PopUntil(std::nullopt);
  auto c = q.PopUntil(std::nullopt);
  ASSERT_TRUE(b.has_value() && c.has_value());
  EXPECT_EQ(*b, 2);
  EXPECT_EQ(*c, 3);
}

TEST(SubmitQueueTest, PopTimesOut) {
  SubmitQueue<int> q(1);
  auto item = q.PopUntil(std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(5));
  EXPECT_FALSE(item.has_value());
}

TEST(SubmitQueueTest, CloseRejectsPushesAndWakesPoppers) {
  SubmitQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(7));
  q.Close();
  EXPECT_FALSE(q.TryPush(8));
  // Queued items remain poppable after close.
  auto item = q.PopUntil(std::nullopt);
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(*item, 7);
  // Closed and drained: Pop returns immediately.
  EXPECT_FALSE(q.PopUntil(std::nullopt).has_value());
}

// ---- sessions & admission ----

TEST(SessionTest, AdmissionTracksInFlightCap) {
  SessionManager sessions(/*max_in_flight_per_session=*/2);
  SessionId s = sessions.Open("alice");
  EXPECT_TRUE(sessions.Admit(s).ok());
  EXPECT_TRUE(sessions.Admit(s).ok());
  EXPECT_EQ(sessions.Admit(s).code(), StatusCode::kResourceExhausted);
  sessions.OnResolved(s, /*ok=*/true);
  EXPECT_TRUE(sessions.Admit(s).ok());

  auto stats = sessions.StatsFor(s);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().submitted, 3);
  EXPECT_EQ(stats.value().completed, 1);
  EXPECT_EQ(stats.value().rejected, 1);
  EXPECT_EQ(stats.value().in_flight, 2);
}

TEST(SessionTest, UnknownAndClosedSessionsRefused) {
  SessionManager sessions(4);
  EXPECT_EQ(sessions.Admit(99).code(), StatusCode::kNotFound);
  SessionId s = sessions.Open("bob");
  EXPECT_TRUE(sessions.Close(s).ok());
  EXPECT_EQ(sessions.Admit(s).code(), StatusCode::kNotFound);
  EXPECT_EQ(sessions.Close(s).code(), StatusCode::kNotFound);
}

// ---- service lifecycle ----

TEST(QueryServiceTest, SubmitRequiresStart) {
  QueryService service(TinyServiceOptions());
  EXPECT_EQ(service.OpenSession("early").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, ServesOneQuery) {
  QueryService service(TinyServiceOptions());
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("alice");
  ASSERT_TRUE(session.ok());

  auto ticket = service.Submit(session.value(), "membrane gene");
  ASSERT_TRUE(ticket.ok());
  const QueryOutcome& out = ticket.value().Wait();
  EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.uq_id, ticket.value().uq_id());
  EXPECT_FALSE(out.results.empty());
  // Ranked: nonincreasing scores.
  for (size_t i = 1; i < out.results.size(); ++i) {
    EXPECT_LE(out.results[i].score, out.results[i - 1].score);
  }
  EXPECT_TRUE(service.Shutdown().ok());
  EXPECT_EQ(service.counters().completed.load(), 1);
}

TEST(QueryServiceTest, GenerationFailureResolvesTicket) {
  QueryService service(TinyServiceOptions());
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("alice");
  ASSERT_TRUE(session.ok());

  auto ticket = service.Submit(session.value(), "zzzyyyxxx_nomatch");
  ASSERT_TRUE(ticket.ok());
  const QueryOutcome& out = ticket.value().Wait();
  EXPECT_FALSE(out.status.ok());
  EXPECT_TRUE(out.results.empty());
  EXPECT_TRUE(service.Shutdown().ok());
  EXPECT_EQ(service.counters().failed.load(), 1);
  auto stats = service.sessions().StatsFor(session.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().in_flight, 0);
}

// ---- equivalence with the virtual-clock simulator ----

TEST(QueryServiceTest, ConcurrentSubmitsMatchSimulatorResults) {
  const std::vector<std::string> queries = {
      "membrane gene", "kinase pathway", "receptor transport",
      "mutation metabolism"};
  const int n = static_cast<int>(queries.size());

  // Reference: the same four keyword queries posed together on the
  // virtual clock and batch-optimized as one group.
  QConfig config = FastTestConfig();
  config.batch_size = n;
  std::map<std::string, std::vector<double>> expected;
  {
    QSystem sim(config);
    ASSERT_TRUE(BuildTinyBioDataset(sim).ok());
    std::map<int, std::string> posed;
    for (int i = 0; i < n; ++i) {
      auto uq = sim.Pose(queries[i], /*user=*/i + 1, /*at=*/0);
      ASSERT_TRUE(uq.ok());
      posed[uq.value()] = queries[i];
    }
    ASSERT_TRUE(sim.Run().ok());
    for (const auto& [uq_id, keywords] : posed) {
      const auto* results = sim.ResultsFor(uq_id);
      ASSERT_NE(results, nullptr) << keywords;
      for (const ResultTuple& r : *results) {
        expected[keywords].push_back(r.score);
      }
    }
  }

  // Service: the same queries submitted concurrently from n client
  // threads. batch_size == n keeps the epoch boundary deterministic:
  // the batch flushes once the last submission lands.
  ServiceOptions options;
  options.config = config;
  options.config.batch_window_us = 60'000'000;  // flush on size, not time
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());

  std::vector<QueryTicket> tickets(n);
  std::vector<std::thread> clients;
  std::mutex tickets_mu;
  for (int i = 0; i < n; ++i) {
    clients.emplace_back([&, i] {
      auto session = service.OpenSession("client-" + std::to_string(i));
      ASSERT_TRUE(session.ok());
      auto ticket = service.Submit(session.value(), queries[i]);
      ASSERT_TRUE(ticket.ok());
      std::lock_guard<std::mutex> lock(tickets_mu);
      tickets[i] = ticket.value();
    });
  }
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < n; ++i) {
    const QueryOutcome& out = tickets[i].Wait();
    ASSERT_TRUE(out.status.ok()) << queries[i] << ": "
                                 << out.status.ToString();
    std::vector<double> scores;
    for (const ResultTuple& r : out.results) scores.push_back(r.score);
    const std::vector<double>& want = expected[queries[i]];
    ASSERT_EQ(scores.size(), want.size()) << queries[i];
    for (size_t j = 0; j < scores.size(); ++j) {
      EXPECT_NEAR(scores[j], want[j], 1e-9)
          << queries[i] << " rank " << j;
    }
  }
  EXPECT_TRUE(service.Shutdown().ok());
  EXPECT_EQ(service.counters().completed.load(), n);
  // One shared batch: every query executed in a single epoch.
  EXPECT_EQ(service.counters().batches_flushed.load(), 1);
}

// ---- backpressure ----

TEST(QueryServiceTest, QueueBackpressureRejectsWhenFull) {
  ServiceOptions options = TinyServiceOptions();
  options.queue_capacity = 1;
  options.manual_pump = true;  // nothing drains until we pump
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("alice");
  ASSERT_TRUE(session.ok());

  auto first = service.Submit(session.value(), "membrane gene");
  ASSERT_TRUE(first.ok());
  auto second = service.Submit(session.value(), "kinase pathway");
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.counters().rejected.load(), 1);
  // The rejected submit must not leak in-flight accounting.
  auto stats = service.sessions().StatsFor(session.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().in_flight, 1);

  // Draining restores capacity.
  ASSERT_TRUE(service.PumpOnce().ok());
  auto third = service.Submit(session.value(), "kinase pathway");
  EXPECT_TRUE(third.ok());
  EXPECT_TRUE(service.Shutdown().ok());
  EXPECT_TRUE(first.value().Wait().status.ok());
  EXPECT_TRUE(third.value().Wait().status.ok());
}

TEST(QueryServiceTest, SessionInFlightCapRejects) {
  ServiceOptions options = TinyServiceOptions();
  options.max_in_flight_per_session = 1;
  options.manual_pump = true;
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("alice");
  ASSERT_TRUE(session.ok());

  auto first = service.Submit(session.value(), "membrane gene");
  ASSERT_TRUE(first.ok());
  auto second = service.Submit(session.value(), "kinase pathway");
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  // Another session is unaffected.
  auto other = service.OpenSession("bob");
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(service.Submit(other.value(), "kinase pathway").ok());
  EXPECT_TRUE(service.Shutdown().ok());
}

// ---- shutdown with in-flight queries ----

TEST(QueryServiceTest, DrainShutdownCompletesInFlightQueries) {
  ServiceOptions options = TinyServiceOptions();
  options.config.batch_size = 50;              // never fills
  options.config.batch_window_us = 60'000'000;  // never expires
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("alice");
  ASSERT_TRUE(session.ok());

  std::vector<QueryTicket> tickets;
  for (const char* q : {"membrane gene", "kinase pathway"}) {
    auto ticket = service.Submit(session.value(), q);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  // Neither window nor size would flush these; a draining shutdown
  // must still execute and deliver them.
  ASSERT_TRUE(service.Shutdown(QueryService::ShutdownMode::kDrain).ok());
  for (QueryTicket& t : tickets) {
    const QueryOutcome& out = t.Wait();
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_FALSE(out.results.empty());
  }
  EXPECT_EQ(service.counters().completed.load(), 2);
  EXPECT_EQ(service.Submit(session.value(), "late").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, CancelShutdownResolvesPendingTickets) {
  ServiceOptions options = TinyServiceOptions();
  options.config.batch_size = 50;
  options.config.batch_window_us = 60'000'000;
  options.manual_pump = true;  // keep the queries un-executed
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("alice");
  ASSERT_TRUE(session.ok());

  auto queued = service.Submit(session.value(), "membrane gene");
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(service.PumpOnce().ok());  // ingested, batched, unflushed
  auto unqueued = service.Submit(session.value(), "kinase pathway");
  ASSERT_TRUE(unqueued.ok());

  ASSERT_TRUE(
      service.Shutdown(QueryService::ShutdownMode::kCancelPending).ok());
  EXPECT_EQ(queued.value().Wait().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(unqueued.value().Wait().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(service.counters().cancelled.load(), 2);
  auto stats = service.sessions().StatsFor(session.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().in_flight, 0);
}

TEST(QueryServiceTest, ShutdownIsIdempotent) {
  QueryService service(TinyServiceOptions());
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  EXPECT_TRUE(service.Shutdown().ok());
  EXPECT_TRUE(service.Shutdown().ok());
}

TEST(SessionTest, ClosedSessionStateIsDropped) {
  SessionManager sessions(4);
  SessionId s = sessions.Open("alice");
  ASSERT_TRUE(sessions.Admit(s).ok());
  ASSERT_TRUE(sessions.Close(s).ok());
  // Still referenced by the in-flight query.
  EXPECT_TRUE(sessions.StatsFor(s).ok());
  sessions.OnResolved(s, /*ok=*/true);
  // Last reference resolved: the state is gone.
  EXPECT_EQ(sessions.StatsFor(s).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(sessions.AllStats().empty());
}

TEST(QueryServiceTest, ServingKeepsEngineBookkeepingBounded) {
  ServiceOptions options = TinyServiceOptions();
  options.manual_pump = true;
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("alice");
  ASSERT_TRUE(session.ok());

  std::vector<QueryTicket> tickets;
  for (const char* q : {"membrane gene", "kinase pathway",
                        "receptor transport"}) {
    auto ticket = service.Submit(session.value(), q);
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE(service.PumpOnce().ok());
    tickets.push_back(ticket.value());
  }
  for (QueryTicket& t : tickets) {
    const QueryOutcome& out = t.Wait();
    ASSERT_TRUE(out.status.ok());
    EXPECT_FALSE(out.results.empty());
  }
  // A long-lived service must not accumulate per-query state: history
  // records stay empty and every completed rank-merge was retired from
  // the plan graph.
  Engine& engine = service.engine();
  EXPECT_TRUE(engine.metrics().empty());
  EXPECT_TRUE(engine.optimization_records().empty());
  EXPECT_EQ(engine.GetUserQuery(tickets.front().uq_id()), nullptr);
  for (int i = 0; i < engine.num_atcs(); ++i) {
    EXPECT_TRUE(engine.atc(i).graph().rank_merges().empty());
  }
  EXPECT_TRUE(service.Shutdown().ok());
}

TEST(QueryServiceTest, PlanGraphStaysBoundedUnderRepeatTraffic) {
  // Repeat traffic grafts warm CQs — reused m-joins plus Algorithm 2
  // recovery queries — onto long-lived plan graphs. Retirement frees
  // what each finished query built, so once every plan shape has been
  // seen the graphs stop growing. ATC-CL with two exec threads runs
  // that retirement on the drain workers.
  ServiceOptions options = TinyServiceOptions();
  options.manual_pump = true;
  options.config.num_shards = 1;
  options.config.sharing = SharingConfig::kAtcCl;
  options.config.exec_threads = 2;
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("repeat");
  ASSERT_TRUE(session.ok());

  const std::vector<std::string> queries = {
      "membrane gene", "kinase pathway", "receptor transport"};
  std::map<std::string, std::string> first_answer;
  int64_t ops_at_round_20 = -1;
  for (int round = 1; round <= 200; ++round) {
    std::vector<QueryTicket> tickets;
    for (const std::string& q : queries) {
      auto ticket = service.Submit(session.value(), q);
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(ticket.value());
    }
    ASSERT_TRUE(service.PumpOnce().ok());
    for (size_t i = 0; i < tickets.size(); ++i) {
      const QueryOutcome& out = tickets[i].Wait();
      ASSERT_TRUE(out.status.ok()) << out.status.ToString();
      ASSERT_FALSE(out.results.empty());
      const std::string answer = FingerprintResults(out.results);
      auto [first, inserted] = first_answer.emplace(queries[i], answer);
      ASSERT_TRUE(inserted || answer == first->second)
          << "'" << queries[i] << "' changed its answer in round " << round;
    }
    if (round == 20) {
      ops_at_round_20 = service.engine().plan_graph_operators();
    }
  }
  EXPECT_GT(service.engine().grafter().recoveries_built(), 0);
  EXPECT_GT(ops_at_round_20, 0);
  EXPECT_EQ(service.engine().plan_graph_operators(), ops_at_round_20);
  // One scrape shows the same number.
  EXPECT_NE(service.MetricsPrometheus().find(
                "qsys_plan_graph_operators{shard=\"0\"} " +
                std::to_string(ops_at_round_20) + "\n"),
            std::string::npos);
  EXPECT_TRUE(service.Shutdown().ok());
}

TEST(QueryServiceTest, BoundedMemoryServingWithSpillTier) {
  ServiceOptions options = TinyServiceOptions();
  options.manual_pump = true;
  // A budget far below the retained-state working set, with the spill
  // tier enabled: evictions demote state to disk pages instead of
  // destroying it, and the service keeps answering.
  options.config.memory_budget_bytes = 512;
  options.config.spill_dir =
      ::testing::TempDir() + "qsys_serve_spill_test";
  options.config.spill_pool_frames = 4;
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.engine().spill_status().ok())
      << service.engine().spill_status().ToString();
  auto session = service.OpenSession("alice");
  ASSERT_TRUE(session.ok());

  // Repeating keywords across epochs forces reuse of state that was
  // evicted (and spilled) by the tight budget in between.
  std::vector<QueryTicket> tickets;
  for (const char* q :
       {"membrane gene", "kinase pathway", "membrane transport",
        "membrane gene", "kinase pathway", "membrane transport"}) {
    auto ticket = service.Submit(session.value(), q);
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE(service.PumpOnce().ok());
    tickets.push_back(ticket.value());
  }
  for (QueryTicket& t : tickets) {
    const QueryOutcome& out = t.Wait();
    ASSERT_TRUE(out.status.ok());
    EXPECT_FALSE(out.results.empty());
  }

  // The budget was enforced (state demoted each flush; the working set
  // regrows within an epoch as restored state is faulted back, so the
  // end-of-run footprint is checked against enforcement activity, not
  // an instantaneous bound), state moved through the spill tier, and
  // the lock-free gauges surfaced it.
  EXPECT_GT(service.engine().state_manager().evictions(), 0);
  SpillStats spill = service.counters().LoadSpill();
  EXPECT_GT(spill.items_spilled, 0);
  EXPECT_GT(spill.bytes_on_disk, 0);
  EXPECT_GT(service.engine().state_manager().spill_restores(), 0);
  EXPECT_TRUE(service.Shutdown().ok());
}

// ---- shared-work observability ----

TEST(QueryServiceTest, SharedEpochDoesLessWorkThanIsolatedRuns) {
  const std::vector<std::string> queries = {
      "membrane gene", "membrane pathway", "membrane transport",
      "kinase gene"};
  const int n = static_cast<int>(queries.size());

  // Isolated baseline: each query alone in its own system, no sharing.
  ExecStats isolated;
  for (const std::string& q : queries) {
    QConfig config = FastTestConfig();
    config.sharing = SharingConfig::kAtcCq;
    config.temporal_reuse = false;
    QSystem sim(config);
    ASSERT_TRUE(BuildTinyBioDataset(sim).ok());
    ASSERT_TRUE(sim.Pose(q, 1, 0).ok());
    ASSERT_TRUE(sim.Run().ok());
    isolated.Merge(sim.aggregate_stats());
  }

  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.batch_size = n;
  options.config.batch_window_us = 60'000'000;
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  auto session = service.OpenSession("alice");
  ASSERT_TRUE(session.ok());
  std::vector<QueryTicket> tickets;
  for (const std::string& q : queries) {
    auto ticket = service.Submit(session.value(), q);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  for (QueryTicket& t : tickets) {
    ASSERT_TRUE(t.Wait().status.ok());
  }
  ASSERT_TRUE(service.Shutdown().ok());

  ExecStats shared = service.stats_snapshot();
  EXPECT_GT(shared.tuples_streamed, 0);
  EXPECT_LT(shared.tuples_streamed, isolated.tuples_streamed);
}

}  // namespace
}  // namespace qsys
