// Fault tolerance in the serving stack (src/serve/ + src/shard/):
// per-query deadlines, the ShardSupervisor health state machine,
// bounded retry with exponential backoff, failover to healthy shards,
// crashed-shard restart over the shared dataset, and bounded drain on
// shutdown — all driven through scripted shard faults
// (src/shard/fault_injection.h).
//
// The serving contract these tests pin: every submitted query resolves
// terminally (answer, kDeadlineExceeded, or kUnavailable) — never a
// hang; answers recomputed on a healthy shard are byte-equivalent to
// the fault-free run.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/buffer/fault_injection.h"
#include "src/buffer/spill_manager.h"
#include "src/exec/rank_merge_op.h"
#include "src/serve/query_service.h"
#include "src/serve/supervisor.h"
#include "src/shard/fault_injection.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

using ::qsys::testing::BuildTinyBioDataset;
using ::qsys::testing::FastTestConfig;

Status TinyBuilder(Engine& e) { return BuildTinyBioDataset(e); }

const std::vector<std::string>& TestQueries() {
  static const std::vector<std::string> queries = {
      "membrane gene",    "kinase pathway",      "receptor transport",
      "membrane pathway", "mutation metabolism", "kinase gene",
  };
  return queries;
}

ServiceOptions FaultTestOptions(int shards) {
  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.num_shards = shards;
  options.manual_pump = true;
  return options;
}

/// Pumps the service until every ticket's future is ready; fails the
/// test (returns false) when the bound is hit — the no-hang invariant.
bool PumpUntilResolved(QueryService& service,
                       std::vector<QueryTicket>& tickets,
                       int max_spins = 2000) {
  for (int spin = 0; spin < max_spins; ++spin) {
    if (!service.PumpOnce().ok()) return false;
    bool all_ready = true;
    for (QueryTicket& t : tickets) {
      if (t.future().wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        all_ready = false;
        break;
      }
    }
    if (all_ready) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Fault-free single-shard answers for `queries`: the byte-equivalence
/// baseline, keyed by keyword text.
std::map<std::string, std::string> CleanAnswers(
    const std::vector<std::string>& queries) {
  std::map<std::string, std::string> answers;
  QueryService service(FaultTestOptions(1));
  EXPECT_TRUE(TinyBuilder(service.engine()).ok());
  EXPECT_TRUE(service.Start().ok());
  auto session = service.OpenSession("baseline");
  EXPECT_TRUE(session.ok());
  std::vector<QueryTicket> tickets;
  for (const std::string& q : queries) {
    auto t = service.Submit(session.value(), q);
    EXPECT_TRUE(t.ok()) << q;
    tickets.push_back(std::move(t).value());
  }
  EXPECT_TRUE(PumpUntilResolved(service, tickets));
  EXPECT_TRUE(service.Shutdown().ok());
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryOutcome& out = tickets[i].Wait();
    EXPECT_TRUE(out.status.ok()) << queries[i];
    answers[queries[i]] = FingerprintResults(out.results);
  }
  return answers;
}

// ---- backoff ----

TEST(FaultToleranceTest, BackoffIsBoundedDeterministicAndJittered) {
  // Bounds: attempt N draws from [full/2, 3*full/2) where full is
  // base << (N-1) capped at max.
  uint64_t rng = 42;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const int64_t full_ms = std::min<int64_t>(int64_t{2} << (attempt - 1),
                                              200);
    const int64_t us = ShardSupervisor::BackoffUs(attempt, /*base_ms=*/2,
                                                  /*max_ms=*/200, &rng);
    EXPECT_GE(us, full_ms * 1000 / 2) << "attempt " << attempt;
    EXPECT_LT(us, full_ms * 1000 * 3 / 2) << "attempt " << attempt;
  }

  // Deterministic: same rng state, same sequence.
  uint64_t a = 7, b = 7;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(ShardSupervisor::BackoffUs(attempt, 2, 200, &a),
              ShardSupervisor::BackoffUs(attempt, 2, 200, &b));
  }

  // Jittered: two queries failing over together must not retry in
  // lockstep (same attempt, advancing rng state, different draws).
  uint64_t c = 7;
  const int64_t first = ShardSupervisor::BackoffUs(3, 2, 200, &c);
  const int64_t second = ShardSupervisor::BackoffUs(3, 2, 200, &c);
  EXPECT_NE(first, second);

  // Degenerate attempt numbers clamp instead of shifting out of range.
  uint64_t d = 1;
  EXPECT_GT(ShardSupervisor::BackoffUs(0, 2, 200, &d), 0);
  EXPECT_GT(ShardSupervisor::BackoffUs(-5, 2, 200, &d), 0);
  EXPECT_LT(ShardSupervisor::BackoffUs(63, 2, 200, &d), 300 * 1000);
}

// ---- the supervisor state machine ----

TEST(FaultToleranceTest, SupervisorDetectsStallOnlyWithPendingWork) {
  SupervisorPolicy policy;
  policy.stall_timeout_us = 1000;
  ShardSupervisor sup(1, policy);

  ShardSupervisor::Observation obs;
  obs.heartbeat = 5;
  // First pass records the heartbeat as progress.
  EXPECT_FALSE(sup.Observe(0, obs, /*now_us=*/0).newly_failed);
  // Frozen heartbeat while idle is just idleness — forever.
  EXPECT_FALSE(sup.Observe(0, obs, 10'000).newly_failed);
  EXPECT_EQ(sup.state(0), ShardSupervisor::ShardState::kHealthy);
  // Pending work + frozen heartbeat, but the idle stretch reset the
  // progress clock: not yet a stall.
  obs.has_pending = true;
  EXPECT_FALSE(sup.Observe(0, obs, 10'500).newly_failed);
  // Still frozen past the timeout: stalled, failed exactly once.
  auto verdict = sup.Observe(0, obs, 12'000);
  EXPECT_TRUE(verdict.newly_failed);
  EXPECT_EQ(verdict.state, ShardSupervisor::ShardState::kStalled);
  EXPECT_FALSE(verdict.should_restart);  // never restart a wedged shard
  EXPECT_TRUE(sup.out_of_rotation(0));
  // Sticky: the next pass reports down, no second failure event.
  verdict = sup.Observe(0, obs, 13'000);
  EXPECT_FALSE(verdict.newly_failed);
  EXPECT_EQ(verdict.state, ShardSupervisor::ShardState::kDown);
}

TEST(FaultToleranceTest, SupervisorHeartbeatComparisonIsChangeNotIncrease) {
  SupervisorPolicy policy;
  policy.stall_timeout_us = 1000;
  ShardSupervisor sup(1, policy);
  ShardSupervisor::Observation obs;
  obs.has_pending = true;
  // A restarted engine's counter starts over — a *smaller* heartbeat
  // still counts as progress.
  obs.heartbeat = 100;
  sup.Observe(0, obs, 0);
  obs.heartbeat = 3;
  EXPECT_FALSE(sup.Observe(0, obs, 5'000).newly_failed);
  EXPECT_EQ(sup.state(0), ShardSupervisor::ShardState::kHealthy);
}

TEST(FaultToleranceTest, SupervisorRestartBudgetAndOutcomes) {
  SupervisorPolicy policy;
  policy.max_restarts_per_shard = 1;
  ShardSupervisor sup(1, policy);

  ShardSupervisor::Observation crashed;
  crashed.terminal_failed = true;
  // Crash detected; the dying executor hasn't exited yet, so no
  // restart attempt.
  auto verdict = sup.Observe(0, crashed, 0);
  EXPECT_TRUE(verdict.newly_failed);
  EXPECT_EQ(verdict.state, ShardSupervisor::ShardState::kCrashed);
  EXPECT_FALSE(verdict.should_restart);
  // Executor exited: restart now, exactly once.
  crashed.executor_finished = true;
  verdict = sup.Observe(0, crashed, 1);
  EXPECT_TRUE(verdict.should_restart);
  EXPECT_EQ(verdict.state, ShardSupervisor::ShardState::kRestarting);
  EXPECT_FALSE(sup.Observe(0, crashed, 2).should_restart);  // in flight

  sup.OnRestartSucceeded(0);
  EXPECT_EQ(sup.state(0), ShardSupervisor::ShardState::kHealthy);
  EXPECT_EQ(sup.restarts(0), 1);
  EXPECT_FALSE(sup.out_of_rotation(0));

  // Second crash: the budget (1) is spent — down for good.
  verdict = sup.Observe(0, crashed, 3);
  EXPECT_TRUE(verdict.newly_failed);
  verdict = sup.Observe(0, crashed, 4);
  EXPECT_FALSE(verdict.should_restart);
  EXPECT_EQ(verdict.state, ShardSupervisor::ShardState::kDown);

  // A failed restart attempt also lands on down.
  ShardSupervisor sup2(1, policy);
  sup2.Observe(0, crashed, 0);
  EXPECT_TRUE(sup2.Observe(0, crashed, 1).should_restart);
  sup2.OnRestartFailed(0);
  EXPECT_EQ(sup2.state(0), ShardSupervisor::ShardState::kDown);
}

// ---- deadlines ----

TEST(FaultToleranceTest, DeadlineExpiresWhileShardIsWedged) {
  // The shard wedges on its first epoch drive (stall detection off so
  // the deadline, not failover, resolves the query): the ticket must
  // resolve kDeadlineExceeded at a supervision pass, never hang.
  ServiceOptions options = FaultTestOptions(1);
  options.stall_timeout_ms = 0;
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  ShardFaultPlan plan;
  plan.stall_at_seq = 0;  // epoch-drive seq is 0-based: wedge immediately
  ScriptedShardFaultInjector injector(plan);
  service.InstallShardFaultInjector(&injector);

  auto session = service.OpenSession("deadline");
  ASSERT_TRUE(session.ok());
  auto ticket = service.Submit(session.value(), "membrane gene", {},
                               /*deadline_ms=*/5);
  ASSERT_TRUE(ticket.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(service.PumpOnce().ok());
  ASSERT_EQ(ticket.value().future().wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const QueryOutcome& out = ticket.value().Wait();
  EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.counters().deadline_exceeded.load(), 1);
  EXPECT_EQ(service.counters().completed.load(), 0);
  injector.ReleaseStalls();
  EXPECT_TRUE(service.Shutdown().ok());
}

TEST(FaultToleranceTest, ExplicitDeadlineAppliesAndZeroDisables) {
  ServiceOptions options = FaultTestOptions(1);
  options.stall_timeout_ms = 0;
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  ShardFaultPlan plan;
  plan.stall_at_seq = 0;
  ScriptedShardFaultInjector injector(plan);
  service.InstallShardFaultInjector(&injector);
  auto session = service.OpenSession("deadline");
  ASSERT_TRUE(session.ok());

  // An explicit 5 ms deadline applies.
  auto bounded = service.Submit(session.value(), "membrane gene", {},
                                /*deadline_ms=*/5);
  ASSERT_TRUE(bounded.ok());
  // 0 means "no deadline", as does the overload without one.
  auto unbounded = service.Submit(session.value(), "kinase pathway", {},
                                  /*deadline_ms=*/0);
  ASSERT_TRUE(unbounded.ok());
  auto no_deadline = service.Submit(session.value(), "protein gene");
  ASSERT_TRUE(no_deadline.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(service.PumpOnce().ok());
  EXPECT_EQ(bounded.value().Wait().status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(unbounded.value().future().wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(no_deadline.value().future().wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  // The un-deadlined queries still resolve terminally — at shutdown.
  injector.ReleaseStalls();
  EXPECT_TRUE(service.Shutdown(QueryService::ShutdownMode::kCancelPending)
                  .ok());
  EXPECT_FALSE(unbounded.value().Wait().status.ok());
  EXPECT_FALSE(no_deadline.value().Wait().status.ok());
}

TEST(FaultToleranceTest, DeadlineBeatsRetryBackoff) {
  // Shard 0 crashes; the failover path schedules retries with a
  // backoff (~100 ms jittered) far longer than the queries' deadline
  // (10 ms). The deadline must win while the retry is still backing
  // off — terminal kDeadlineExceeded, never a hang, and never a
  // completion that arrives after the deadline.
  ServiceOptions options = FaultTestOptions(2);
  options.retry_backoff_base_ms = 100;
  options.retry_backoff_max_ms = 100;
  options.max_retries = 3;
  options.max_restarts_per_shard = 0;
  QueryService service(options);
  ASSERT_TRUE(service.BuildEachEngine(TinyBuilder).ok());
  ASSERT_TRUE(service.Start().ok());
  ShardFaultPlan plan;
  plan.target_shard = 0;
  plan.crash_at_seq = 0;
  ScriptedShardFaultInjector injector(plan);
  service.InstallShardFaultInjector(&injector);
  auto session = service.OpenSession("deadline");
  ASSERT_TRUE(session.ok());

  // Spread the list across both shards: whichever queries route to the
  // crashed shard enter the retry queue and must expire there.
  std::vector<QueryTicket> tickets;
  for (const std::string& q : TestQueries()) {
    auto t = service.Submit(session.value(), q, {}, /*deadline_ms=*/10);
    ASSERT_TRUE(t.ok()) << q;
    tickets.push_back(std::move(t).value());
  }
  ASSERT_TRUE(PumpUntilResolved(service, tickets));
  int expired = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryOutcome& out = tickets[i].Wait();
    // Either completed on the healthy shard before the deadline, or
    // expired during the backoff — never retried past the deadline.
    if (!out.status.ok()) {
      EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded)
          << TestQueries()[i];
      ++expired;
    }
  }
  EXPECT_GT(expired, 0) << "no query ever routed to the crashed shard";
  EXPECT_EQ(service.counters().deadline_exceeded.load(), expired);
  EXPECT_EQ(service.counters().retries.load(), 0)
      << "a retry fired before its 100 ms backoff elapsed";
  EXPECT_TRUE(service.Shutdown().ok());
}

// ---- failover ----

TEST(FaultToleranceTest, StalledShardFailsOverByteEquivalent) {
  const std::map<std::string, std::string> clean = CleanAnswers(TestQueries());

  ServiceOptions options = FaultTestOptions(3);
  options.stall_timeout_ms = 20;
  QueryService service(options);
  ASSERT_TRUE(service.BuildEachEngine(TinyBuilder).ok());
  ASSERT_TRUE(service.Start().ok());
  ShardFaultPlan plan;
  plan.target_shard = 0;
  plan.stall_at_seq = 0;  // wedged from the very first drive
  ScriptedShardFaultInjector injector(plan);
  service.InstallShardFaultInjector(&injector);
  auto session = service.OpenSession("failover");
  ASSERT_TRUE(session.ok());

  std::vector<QueryTicket> tickets;
  for (const std::string& q : TestQueries()) {
    auto t = service.Submit(session.value(), q);
    ASSERT_TRUE(t.ok()) << q;
    tickets.push_back(std::move(t).value());
  }
  ASSERT_TRUE(PumpUntilResolved(service, tickets))
      << "queries on the stalled shard must fail over, not hang";

  // Failover recomputes the full answer on a healthy shard over the
  // same dataset — byte-equivalent.
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryOutcome& out = tickets[i].Wait();
    ASSERT_TRUE(out.status.ok()) << TestQueries()[i] << ": "
                                 << out.status.ToString();
    EXPECT_EQ(FingerprintResults(out.results), clean.at(TestQueries()[i]))
        << TestQueries()[i];
  }
  // The stalled shard was detected, failed over, and is out of
  // rotation — but never restarted (the executor may be wedged alive).
  EXPECT_GT(service.counters().retries.load(), 0);
  EXPECT_EQ(service.counters().shard_restarts.load(), 0);
  ASSERT_NE(service.supervisor(), nullptr);
  EXPECT_TRUE(service.supervisor()->out_of_rotation(0));
  EXPECT_FALSE(service.supervisor()->out_of_rotation(1));

  // Submits keep flowing around the dead shard.
  auto late = service.Submit(session.value(), "membrane gene");
  ASSERT_TRUE(late.ok());
  std::vector<QueryTicket> late_tickets;
  late_tickets.push_back(std::move(late).value());
  ASSERT_TRUE(PumpUntilResolved(service, late_tickets));
  EXPECT_EQ(FingerprintResults(late_tickets[0].Wait().results),
            clean.at("membrane gene"));

  injector.ReleaseStalls();
  EXPECT_TRUE(service.Shutdown().ok());
}

TEST(FaultToleranceTest, CrashedShardRestartsAndServesAgain) {
  const std::map<std::string, std::string> clean = CleanAnswers(TestQueries());

  ServiceOptions options = FaultTestOptions(2);
  options.stall_timeout_ms = 20;
  options.max_restarts_per_shard = 1;
  QueryService service(options);
  ASSERT_TRUE(service.BuildEachEngine(TinyBuilder).ok());
  ASSERT_TRUE(service.Start().ok());
  ShardFaultPlan plan;
  plan.target_shard = 0;
  plan.crash_at_seq = 0;  // one-shot: the restarted engine runs clean
  ScriptedShardFaultInjector injector(plan);
  service.InstallShardFaultInjector(&injector);
  auto session = service.OpenSession("restart");
  ASSERT_TRUE(session.ok());

  std::vector<QueryTicket> tickets;
  for (const std::string& q : TestQueries()) {
    auto t = service.Submit(session.value(), q);
    ASSERT_TRUE(t.ok()) << q;
    tickets.push_back(std::move(t).value());
  }
  ASSERT_TRUE(PumpUntilResolved(service, tickets));
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryOutcome& out = tickets[i].Wait();
    ASSERT_TRUE(out.status.ok()) << TestQueries()[i] << ": "
                                 << out.status.ToString();
    EXPECT_EQ(FingerprintResults(out.results), clean.at(TestQueries()[i]))
        << TestQueries()[i];
  }
  EXPECT_TRUE(injector.crash_fired());
  EXPECT_EQ(service.counters().shard_restarts.load(), 1);
  ASSERT_NE(service.supervisor(), nullptr);
  EXPECT_EQ(service.supervisor()->restarts(0), 1);
  EXPECT_FALSE(service.supervisor()->out_of_rotation(0));

  // The restarted engine serves byte-equivalent answers.
  std::vector<QueryTicket> warm;
  for (const std::string& q : TestQueries()) {
    auto t = service.Submit(session.value(), q);
    ASSERT_TRUE(t.ok()) << q;
    warm.push_back(std::move(t).value());
  }
  ASSERT_TRUE(PumpUntilResolved(service, warm));
  for (size_t i = 0; i < warm.size(); ++i) {
    const QueryOutcome& out = warm[i].Wait();
    ASSERT_TRUE(out.status.ok()) << TestQueries()[i];
    EXPECT_EQ(FingerprintResults(out.results), clean.at(TestQueries()[i]));
  }
  EXPECT_TRUE(service.Shutdown().ok());
}

TEST(FaultToleranceTest, BuilderRunsOnceAndRestartsShareTheDataset) {
  // One dataset for every shard: the builder runs once, every shard
  // reads the same catalog object, and a crashed shard restarts as a
  // fresh engine over that same catalog instead of rebuilding it.
  ServiceOptions options = FaultTestOptions(3);
  options.stall_timeout_ms = 20;
  QueryService service(options);
  int builds = 0;
  ASSERT_TRUE(service
                  .BuildEachEngine([&builds](Engine& e) {
                    ++builds;
                    return BuildTinyBioDataset(e);
                  })
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(builds, 1);
  const Catalog* catalog = &service.shard_engine(0).catalog();
  for (int i = 0; i < service.num_shards(); ++i) {
    EXPECT_EQ(&service.shard_engine(i).catalog(), catalog) << "shard " << i;
  }

  const Engine* before_crash = &service.shard_engine(1);
  ShardFaultPlan plan;
  plan.target_shard = 1;
  plan.crash_at_seq = 0;
  ScriptedShardFaultInjector injector(plan);
  service.InstallShardFaultInjector(&injector);
  auto session = service.OpenSession("shared");
  ASSERT_TRUE(session.ok());
  std::vector<QueryTicket> tickets;
  for (const std::string& q : TestQueries()) {
    auto t = service.Submit(session.value(), q);
    ASSERT_TRUE(t.ok()) << q;
    tickets.push_back(std::move(t).value());
  }
  ASSERT_TRUE(PumpUntilResolved(service, tickets));
  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(tickets[i].Wait().status.ok()) << TestQueries()[i];
  }
  EXPECT_TRUE(injector.crash_fired());
  EXPECT_EQ(service.counters().shard_restarts.load(), 1);
  EXPECT_NE(&service.shard_engine(1), before_crash);
  EXPECT_EQ(builds, 1);
  for (int i = 0; i < service.num_shards(); ++i) {
    EXPECT_EQ(&service.shard_engine(i).catalog(), catalog) << "shard " << i;
  }
  EXPECT_TRUE(service.Shutdown().ok());
}

// ---- bounded shutdown ----

TEST(FaultToleranceTest, ShutdownDrainsBoundedUnderThreadedStall) {
  // Threaded executors, one wedged inside the injector's gate: Shutdown
  // must release the stall, force-fail what cannot drain, and return
  // within its bound — never join a wedged thread forever.
  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.num_shards = 2;
  options.stall_timeout_ms = 30;
  options.supervise_interval_ms = 5;
  options.shutdown_wait_ms = 500;
  QueryService service(options);
  ASSERT_TRUE(service.BuildEachEngine(TinyBuilder).ok());
  ASSERT_TRUE(service.Start().ok());
  ShardFaultPlan plan;
  plan.target_shard = 0;
  plan.stall_at_seq = 1;
  ScriptedShardFaultInjector injector(plan);
  service.InstallShardFaultInjector(&injector);
  auto session = service.OpenSession("drain");
  ASSERT_TRUE(session.ok());

  std::vector<QueryTicket> tickets;
  for (const std::string& q : TestQueries()) {
    auto t = service.Submit(session.value(), q);
    ASSERT_TRUE(t.ok()) << q;
    tickets.push_back(std::move(t).value());
  }

  const auto t0 = std::chrono::steady_clock::now();
  (void)service.Shutdown(QueryService::ShutdownMode::kDrain);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  // Bound: the configured drain wait plus generous slack — nowhere near
  // a wedged-forever join.
  EXPECT_LT(elapsed.count(), 5000);

  // Every ticket terminal, no hangs: completed on the healthy shard,
  // failed over, or force-failed kUnavailable/kCancelled at shutdown.
  for (size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_EQ(tickets[i].future().wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << TestQueries()[i] << " left unresolved by shutdown";
  }
}

// ---- a crash in the final drain ----

// Shard 1 crashes on the drive after `pumps` pumps: the final drain of
// Shutdown(kDrain), after supervision has stopped. Manual pumps fix the
// drive count, so the crash lands there deterministically. Submits the
// test queries that route to `routed_to` and returns their tickets.
std::vector<QueryTicket> CrashShard1InFinalDrain(
    QueryService& service, ScriptedShardFaultInjector& injector,
    int routed_to, int pumps) {
  std::vector<QueryTicket> tickets;
  EXPECT_TRUE(service.BuildEachEngine(TinyBuilder).ok());
  EXPECT_TRUE(service.Start().ok());
  service.InstallShardFaultInjector(&injector);
  auto session = service.OpenSession("final-drain");
  EXPECT_TRUE(session.ok());
  for (const std::string& q : TestQueries()) {
    if (service.router().Route(q) != routed_to) continue;
    auto t = service.Submit(session.value(), q);
    EXPECT_TRUE(t.ok()) << q;
    tickets.push_back(std::move(t).value());
  }
  EXPECT_FALSE(tickets.empty()) << "no test query routes to " << routed_to;
  for (int i = 0; i < pumps; ++i) EXPECT_TRUE(service.PumpOnce().ok());
  EXPECT_FALSE(injector.crash_fired());
  return tickets;
}

TEST(FaultToleranceTest,
     CrashInFinalDrainStrandingNoQueryIsNotAShutdownFailure) {
  // Every query routes to shard 0, so shard 1's crash strands nothing:
  // the drain succeeds, as if a supervision pass had taken shard 1
  // down.
  constexpr int kPumps = 3;
  ShardFaultPlan plan;
  plan.target_shard = 1;
  plan.crash_at_seq = kPumps;
  ScriptedShardFaultInjector injector(plan);
  QueryService service(FaultTestOptions(2));
  std::vector<QueryTicket> tickets =
      CrashShard1InFinalDrain(service, injector, /*routed_to=*/0, kPumps);
  EXPECT_TRUE(service.Shutdown(QueryService::ShutdownMode::kDrain).ok());
  EXPECT_TRUE(injector.crash_fired());
  for (QueryTicket& t : tickets) {
    EXPECT_TRUE(t.Wait().status.ok()) << t.Wait().keywords;
  }
  // The shutdown did not swallow the crash: the supervisor recorded it
  // and took shard 1 out of rotation, and shard 0 stayed healthy.
  ASSERT_NE(service.supervisor(), nullptr);
  EXPECT_EQ(service.supervisor()->state(1),
            ShardSupervisor::ShardState::kCrashed);
  EXPECT_TRUE(service.supervisor()->out_of_rotation(1));
  EXPECT_EQ(service.supervisor()->state(0),
            ShardSupervisor::ShardState::kHealthy);
}

TEST(FaultToleranceTest, CrashInFinalDrainStrandingQueriesFailsThem) {
  // The same crash with queries pinned to shard 1 and still unflushed
  // in its batcher: the crash strands them, so they resolve with its
  // status and the shutdown reports it.
  constexpr int kPumps = 3;
  ShardFaultPlan plan;
  plan.target_shard = 1;
  plan.crash_at_seq = kPumps;
  ScriptedShardFaultInjector injector(plan);
  ServiceOptions options = FaultTestOptions(2);
  options.config.batch_size = 50;               // never fills
  options.config.batch_window_us = 60'000'000;  // never expires
  QueryService service(options);
  std::vector<QueryTicket> tickets =
      CrashShard1InFinalDrain(service, injector, /*routed_to=*/1, kPumps);
  EXPECT_EQ(service.Shutdown(QueryService::ShutdownMode::kDrain).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(injector.crash_fired());
  for (QueryTicket& t : tickets) {
    EXPECT_EQ(t.Wait().status.code(), StatusCode::kUnavailable)
        << t.Wait().keywords;
  }
}

// ---- spill-tier read retries (SpillManager satellite) ----

TEST(FaultToleranceTest, SpillReadRetryWaitsSurfaceInStats) {
  // Flaky (transient) spill reads are retried with jittered backoff;
  // each backoff sleep is counted in SpillStats::read_retry_waits —
  // proving the retry loop (not luck) delivered the intact restore.
  char tmpl[] = "/tmp/qsys_ft_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  Catalog catalog;
  TableSchema schema("t", {{"id", FieldType::kInt},
                           {"score", FieldType::kDouble}});
  schema.set_score_field(1);
  const TableId tid = catalog.AddTable(std::move(schema)).value();
  for (int i = 0; i < 4096; ++i) {
    ASSERT_TRUE(catalog.table(tid)
                    .AddRow({Value(int64_t{i}), Value(1.0 / (i + 1))})
                    .ok());
  }
  catalog.FinalizeAll();

  {
    // A 4-frame pool against a multi-page table: the demotion itself
    // evicts most pages, so the restore pulls them back through the
    // faulty pread path.
    auto opened = SpillManager::Open(dir, /*pool_frames=*/4);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<SpillManager> spill = std::move(opened).value();
    FaultPlan plan;
    plan.seed = 13;
    plan.read_error_p = 0.6;  // bounded at 2 consecutive, retry budget 4
    SeededFaultInjector injector(plan);
    spill->set_fault_injector(&injector);

    JoinHashTable table(&catalog);
    for (RowId i = 0; i < 2048; ++i) {
      CompositeTuple t = CompositeTuple::WithSlots(2);
      t.set_ref(0, {tid, i, 1.0 / (i + 1)});
      t.set_ref(1, {tid, (i * 3 + 1) % 4096, 0.25});
      t.RecomputeSum();
      table.Insert(/*epoch=*/static_cast<int>(i) * 3 / 2048, std::move(t));
    }
    ASSERT_TRUE(spill->SpillTable("flaky-disk", table).ok());

    JoinHashTable restored(&catalog);
    auto outcome = spill->RestoreTable("flaky-disk", &restored);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(restored.num_entries(), table.num_entries());
    // The injector fired, each retry attempt backed off before its
    // re-read, and the count reaches the exported stats surface.
    EXPECT_GT(injector.injected(SegmentFaultInjector::Op::kRead), 0);
    EXPECT_GT(spill->stats().read_retry_waits, 0);
  }
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace qsys
