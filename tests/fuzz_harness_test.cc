// Differential fuzz harness over the serving stack (src/sim/).
//
// Every generated scenario — seeded workload subset, arrival
// permutation, wave schedule, shard/thread counts, spill on/off,
// mid-run budget drops — must produce per-query answers byte-equivalent
// to the single-shard oracle. A failing sweep seed shrinks itself to a
// minimal reproducer and prints it as a one-line scenario string;
// paste that line into a Scenario::Parse regression test (see
// SequenceMetabolismSeed7WarmRepeatSpillOn below, the first bug this
// harness was built to pin).
//
// Sweep scaling (all optional):
//   QSYS_FUZZ_SCENARIOS   seeds to sweep (default 6; fuzz_smoke uses 30)
//   QSYS_FUZZ_SEED_BASE   first seed (default 1)
//   QSYS_FAULT_SCENARIOS  fault-sweep seeds (default 6; fault_sweep: 60)
//   QSYS_FAULT_SEED_BASE  first fault-sweep seed (default 1)

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "src/buffer/fault_injection.h"
#include "src/sim/runner.h"
#include "src/sim/scenario.h"
#include "src/sim/shrink.h"

namespace qsys::sim {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

// ---- the scenario language ----

TEST(FuzzHarnessTest, ScenarioStringRoundTrips) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Scenario s = GenerateScenario(seed);
    auto parsed = Scenario::Parse(s.ToString());
    ASSERT_TRUE(parsed.ok()) << s.ToString() << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed.value().ToString(), s.ToString());
    // The fault-augmented twin round-trips too, and shares the base
    // shape byte-for-byte (the fault draws use a separate stream).
    Scenario f = GenerateFaultScenario(seed);
    ASSERT_NE(f.fault, Scenario::Fault::kNone);
    auto fparsed = Scenario::Parse(f.ToString());
    ASSERT_TRUE(fparsed.ok()) << f.ToString() << ": "
                              << fparsed.status().ToString();
    EXPECT_EQ(fparsed.value().ToString(), f.ToString());
    f.fault = Scenario::Fault::kNone;
    EXPECT_EQ(f.ToString(), s.ToString()) << "seed " << seed;
  }
  // The documented example line parses.
  auto example = Scenario::Parse(
      "sim1 wseed=7 wn=10 order=0,1,2 waves=2,1 shards=1 threads=1 "
      "spill=1 budget=65536 drop=32768@0");
  ASSERT_TRUE(example.ok()) << example.status().ToString();
  EXPECT_EQ(example.value().NumQueries(), 3);
  EXPECT_EQ(example.value().drop_after_wave, 0);
  // Reproducers pinned while shards could own data partitions carry a
  // place= token; it still parses and is ignored.
  auto legacy = Scenario::Parse(
      "sim1 wseed=7 wn=10 order=0,1,2 waves=2,1 shards=1 threads=1 "
      "spill=1 place=1 budget=65536 drop=32768@0");
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy.value().ToString(), example.value().ToString());
}

TEST(FuzzHarnessTest, ParseRejectsInconsistentScenarios) {
  const char* bad[] = {
      "",
      "not a scenario",
      // waves don't sum to the order length
      "sim1 wseed=7 wn=4 order=0,1 waves=3 shards=1 threads=1 spill=0 "
      "budget=0 drop=0@-1",
      // order index outside the workload
      "sim1 wseed=7 wn=4 order=0,9 waves=2 shards=1 threads=1 spill=0 "
      "budget=0 drop=0@-1",
      // zero shards
      "sim1 wseed=7 wn=4 order=0,1 waves=2 shards=0 threads=1 spill=0 "
      "budget=0 drop=0@-1",
      // drop wave beyond the schedule
      "sim1 wseed=7 wn=4 order=0,1 waves=2 shards=1 threads=1 spill=0 "
      "budget=0 drop=5@7",
      // missing field
      "sim1 wseed=7 wn=4 order=0,1 waves=2 shards=1 threads=1 spill=0 "
      "budget=0",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Scenario::Parse(text).ok()) << text;
  }
}

TEST(FuzzHarnessTest, GenerateScenarioIsDeterministicAndVaried) {
  std::set<std::string> shapes;
  bool saw_repeat = false, saw_drop = false, saw_multiwave = false;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const Scenario a = GenerateScenario(seed);
    const Scenario b = GenerateScenario(seed);
    EXPECT_EQ(a.ToString(), b.ToString()) << "seed " << seed;
    // Everything generated is self-consistent (round-trips validation).
    ASSERT_TRUE(Scenario::Parse(a.ToString()).ok()) << a.ToString();
    shapes.insert(a.ShapeKey());
    saw_repeat = saw_repeat ||
                 a.ShapeKey().find("/repeat") != std::string::npos;
    saw_drop = saw_drop || a.drop_after_wave >= 0;
    saw_multiwave = saw_multiwave || a.waves.size() > 1;
  }
  // The generator actually explores the space.
  EXPECT_GT(shapes.size(), 15u);
  EXPECT_TRUE(saw_repeat);
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_multiwave);
}

// ---- the named regression ----

// "Sequence metabolism": repeating the seed-7 GUS wave under a 64 KiB
// budget *with the spill tier attached* used to diverge on the warm
// repeat — a reused operator re-registered a shrunken table over a
// fuller spilled copy, and the graft backfilled from the thinner live
// prefix instead of restoring. Fixed in the graft backfill, now
// StateManager::BackfillModuleTable (restore wins whenever the disk
// copy holds more entries than the fullest live table). This pin is the harness's reason to exist: the
// exact failing shape, checked against the oracle forever.
TEST(FuzzHarnessTest, SequenceMetabolismSeed7WarmRepeatSpillOn) {
  Scenario s;
  s.workload_seed = 7;
  s.workload_size = 10;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (int i = 0; i < 10; ++i) s.order.push_back(i);
  }
  s.waves = {10, 10};
  s.shards = 1;
  s.exec_threads = 1;
  s.spill = true;
  s.budget_bytes = 64 << 10;
  ASSERT_TRUE(s.CheckedForEquivalence());

  Oracle oracle;
  RunOutcome outcome;
  auto divergence = CheckScenario(s, oracle, {}, &outcome);
  EXPECT_FALSE(divergence.has_value())
      << divergence->ToString() << "\n  replay: " << s.ToString();
  // The budget actually bit: state was demoted to disk mid-run.
  EXPECT_GT(outcome.spill.items_spilled, 0);
}

// ---- the shrinker ----

// Plant a known bug (the sim layer corrupts every fingerprint completed
// in wave >= 1) and assert the shrinker converges to the smallest shape
// that can express it — two queries in two waves, no shards, no
// threads, no memory pressure — deterministically.
TEST(FuzzHarnessTest, ShrinkerConvergesOnPlantedBug) {
  Scenario s;
  s.workload_seed = 7;
  s.workload_size = 6;
  s.order = {0, 1, 2, 3};
  s.waves = {2, 2};
  s.shards = 2;
  s.exec_threads = 2;
  s.spill = false;
  s.budget_bytes = 0;

  Oracle oracle;
  SimOptions planted;
  planted.planted_warm_wave_bug = true;
  auto fails = [&](const Scenario& candidate) {
    return CheckScenario(candidate, oracle, planted).has_value();
  };
  ASSERT_TRUE(fails(s)) << "the planted bug must fail the full scenario";

  int runs_a = 0;
  Scenario minimal = ShrinkScenario(s, fails, /*max_runs=*/60, &runs_a);
  EXPECT_LE(minimal.NumQueries(), 2) << minimal.ToString();
  EXPECT_LE(minimal.waves.size(), 2u) << minimal.ToString();
  EXPECT_EQ(minimal.shards, 1) << minimal.ToString();
  EXPECT_EQ(minimal.exec_threads, 1) << minimal.ToString();
  // The result provably still reproduces.
  EXPECT_TRUE(fails(minimal));
  // And the reduction is deterministic: same failing input, same
  // reproducer, same run count.
  int runs_b = 0;
  Scenario again = ShrinkScenario(s, fails, /*max_runs=*/60, &runs_b);
  EXPECT_EQ(minimal.ToString(), again.ToString());
  EXPECT_EQ(runs_a, runs_b);
}

// ---- fault injection through whole scenarios ----

// Injected spill I/O faults (failed opens, ENOSPC storms, flaky reads,
// short transfers) may change *counters*, never *answers*: every
// checked scenario stays byte-equivalent to the oracle while the
// spill_faults gauge records what was survived.
TEST(FuzzHarnessTest, InjectedSpillFaultsNeverChangeAnswers) {
  Oracle oracle;
  int64_t faults_survived = 0;
  int64_t spilled = 0;
  for (uint64_t seed : {11u, 12u, 13u}) {
    Scenario s = GenerateScenario(seed);
    // Force the spill tier on under a tight budget so demotions (and
    // faults) actually happen, whatever the seed generated.
    s.spill = true;
    s.budget_bytes = 64 << 10;
    ASSERT_TRUE(s.CheckedForEquivalence());

    FaultPlan plan;
    plan.seed = seed;
    plan.open_fail_p = 0.05;
    plan.write_error_p = 0.3;
    plan.write_short_p = 0.2;
    plan.read_error_p = 0.3;
    plan.read_short_p = 0.2;
    SeededFaultInjector injector(plan);
    SimOptions options;
    options.injector = &injector;

    RunOutcome outcome;
    auto divergence = CheckScenario(s, oracle, options, &outcome);
    EXPECT_FALSE(divergence.has_value())
        << divergence->ToString() << "\n  replay (fault seed " << seed
        << "): " << s.ToString();
    faults_survived += outcome.spill.spill_faults;
    spilled += outcome.spill.items_spilled;
  }
  // The sweep exercised the degradation paths, not just clean I/O.
  EXPECT_GT(spilled, 0);
  EXPECT_GT(faults_survived, 0);
}

// ---- the seed sweep ----

// The acceptance sweep: generated scenarios vs the oracle, scaled by
// QSYS_FUZZ_SCENARIOS. Any divergence shrinks itself and reports the
// minimal reproducer as a replayable scenario line.
TEST(FuzzHarnessTest, SeedSweepFindsNoDivergence) {
  const int scenarios = EnvInt("QSYS_FUZZ_SCENARIOS", 6);
  const int seed_base = EnvInt("QSYS_FUZZ_SEED_BASE", 1);
  Oracle oracle;
  std::set<std::string> shapes;
  int checked = 0;
  for (int i = 0; i < scenarios; ++i) {
    const uint64_t seed = static_cast<uint64_t>(seed_base + i);
    Scenario s = GenerateScenario(seed);
    shapes.insert(s.ShapeKey());
    if (s.CheckedForEquivalence()) ++checked;
    auto divergence = CheckScenario(s, oracle);
    if (!divergence.has_value()) continue;
    auto fails = [&](const Scenario& candidate) {
      return CheckScenario(candidate, oracle).has_value();
    };
    int shrink_runs = 0;
    Scenario minimal = ShrinkScenario(s, fails, /*max_runs=*/60,
                                      &shrink_runs);
    ADD_FAILURE() << "seed " << seed << " diverged: "
                  << divergence->ToString()
                  << "\n  scenario: " << s.ToString()
                  << "\n  minimal reproducer (" << shrink_runs
                  << " shrink runs): " << minimal.ToString();
  }
  // The sweep must actually check answers, not just survive runs.
  EXPECT_GT(checked, 0);
  EXPECT_GE(static_cast<int>(shapes.size()), scenarios > 4 ? 3 : 1);
}

// ---- the fault sweep ----

// The fault-tolerance acceptance sweep (the `fault_sweep` ctest target
// runs it at 60 seeds): every generated scenario re-runs with a
// scripted shard crash or stall injected. The invariants CheckScenario
// enforces per position:
//   * zero hangs — every run completes inside the pump bound and every
//     ticket resolves terminally;
//   * every OK answer stays byte-equivalent to the oracle, even when
//     it was retried onto another shard;
//   * the counter surface conserves (submitted == resolved) and agrees
//     between ServiceCounters and the Prometheus export.
TEST(FuzzHarnessTest, FaultSweepFindsNoUnflaggedDivergence) {
  const int scenarios = EnvInt("QSYS_FAULT_SCENARIOS", 6);
  const int seed_base = EnvInt("QSYS_FAULT_SEED_BASE", 1);
  Oracle oracle;
  std::set<std::string> shapes;
  bool saw_crash = false, saw_stall = false;
  int64_t retries = 0, restarts = 0, deadline = 0;
  for (int i = 0; i < scenarios; ++i) {
    const uint64_t seed = static_cast<uint64_t>(seed_base + i);
    Scenario s = GenerateFaultScenario(seed);
    shapes.insert(s.ShapeKey());
    saw_crash = saw_crash || s.fault == Scenario::Fault::kCrash;
    saw_stall = saw_stall || s.fault == Scenario::Fault::kStall;
    RunOutcome outcome;
    auto divergence = CheckScenario(s, oracle, {}, &outcome);
    retries += outcome.retries;
    restarts += outcome.shard_restarts;
    deadline += outcome.deadline_exceeded;
    if (!divergence.has_value()) continue;
    auto fails = [&](const Scenario& candidate) {
      return CheckScenario(candidate, oracle).has_value();
    };
    int shrink_runs = 0;
    Scenario minimal = ShrinkScenario(s, fails, /*max_runs=*/60,
                                      &shrink_runs);
    ADD_FAILURE() << "fault seed " << seed << " diverged: "
                  << divergence->ToString()
                  << "\n  scenario: " << s.ToString()
                  << "\n  minimal reproducer (" << shrink_runs
                  << " shrink runs): " << minimal.ToString();
  }
  // Both fault kinds swept, and the fault-tolerance machinery actually
  // engaged — faults that never fire would pass vacuously.
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_stall);
  EXPECT_GT(retries + restarts + deadline, 0)
      << "no injected fault ever engaged the recovery paths";
}

}  // namespace
}  // namespace qsys::sim
