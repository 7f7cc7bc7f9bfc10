// Facade-level tests for QSystem: lifecycle preconditions, configuration
// knobs (k, batching, adaptivity, eviction, temporal reuse), per-user
// scoring, discrete-event timeline behavior, and parallel ATC drains.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/workload/bio_terms.h"
#include "src/workload/gus.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

using ::qsys::testing::BuildTinyBioDataset;
using ::qsys::testing::FastTestConfig;

TEST(QSystemLifecycle, PoseBeforeFinalizeFails) {
  QSystem sys(FastTestConfig());
  auto uq = sys.Pose("anything", 1, 0);
  EXPECT_EQ(uq.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sys.Run().code(), StatusCode::kFailedPrecondition);
}

TEST(QSystemLifecycle, FinalizeRequiresSchemaGraph) {
  QSystem sys(FastTestConfig());
  EXPECT_EQ(sys.FinalizeCatalog().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QSystemLifecycle, FinalizeIsIdempotent) {
  QSystem sys(FastTestConfig());
  ASSERT_TRUE(BuildTinyBioDataset(sys).ok());
  EXPECT_TRUE(sys.FinalizeCatalog().ok());  // second call is a no-op
}

TEST(QSystemLifecycle, RunWithNoQueriesSucceeds) {
  QSystem sys(FastTestConfig());
  ASSERT_TRUE(BuildTinyBioDataset(sys).ok());
  EXPECT_TRUE(sys.Run().ok());
  EXPECT_TRUE(sys.metrics().empty());
  EXPECT_EQ(sys.num_atcs(), 0);
}

TEST(QSystemConfig, KControlsResultCount) {
  for (int k : {1, 3, 8}) {
    QConfig config = FastTestConfig();
    config.k = k;
    QSystem sys(config);
    ASSERT_TRUE(BuildTinyBioDataset(sys).ok());
    auto uq = sys.Pose("membrane gene", 1, 0);
    ASSERT_TRUE(uq.ok());
    ASSERT_TRUE(sys.Run().ok());
    const auto* results = sys.ResultsFor(uq.value());
    ASSERT_NE(results, nullptr);
    EXPECT_LE(static_cast<int>(results->size()), k);
    if (k <= 3) EXPECT_EQ(static_cast<int>(results->size()), k);
  }
}

TEST(QSystemConfig, LargerKIsPrefixConsistent) {
  // The top-3 of a k=8 run must equal the k=3 run's results.
  auto run = [](int k) {
    QConfig config = FastTestConfig();
    config.k = k;
    auto sys = std::make_unique<QSystem>(config);
    EXPECT_TRUE(BuildTinyBioDataset(*sys).ok());
    auto uq = sys->Pose("membrane gene", 1, 0);
    EXPECT_TRUE(uq.ok());
    EXPECT_TRUE(sys->Run().ok());
    std::vector<double> scores;
    for (const ResultTuple& r : *sys->ResultsFor(uq.value())) {
      scores.push_back(r.score);
    }
    return scores;
  };
  std::vector<double> small = run(3);
  std::vector<double> large = run(8);
  ASSERT_GE(large.size(), small.size());
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_NEAR(small[i], large[i], 1e-9) << "rank " << i;
  }
}

TEST(QSystemConfig, PerUserScoreModelsApply) {
  QSystem sys(FastTestConfig());
  ASSERT_TRUE(BuildTinyBioDataset(sys).ok());
  CandidateGenOptions discover;
  discover.score_model = ScoreModel::kDiscoverSum;
  CandidateGenOptions qmodel;
  qmodel.score_model = ScoreModel::kQSystem;
  auto a = sys.Pose("membrane gene", 1, 0, &discover);
  auto b = sys.Pose("membrane gene", 2, 1'000'000, &qmodel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(sys.Run().ok());
  EXPECT_EQ(sys.GetUserQuery(a.value())->cqs[0].score_fn.model(),
            ScoreModel::kDiscoverSum);
  EXPECT_EQ(sys.GetUserQuery(b.value())->cqs[0].score_fn.model(),
            ScoreModel::kQSystem);
  // Different score functions, both answered.
  EXPECT_EQ(sys.metrics().size(), 2u);
}

TEST(QSystemConfig, MaxRoundsGuardTrips) {
  QConfig config = FastTestConfig();
  config.max_rounds = 1;
  QSystem sys(config);
  ASSERT_TRUE(BuildTinyBioDataset(sys).ok());
  ASSERT_TRUE(sys.Pose("membrane gene", 1, 0).ok());
  EXPECT_EQ(sys.Run().code(), StatusCode::kResourceExhausted);
}

TEST(QSystemConfig, AdaptiveFlagPreservesResults) {
  std::vector<double> scores[2];
  int i = 0;
  for (bool adaptive : {true, false}) {
    QConfig config = FastTestConfig();
    config.adaptive_probing = adaptive;
    QSystem sys(config);
    ASSERT_TRUE(BuildTinyBioDataset(sys).ok());
    auto uq = sys.Pose("protein membrane", 1, 0);
    ASSERT_TRUE(uq.ok());
    ASSERT_TRUE(sys.Run().ok());
    for (const ResultTuple& r : *sys.ResultsFor(uq.value())) {
      scores[i].push_back(r.score);
    }
    ++i;
  }
  ASSERT_EQ(scores[0].size(), scores[1].size());
  for (size_t r = 0; r < scores[0].size(); ++r) {
    EXPECT_NEAR(scores[0][r], scores[1][r], 1e-9);
  }
}

TEST(QSystemConfig, TemporalReuseOffIsolatesQueries) {
  auto run = [](bool reuse) {
    QConfig config = FastTestConfig();
    config.temporal_reuse = reuse;
    auto sys = std::make_unique<QSystem>(config);
    EXPECT_TRUE(BuildTinyBioDataset(*sys).ok());
    EXPECT_TRUE(sys->Pose("membrane gene", 1, 0).ok());
    EXPECT_TRUE(sys->Pose("membrane gene", 2, 5'000'000).ok());
    EXPECT_TRUE(sys->Run().ok());
    return sys->aggregate_stats().tuples_streamed;
  };
  int64_t with_reuse = run(true);
  int64_t without = run(false);
  // Isolation re-reads what reuse would have recovered.
  EXPECT_GT(without, with_reuse);
}

TEST(QSystemConfig, TightBudgetStillAnswersCorrectly) {
  QConfig config = FastTestConfig();
  config.memory_budget_bytes = 1 << 10;  // 1 KiB: constant pressure
  QSystem sys(config);
  ASSERT_TRUE(BuildTinyBioDataset(sys).ok());
  auto a = sys.Pose("membrane gene", 1, 0);
  auto b = sys.Pose("membrane gene", 2, 5'000'000);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(sys.Run().ok());
  ASSERT_EQ(sys.metrics().size(), 2u);
  // Under pressure the second query may recompute, but answers match a
  // fresh system.
  QSystem fresh(FastTestConfig());
  ASSERT_TRUE(BuildTinyBioDataset(fresh).ok());
  auto base = fresh.Pose("membrane gene", 1, 0);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(fresh.Run().ok());
  const auto* got = sys.ResultsFor(b.value());
  const auto* want = fresh.ResultsFor(base.value());
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < got->size(); ++i) {
    EXPECT_NEAR((*got)[i].score, (*want)[i].score, 1e-9);
  }
}

TEST(QSystemTimeline, ArrivalOrderIndependentOfPoseOrder) {
  // Posing queries out of submission order must not change outcomes:
  // Run() sorts arrivals by time.
  auto run = [](bool reversed) {
    QSystem sys(FastTestConfig());
    EXPECT_TRUE(BuildTinyBioDataset(sys).ok());
    std::vector<std::pair<std::string, VirtualTime>> poses = {
        {"membrane gene", 0}, {"protein membrane", 4'000'000}};
    if (reversed) std::swap(poses[0], poses[1]);
    for (auto& [kw, t] : poses) {
      EXPECT_TRUE(sys.Pose(kw, 1, t).ok());
    }
    EXPECT_TRUE(sys.Run().ok());
    return sys.aggregate_stats().tuples_streamed;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(QSystemTimeline, MetricsTimestampsAreConsistent) {
  QSystem sys(FastTestConfig());
  ASSERT_TRUE(BuildTinyBioDataset(sys).ok());
  ASSERT_TRUE(sys.Pose("membrane gene", 1, 2'000'000).ok());
  ASSERT_TRUE(sys.Run().ok());
  const UserQueryMetrics& m = sys.metrics()[0];
  EXPECT_GE(m.start_time_us, m.submit_time_us);
  EXPECT_GE(m.complete_time_us, m.start_time_us);
  EXPECT_GE(m.LatencySeconds(), m.RunningSeconds());
}

TEST(QSystemTimeline, ClusteredConfigRespectsGraphCap) {
  QConfig config = FastTestConfig();
  config.sharing = SharingConfig::kAtcCl;
  config.clustering.max_plan_graphs = 2;
  QSystem sys(config);
  ASSERT_TRUE(BuildTinyBioDataset(sys).ok());
  const char* kws[] = {"membrane gene", "protein membrane",
                       "metabolism protein", "gene transport"};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sys.Pose(kws[i], 1 + i, i * 2'000'000).ok());
  }
  ASSERT_TRUE(sys.Run().ok());
  EXPECT_LE(sys.num_atcs(), 2);
  EXPECT_EQ(sys.metrics().size(), 4u);
}

// The simulator drains its ATCs on the same AtcScheduler pool as the
// serving layer. Under clustered sharing an engine runs several
// independent ATCs, so with exec_threads > 1 their rounds really run
// concurrently; every query's timeline, work and answers must still
// come out identical.
TEST(QSystemParallelAtcs, ExecThreadsLeaveEveryQueryUnchanged) {
  struct SimRun {
    std::vector<UserQueryMetrics> metrics;
    std::vector<std::string> fingerprints;
    ExecStats stats;
    int num_atcs = 0;
  };
  auto simulate = [](int exec_threads) {
    QConfig config;
    config.sharing = SharingConfig::kAtcCl;
    config.k = 50;
    config.batch_size = 5;
    config.max_rounds = 200'000'000;
    // Charge no measured optimizer wall time: virtual times then depend
    // on the inputs alone.
    config.opt_time_multiplier = 0;
    config.exec_threads = exec_threads;
    QSystem sys(config);
    GusOptions gus;
    gus.num_relations = 80;
    gus.min_rows = 60;
    gus.max_rows = 180;
    gus.seed = 3;
    EXPECT_TRUE(BuildGusDataset(sys, gus).ok());
    WorkloadOptions workload;
    workload.num_queries = 15;
    workload.seed = 7;
    for (const WorkloadQuery& q :
         GenerateBioWorkload(BioVocabulary(), workload)) {
      EXPECT_TRUE(
          sys.Pose(q.keywords, q.user_id, q.pose_time_us, &q.options).ok());
    }
    EXPECT_TRUE(sys.Run().ok());
    SimRun run;
    run.metrics = sys.metrics();
    for (const UserQueryMetrics& m : run.metrics) {
      const std::vector<ResultTuple>* results = sys.ResultsFor(m.uq_id);
      run.fingerprints.push_back(
          results != nullptr ? FingerprintResults(*results) : "");
    }
    run.stats = sys.aggregate_stats();
    run.num_atcs = sys.num_atcs();
    return run;
  };

  const SimRun serial = simulate(1);
  const SimRun parallel = simulate(3);
  EXPECT_GT(serial.num_atcs, 1);
  EXPECT_EQ(parallel.num_atcs, serial.num_atcs);
  ASSERT_FALSE(serial.metrics.empty());
  ASSERT_EQ(parallel.metrics.size(), serial.metrics.size());
  for (size_t i = 0; i < serial.metrics.size(); ++i) {
    const UserQueryMetrics& a = serial.metrics[i];
    const UserQueryMetrics& b = parallel.metrics[i];
    EXPECT_EQ(b.uq_id, a.uq_id);
    EXPECT_EQ(b.submit_time_us, a.submit_time_us) << "uq " << a.uq_id;
    EXPECT_EQ(b.start_time_us, a.start_time_us) << "uq " << a.uq_id;
    EXPECT_EQ(b.complete_time_us, a.complete_time_us) << "uq " << a.uq_id;
    EXPECT_EQ(b.cqs_executed, a.cqs_executed) << "uq " << a.uq_id;
    EXPECT_EQ(b.results, a.results) << "uq " << a.uq_id;
    EXPECT_EQ(b.tuples_from_shared, a.tuples_from_shared)
        << "uq " << a.uq_id;
    EXPECT_EQ(b.est_saved_us, a.est_saved_us) << "uq " << a.uq_id;
    EXPECT_EQ(parallel.fingerprints[i], serial.fingerprints[i])
        << "uq " << a.uq_id;
  }
  EXPECT_EQ(parallel.stats.tuples_streamed, serial.stats.tuples_streamed);
  EXPECT_EQ(parallel.stats.probes_issued, serial.stats.probes_issued);
  EXPECT_EQ(parallel.stats.join_probes, serial.stats.join_probes);
  EXPECT_EQ(parallel.stats.ExecTotalUs(), serial.stats.ExecTotalUs());
}

}  // namespace
}  // namespace qsys
