// Tests for grafting (§6.2): operator reuse, state backfill, and the
// RecoverState recovery path — exercised through the QSystem facade with
// sequenced batches over the tiny dataset.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "tests/test_util.h"

namespace qsys {
namespace {

using ::qsys::testing::BuildTinyBioDataset;
using ::qsys::testing::FastTestConfig;

std::unique_ptr<QSystem> MakeSystem() {
  QConfig config = FastTestConfig();
  config.sharing = SharingConfig::kAtcFull;
  auto sys = std::make_unique<QSystem>(config);
  EXPECT_TRUE(BuildTinyBioDataset(*sys).ok());
  return sys;
}

TEST(GraftTest, SecondIdenticalQueryReusesOperatorsOrState) {
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->Pose("membrane gene", 1, 0).ok());
  ASSERT_TRUE(sys->Pose("membrane gene", 2, 4'000'000).ok());
  ASSERT_TRUE(sys->Run().ok());
  EXPECT_GT(sys->grafter().ops_reused() +
                sys->grafter().tuples_backfilled(),
            0);
}

TEST(GraftTest, RecoveryQueriesBuiltForLateOverlappingCq) {
  auto sys = MakeSystem();
  // First query reads term/gene streams; the refinement shares them and
  // must recover the buffered prefixes.
  ASSERT_TRUE(sys->Pose("membrane gene", 1, 0).ok());
  ASSERT_TRUE(sys->Pose("membrane gene", 2, 4'000'000).ok());
  ASSERT_TRUE(sys->Run().ok());
  // At least one recovery (identical CQs over fully-read streams).
  EXPECT_GE(sys->grafter().recoveries_built(), 1);
  // Both queries produced results.
  ASSERT_EQ(sys->metrics().size(), 2u);
  EXPECT_GT(sys->metrics()[0].results, 0);
  EXPECT_GT(sys->metrics()[1].results, 0);
}

TEST(GraftTest, RecoveredResultsMatchFreshExecution) {
  // The critical Algorithm-2 correctness check: a late query over
  // already-read streams returns exactly what a fresh system returns.
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->Pose("protein membrane", 1, 0).ok());
  auto late = sys->Pose("protein membrane", 2, 4'000'000);
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(sys->Run().ok());

  auto fresh = MakeSystem();
  auto baseline = fresh->Pose("protein membrane", 2, 0);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(fresh->Run().ok());

  const auto* got = sys->ResultsFor(late.value());
  const auto* want = fresh->ResultsFor(baseline.value());
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < got->size(); ++i) {
    EXPECT_NEAR((*got)[i].score, (*want)[i].score, 1e-9) << "rank " << i;
  }
}

TEST(GraftTest, NoDuplicateResultsAfterRecovery) {
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->Pose("membrane gene", 1, 0).ok());
  auto late = sys->Pose("membrane gene", 2, 4'000'000).value();
  ASSERT_TRUE(sys->Run().ok());
  const auto* results = sys->ResultsFor(late);
  ASSERT_NE(results, nullptr);
  // A recovered query must not emit the same base-tuple combination
  // twice (the epoch partitioning guarantees this).
  std::multiset<uint64_t> identities;
  for (const ResultTuple& r : *results) {
    identities.insert(r.tuple.IdentityHash() ^
                      static_cast<uint64_t>(r.cq_id) * 0x9e3779b9ull);
  }
  for (uint64_t id : identities) {
    EXPECT_EQ(identities.count(id), 1u);
  }
}

TEST(GraftTest, BudgetCountsEveryModuleTableCopy) {
  // Two batches whose plans build different m-joins over one shared
  // stream: each m-join buffers its own copy of the stream's prefix,
  // and the memory budget must see every copy.
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->Pose("membrane gene", 1, 0).ok());
  ASSERT_TRUE(sys->Pose("membrane protein", 2, 4'000'000).ok());
  ASSERT_TRUE(sys->Run().ok());

  int64_t table_bytes = 0;
  std::map<std::string, int> copies;
  for (int i = 0; i < sys->num_atcs(); ++i) {
    for (const auto& [sig, ops] :
         sys->atc(i).graph().mjoins_by_signature()) {
      for (const MJoinOp* op : ops) {
        table_bytes += op->StateSizeBytes();
        for (int p = 0; p < op->num_modules(); ++p) {
          if (op->module_is_stream(p)) {
            ++copies[op->module_expr(p).Signature()];
          }
        }
      }
    }
  }
  int most_copies = 0;
  for (const auto& [sig, n] : copies) most_copies = std::max(most_copies, n);
  ASSERT_GE(most_copies, 2) << "no stream signature has two m-join copies";

  int64_t probe_bytes = 0;
  for (const auto& probe : sys->engine().sources().probes()) {
    probe_bytes += probe->CacheSizeBytes();
  }
  EXPECT_EQ(sys->state_manager().TotalCacheBytes(),
            table_bytes + probe_bytes);
}

TEST(GraftTest, EpochAdvancesPerBatch) {
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->Pose("membrane gene", 1, 0).ok());
  ASSERT_TRUE(sys->Pose("protein metabolism", 2, 4'000'000).ok());
  ASSERT_TRUE(sys->Pose("gene transport", 3, 8'000'000).ok());
  ASSERT_TRUE(sys->Run().ok());
  ASSERT_EQ(sys->num_atcs(), 1);
  // Three single-query batches -> epoch bumped three times.
  EXPECT_EQ(sys->atc(0).epoch(), 3);
}

}  // namespace
}  // namespace qsys
