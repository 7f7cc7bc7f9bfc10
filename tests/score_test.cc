// Unit + property tests for the scoring models (§2.1): values, bounds,
// and the monotonicity every model must satisfy for threshold-based
// top-k termination to be sound.

#include <gtest/gtest.h>

#include <ostream>

#include "src/query/score.h"

namespace qsys {
namespace {

TEST(ScoreTest, DiscoverSizeIsStatic) {
  ScoreFunction f = ScoreFunction::DiscoverSize(4);
  EXPECT_DOUBLE_EQ(f.Score(0.0), 0.25);
  EXPECT_DOUBLE_EQ(f.Score(3.0), 0.25);
}

TEST(ScoreTest, DiscoverSumAverages) {
  ScoreFunction f = ScoreFunction::DiscoverSum(4);
  EXPECT_DOUBLE_EQ(f.Score(2.0), 0.5);
  EXPECT_DOUBLE_EQ(f.Score(4.0), 1.0);
}

TEST(ScoreTest, QSystemExponential) {
  // c = static + (size - sum); C = 2^-c.
  ScoreFunction f = ScoreFunction::QSystem(/*static_cost=*/1.0,
                                           /*size=*/2);
  // Perfect base scores: c = 1 + 0 = 1 -> 0.5.
  EXPECT_DOUBLE_EQ(f.Score(2.0), 0.5);
  // Zero base scores: c = 1 + 2 = 3 -> 0.125.
  EXPECT_DOUBLE_EQ(f.Score(0.0), 0.125);
}

TEST(ScoreTest, BanksLikeLinear) {
  ScoreFunction f = ScoreFunction::BanksLike(/*alpha=*/0.5,
                                             /*static_part=*/0.2);
  EXPECT_DOUBLE_EQ(f.Score(2.0), 1.2);
}

TEST(ScoreTest, ModelNames) {
  EXPECT_STREQ(ScoreModelName(ScoreModel::kQSystem), "q-system");
  EXPECT_STREQ(ScoreModelName(ScoreModel::kDiscoverSize),
               "discover-size");
}

TEST(ScoreTest, ToStringMentionsModel) {
  EXPECT_NE(ScoreFunction::QSystem(1.0, 3).ToString().find("q-system"),
            std::string::npos);
}

// ---- property sweep: monotonicity in the base-score sum ----
// This is the property U(C) and all thresholds rely on (§3).

struct ScoreCase {
  const char* name;
  ScoreFunction fn;
};

// Print a case by name. The default byte dump includes the address of
// `name`, which would change the listed test IDs on every build.
void PrintTo(const ScoreCase& c, std::ostream* os) { *os << c.name; }

class ScoreMonotonicityTest : public ::testing::TestWithParam<ScoreCase> {};

TEST_P(ScoreMonotonicityTest, NondecreasingInSum) {
  const ScoreFunction& f = GetParam().fn;
  double prev = f.Score(0.0);
  for (int i = 1; i <= 200; ++i) {
    double sum = 0.05 * i;
    double cur = f.Score(sum);
    EXPECT_GE(cur, prev - 1e-12) << "at sum=" << sum;
    prev = cur;
  }
}

TEST_P(ScoreMonotonicityTest, UpperBoundDominates) {
  const ScoreFunction& f = GetParam().fn;
  const double max_sum = 5.0;
  double bound = f.Score(max_sum);
  for (int i = 0; i <= 100; ++i) {
    double sum = max_sum * i / 100.0;
    EXPECT_LE(f.Score(sum), bound + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ScoreMonotonicityTest,
    ::testing::Values(
        ScoreCase{"discover_size", ScoreFunction::DiscoverSize(3)},
        ScoreCase{"discover_sum", ScoreFunction::DiscoverSum(3)},
        ScoreCase{"qsystem_cheap", ScoreFunction::QSystem(0.5, 3)},
        ScoreCase{"qsystem_costly", ScoreFunction::QSystem(4.0, 5)},
        ScoreCase{"banks", ScoreFunction::BanksLike(0.7, 0.1)}),
    [](const ::testing::TestParamInfo<ScoreCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace qsys
