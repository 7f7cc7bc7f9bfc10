// Tests of the serving benchmark's own arithmetic (measure.h): the
// censored percentiles, span self time, and seed determinism of the
// arrival schedule and the query draw.

#include <gtest/gtest.h>

#include "servebench/measure.h"

namespace qsys::servebench {
namespace {

std::vector<LatencySample> Samples(int ok, int failed, double value) {
  std::vector<LatencySample> out;
  for (int i = 0; i < ok; ++i) out.push_back({true, value + i});
  for (int i = 0; i < failed; ++i) out.push_back({false, 1.0});
  return out;
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  EXPECT_EQ(MinSamplesForPercentile(50), 20);
  EXPECT_EQ(MinSamplesForPercentile(90), 100);
  EXPECT_EQ(MinSamplesForPercentile(99), 1000);

  std::vector<double> v(99, 1.0);
  EXPECT_FALSE(Percentile(v, 90).has_value());
  EXPECT_TRUE(Percentile(v, 50).has_value());
  v.push_back(1.0);
  EXPECT_TRUE(Percentile(v, 90).has_value());
  EXPECT_FALSE(Percentile(std::vector<double>(19, 1.0), 50).has_value());
  EXPECT_FALSE(Percentile({}, 50).has_value());
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(*Percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(*Percentile(v, 90), 90.0);
  v.push_back(101);
  EXPECT_DOUBLE_EQ(*Percentile(v, 50), 51.0);  // ceil(0.5 * 101) = 51
  EXPECT_DOUBLE_EQ(*Percentile(v, 90), 91.0);  // ceil(0.9 * 101) = 91
  // Without the ten-beyond rule (per-layer metrics).
  EXPECT_DOUBLE_EQ(NearestRank({3, 1, 2}, 50), 2.0);
  EXPECT_DOUBLE_EQ(NearestRank({3, 1, 2}, 100), 3.0);
  EXPECT_DOUBLE_EQ(NearestRank({}, 90), 0.0);
}

TEST(PercentileTest, FailuresCountAsTwiceTheLimit) {
  const double limit = 10'000.0;
  // 85 answered at 1..85 ms, 15 failed: p50 is an answered latency, p90
  // lands on a failure and reads 2 * limit.
  const std::vector<double> c = Censor(Samples(85, 15, 1.0), limit);
  ASSERT_EQ(c.size(), 100u);
  EXPECT_DOUBLE_EQ(*Percentile(c, 50), 50.0);
  EXPECT_DOUBLE_EQ(*Percentile(c, 90), 2 * limit);
  // 91 answered: p90 is the 90th answered latency.
  const std::vector<double> d = Censor(Samples(91, 9, 1.0), limit);
  EXPECT_DOUBLE_EQ(*Percentile(d, 90), 90.0);
  // The failure's own (fast) resolution time never shows.
  const std::vector<double> all_failed = Censor(Samples(0, 20, 1.0), limit);
  EXPECT_DOUBLE_EQ(*Percentile(all_failed, 50), 2 * limit);
}

TEST(SelfTimeTest, NoChildren) {
  EXPECT_EQ(SelfTime({100, 200}, {}), 100);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Two parallel ATC drains [110, 160) and [120, 170) cover [110, 170):
  // 60 us of the 100 us parent, not 100.
  EXPECT_EQ(SelfTime({100, 200}, {{110, 160}, {120, 170}}), 40);
  // Nested and identical children.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 90}, {20, 30}, {10, 90}}), 20);
}

TEST(SelfTimeTest, ChildrenClippedToParent) {
  EXPECT_EQ(SelfTime({100, 200}, {{50, 120}, {180, 300}}), 60);
  EXPECT_EQ(SelfTime({100, 200}, {{0, 50}, {250, 300}}), 100);
  EXPECT_EQ(SelfTime({100, 200}, {{0, 300}}), 0);
}

TEST(SelfTimeTest, UnionLength) {
  EXPECT_EQ(UnionLength({}), 0);
  EXPECT_EQ(UnionLength({{0, 10}, {20, 30}}), 20);
  EXPECT_EQ(UnionLength({{20, 30}, {0, 10}, {5, 25}}), 30);
  EXPECT_EQ(UnionLength({{0, 10}, {10, 20}}), 20);  // touching
  EXPECT_EQ(UnionLength({{5, 5}, {7, 3}}), 0);      // empty / inverted
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  const std::vector<double> a = ArrivalSchedule(7, 100, 4.0);
  EXPECT_EQ(a, ArrivalSchedule(7, 100, 4.0));
  EXPECT_NE(a, ArrivalSchedule(8, 100, 4.0));
  ASSERT_EQ(a.size(), 100u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 25.0);  // 100 queries at 4/s fill [0, 25 s)
  EXPECT_GT(a.back(), 20.0);
}

TEST(ScheduleTest, BurstIsDueAtOnce) {
  const std::vector<double> b = ArrivalSchedule(7, 20, 0.0);
  ASSERT_EQ(b.size(), 20u);
  for (double t : b) EXPECT_EQ(t, 0.0);
}

TEST(QueryDrawTest, SameSeedSameQueries) {
  CandidateGenOptions gen;
  gen.max_cqs = 4;
  const auto render = [&](uint64_t seed) {
    std::vector<std::string> out;
    for (const WorkloadQuery& q :
         DrawQueries(BioVocabulary(), seed, 50, gen, true)) {
      out.push_back(std::to_string(q.user_id) + "|" + q.keywords + "|" +
                    std::to_string(q.options.max_cqs) + "|" +
                    std::to_string(static_cast<int>(q.options.score_model)));
    }
    return out;
  };
  const std::vector<std::string> a = render(11);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_EQ(a, render(11));
  EXPECT_NE(a, render(12));
  EXPECT_NE(a[0].find("|4|"), std::string::npos);
}

TEST(QueryDrawTest, OneScoreModelKeepsTheKeywords) {
  CandidateGenOptions gen;
  const std::vector<WorkloadQuery> mixed =
      DrawQueries(BioVocabulary(), 5, 30, gen, true);
  const std::vector<WorkloadQuery> one =
      DrawQueries(BioVocabulary(), 5, 30, gen, false);
  ASSERT_EQ(mixed.size(), one.size());
  bool models_differ = false;
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(mixed[i].keywords, one[i].keywords);
    EXPECT_EQ(mixed[i].user_id, one[i].user_id);
    EXPECT_EQ(one[i].options.score_model, ScoreModel::kQSystem);
    models_differ |= mixed[i].options.score_model != ScoreModel::kQSystem;
  }
  EXPECT_TRUE(models_differ);
}

}  // namespace
}  // namespace qsys::servebench
