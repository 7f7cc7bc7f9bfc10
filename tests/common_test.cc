// Unit tests for the common substrate: Status/Result, Value, Rng
// samplers, VirtualClock, ExecStats.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/common/virtual_clock.h"

namespace qsys {
namespace {

// ---- Status / Result ----

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::NotFound("table foo");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "table foo");
  EXPECT_EQ(s.ToString(), "NotFound: table foo");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.value_or(7), 7);
}

Status FailingHelper() { return Status::InvalidArgument("nope"); }
Status UsesReturnIfError() {
  QSYS_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}
Result<int> ProducesValue() { return 9; }
Status UsesAssignOrReturn(int* out) {
  QSYS_ASSIGN_OR_RETURN(*out, ProducesValue());
  return Status::OK();
}

TEST(ResultTest, Macros) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kInvalidArgument);
  int out = 0;
  EXPECT_TRUE(UsesAssignOrReturn(&out).ok());
  EXPECT_EQ(out, 9);
}

// ---- Value ----

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  Value i(int64_t{5});
  EXPECT_EQ(i.type(), ValueType::kInt);
  EXPECT_EQ(i.AsInt(), 5);
  Value d(2.5);
  EXPECT_EQ(d.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 2.5);
  Value s("abc");
  EXPECT_EQ(s.type(), ValueType::kString);
  EXPECT_EQ(s.AsString(), "abc");
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(int64_t{3}), Value(int64_t{3}));
  EXPECT_NE(Value(int64_t{3}), Value(int64_t{4}));
  EXPECT_NE(Value(int64_t{3}), Value(3.0));  // different types
  EXPECT_LT(Value(int64_t{3}), Value(int64_t{4}));
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{77}).Hash(), Value(int64_t{77}).Hash());
  EXPECT_EQ(Value("xyz").Hash(), Value("xyz").Hash());
}

TEST(ValueTest, ToNumericWidens) {
  EXPECT_DOUBLE_EQ(Value(int64_t{4}).ToNumeric(), 4.0);
  EXPECT_DOUBLE_EQ(Value(0.25).ToNumeric(), 0.25);
  EXPECT_DOUBLE_EQ(Value("str").ToNumeric(), 0.0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{12}).ToString(), "12");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value().ToString(), "NULL");
}

// ---- Rng ----

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, ForkIndependence) {
  Rng a(123);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextUint(10);
    EXPECT_LT(v, 10u);
    int64_t w = rng.NextInt(-3, 3);
    EXPECT_GE(w, -3);
    EXPECT_LE(w, 3);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfSkew) {
  Rng rng(7);
  std::map<uint64_t, int> counts;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) counts[rng.NextZipf(100, 1.0)]++;
  // Rank 0 must dominate rank 10 heavily under theta=1.
  EXPECT_GT(counts[0], counts[10] * 3);
  for (const auto& [rank, n] : counts) {
    (void)n;
    EXPECT_LT(rank, 100u);
  }
}

TEST(RngTest, ZipfThetaZeroIsUniformish) {
  Rng rng(9);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 10000; ++i) counts[rng.NextZipf(10, 0.0)]++;
  for (uint64_t r = 0; r < 10; ++r) {
    EXPECT_GT(counts[r], 10000 / 10 / 3);
  }
}

TEST(RngTest, PoissonMean) {
  Rng rng(11);
  for (double mean : {0.5, 2.0, 50.0, 2000.0}) {
    double total = 0.0;
    const int kDraws = 5000;
    for (int i = 0; i < kDraws; ++i) {
      total += static_cast<double>(rng.NextPoisson(mean));
    }
    double observed = total / kDraws;
    EXPECT_NEAR(observed, mean, std::max(0.2, mean * 0.1))
        << "mean=" << mean;
  }
}

TEST(ZipfTableTest, MatchesExpectedSkew) {
  Rng rng(13);
  ZipfTable table(50, 1.2);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[table.Sample(rng)]++;
  EXPECT_GT(counts[0], counts[5] * 2);
}

// ---- VirtualClock ----

TEST(VirtualClockTest, AdvanceAndJump) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.Advance(150);
  EXPECT_EQ(clock.now(), 150);
  clock.AdvanceTo(100);  // never goes backwards
  EXPECT_EQ(clock.now(), 150);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.now(), 500);
}

TEST(VirtualClockTest, Conversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(2'500'000), 2.5);
  EXPECT_EQ(FromMillis(2.0), 2000);
}

// ---- ExecStats ----

TEST(ExecStatsTest, ChargeAndMerge) {
  ExecStats a;
  a.Charge(TimeBucket::kStreamRead, 100);
  a.Charge(TimeBucket::kRandomAccess, 50);
  a.Charge(TimeBucket::kJoin, 25);
  EXPECT_EQ(a.ExecTotalUs(), 175);
  ExecStats b;
  b.Charge(TimeBucket::kJoin, 10);
  b.tuples_streamed = 4;
  a.Merge(b);
  EXPECT_EQ(a.join_us, 35);
  EXPECT_EQ(a.tuples_streamed, 4);
}

}  // namespace
}  // namespace qsys
