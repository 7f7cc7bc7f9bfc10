// Tests for the observability subsystem (src/obs/): log-linear
// histogram quantiles against a sorted-vector oracle, the per-thread
// seqlock trace rings (drop-oldest, per-thread ordering under
// concurrent writers and snapshots), Chrome-trace JSON export
// validity, span well-formedness on a real multi-shard multi-threaded
// serve run, and the ExecStats/SpillStats mirror enumerations guarded
// by the static_asserts in src/common/metrics.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/obs/histogram.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"
#include "src/serve/query_service.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

using ::qsys::testing::BuildTinyBioDataset;
using ::qsys::testing::FastTestConfig;

// ---- LatencyHistogram ----

// Deterministic pseudo-random stream (tests must not call the real
// clock or a seeded-by-time RNG).
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }

 private:
  uint64_t state_;
};

int64_t OracleQuantile(std::vector<int64_t> sorted, double q) {
  // Same rank convention as the histogram: the smallest value with at
  // least ceil(q * count) observations at or below it.
  int64_t rank = static_cast<int64_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::max<int64_t>(1, std::min<int64_t>(rank, sorted.size()));
  return sorted[rank - 1];
}

TEST(ObsHistogramTest, QuantilesMatchSortedVectorOracle) {
  LatencyHistogram hist;
  Lcg rng(42);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    // Mix of scales: sub-ms, ms, and a long tail into seconds.
    int64_t v;
    switch (rng.Next() % 4) {
      case 0: v = static_cast<int64_t>(rng.Next() % 1000); break;
      case 1: v = static_cast<int64_t>(1000 + rng.Next() % 9000); break;
      case 2: v = static_cast<int64_t>(10000 + rng.Next() % 90000); break;
      default: v = static_cast<int64_t>(100000 + rng.Next() % 4000000);
    }
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());

  LatencyHistogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, static_cast<int64_t>(values.size()));
  EXPECT_EQ(snap.max_us, values.back());  // max is tracked exactly

  int64_t sum = 0;
  for (int64_t v : values) sum += v;
  double mean = static_cast<double>(sum) / values.size();
  EXPECT_NEAR(snap.mean_us, mean, 1e-6);  // sum is tracked exactly

  // Bucket width is <= 6.25%, so the midpoint representative is within
  // ~3.2% of any value in the bucket; allow 8% + a small absolute slop
  // for the first (linear) octaves.
  const struct {
    double q;
    int64_t got;
  } checks[] = {{0.50, snap.p50_us},
                {0.90, snap.p90_us},
                {0.95, snap.p95_us},
                {0.99, snap.p99_us}};
  for (const auto& c : checks) {
    int64_t want = OracleQuantile(values, c.q);
    double tol = 0.08 * static_cast<double>(want) + 8.0;
    EXPECT_NEAR(static_cast<double>(c.got), static_cast<double>(want), tol)
        << "q=" << c.q;
  }
}

TEST(ObsHistogramTest, BucketIndexIsMonotoneAndMidpointContained) {
  int last = -1;
  for (int64_t v : std::vector<int64_t>{0, 1, 2, 15, 16, 17, 31, 32, 100,
                                        1000, 65535, 65536, 1 << 20,
                                        int64_t{1} << 40}) {
    int idx = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(idx, last) << "v=" << v;
    EXPECT_LT(idx, LatencyHistogram::kBuckets);
    last = idx;
    // The representative midpoint must land in the same bucket.
    EXPECT_EQ(LatencyHistogram::BucketIndex(
                  LatencyHistogram::BucketMidpointUs(idx)),
              idx)
        << "v=" << v;
  }
  // Values below the linear range (including the negative clamp) are
  // exact.
  LatencyHistogram h;
  h.Record(-5);
  h.Record(7);
  LatencyHistogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 2);
  EXPECT_EQ(s.max_us, 7);
}

TEST(ObsHistogramTest, RegistryAggregatesAcrossShards) {
  MetricsRegistry reg(/*num_shards=*/3);
  for (int i = 0; i < 100; ++i) {
    reg.Record(ServiceMetric::kQueueWait, 0, 100);
    reg.Record(ServiceMetric::kQueueWait, 1, 10000);
  }
  reg.Record(ServiceMetric::kQueueWait, 2, 500000);
  // Out-of-range shards attribute to shard 0 rather than dropping.
  reg.Record(ServiceMetric::kQueueWait, -1, 100);
  reg.Record(ServiceMetric::kQueueWait, 99, 100);

  EXPECT_EQ(reg.ShardSnapshot(ServiceMetric::kQueueWait, 0).count, 102);
  EXPECT_EQ(reg.ShardSnapshot(ServiceMetric::kQueueWait, 1).count, 100);
  EXPECT_EQ(reg.ShardSnapshot(ServiceMetric::kQueueWait, 2).count, 1);
  LatencyHistogram::Snapshot agg =
      reg.AggregateSnapshot(ServiceMetric::kQueueWait);
  EXPECT_EQ(agg.count, 203);
  EXPECT_EQ(agg.max_us, 500000);
  // Other metrics are untouched.
  EXPECT_EQ(reg.AggregateSnapshot(ServiceMetric::kEndToEndLatency).count, 0);
}

// ---- Tracer ring buffer ----

TEST(ObsTracerTest, DropOldestKeepsTheMostRecentEvents) {
  const int kCap = 64;
  Tracer tracer(kCap);
  for (int i = 0; i < 200; ++i) {
    tracer.Span(TraceEventType::kEpoch, /*ts_us=*/i, /*dur_us=*/1,
                /*shard=*/0, /*uq_id=*/-1, /*atc=*/-1, /*arg=*/i);
  }
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kCap));
  // Exactly the last kCap events, in order.
  for (int i = 0; i < kCap; ++i) {
    EXPECT_EQ(events[i].arg, 200 - kCap + i);
    EXPECT_EQ(events[i].ts_us, 200 - kCap + i);
    EXPECT_EQ(events[i].type, TraceEventType::kEpoch);
  }
  EXPECT_EQ(tracer.dropped(), 200 - kCap);
}

TEST(ObsTracerTest, EventFieldsRoundTrip) {
  Tracer tracer(8);
  tracer.Span(TraceEventType::kAtcExec, 123456, 789, /*shard=*/3,
              /*uq_id=*/42, /*atc=*/7, /*arg=*/99);
  tracer.Instant(TraceEventType::kEvict, /*shard=*/1, /*uq_id=*/-1,
                 /*atc=*/-1, /*arg=*/5);
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot() sorts by timestamp; the instant is stamped with NowUs()
  // (microseconds since construction), so it sorts first.
  const TraceEvent& span = events[1];
  EXPECT_EQ(span.type, TraceEventType::kAtcExec);
  EXPECT_EQ(span.ts_us, 123456);
  EXPECT_EQ(span.dur_us, 789);
  EXPECT_EQ(span.shard, 3);
  EXPECT_EQ(span.uq_id, 42);
  EXPECT_EQ(span.atc, 7);
  EXPECT_EQ(span.arg, 99);
  const TraceEvent& instant = events[0];
  EXPECT_EQ(instant.type, TraceEventType::kEvict);
  EXPECT_EQ(instant.dur_us, 0);
  EXPECT_EQ(instant.shard, 1);
  EXPECT_EQ(instant.uq_id, -1);
  EXPECT_EQ(instant.atc, -1);
  EXPECT_EQ(instant.arg, 5);
}

TEST(ObsTracerTest, ConcurrentWritersKeepPerThreadOrder) {
  const int kCap = 256;
  const int kWriters = 4;
  const int kEventsPerWriter = 10000;
  Tracer tracer(kCap);

  std::atomic<bool> stop{false};
  // A reader hammering Snapshot() while the writers record: under TSan
  // this is the race check; everywhere it checks torn slots are
  // skipped, never mis-decoded.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const TraceEvent& e : tracer.Snapshot()) {
        ASSERT_EQ(e.type, TraceEventType::kAtcExec);
        ASSERT_GE(e.arg, 0);
        ASSERT_LT(e.arg, kEventsPerWriter);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&tracer, w] {
      for (int i = 0; i < kEventsPerWriter; ++i) {
        tracer.Span(TraceEventType::kAtcExec, /*ts_us=*/i, /*dur_us=*/1,
                    /*shard=*/w, /*uq_id=*/-1, /*atc=*/-1, /*arg=*/i);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Quiescent snapshot: every writer's ring holds exactly its last kCap
  // events, in per-thread order.
  std::map<int, std::vector<int64_t>> by_tid;
  for (const TraceEvent& e : tracer.Snapshot()) {
    by_tid[e.tid].push_back(e.arg);
  }
  ASSERT_EQ(by_tid.size(), static_cast<size_t>(kWriters));
  for (const auto& [tid, args] : by_tid) {
    ASSERT_EQ(args.size(), static_cast<size_t>(kCap)) << "tid=" << tid;
    for (size_t i = 0; i < args.size(); ++i) {
      EXPECT_EQ(args[i],
                static_cast<int64_t>(kEventsPerWriter - kCap + i))
          << "tid=" << tid;
    }
  }
  EXPECT_EQ(tracer.dropped(),
            static_cast<int64_t>(kWriters) * (kEventsPerWriter - kCap));
}

// ---- Chrome trace export ----

// Minimal recursive-descent JSON syntax checker: enough to reject any
// malformed escape/number/nesting the exporter could emit, with no
// third-party parser dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(ObsTraceExportTest, ChromeJsonIsSyntacticallyValid) {
  Tracer tracer(64);
  tracer.Span(TraceEventType::kQueueWait, 10, 5, /*shard=*/0, /*uq_id=*/1);
  tracer.Span(TraceEventType::kEpoch, 20, 100, /*shard=*/1);
  tracer.Instant(TraceEventType::kAdmit, /*shard=*/-1, /*uq_id=*/1);
  tracer.Instant(TraceEventType::kEvict, /*shard=*/0, -1, -1, /*arg=*/3);
  std::string json = ChromeTraceJson(tracer.Snapshot());

  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Span types export as complete events with a duration; instants as
  // "i" events.
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // pid 0 is the service-level row; shards are pid shard+1.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

TEST(ObsTraceExportTest, EveryEventTypeHasANameAndExports) {
  Tracer tracer(kNumTraceEventTypes + 1);
  std::set<std::string> names;
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    TraceEventType type = static_cast<TraceEventType>(i);
    const char* name = TraceEventTypeName(type);
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    if (TraceEventIsSpan(type)) {
      tracer.Span(type, i, 1, /*shard=*/0);
    } else {
      tracer.Instant(type, /*shard=*/0);
    }
  }
  std::string json = ChromeTraceJson(tracer.Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid());
  for (const std::string& name : names) {
    EXPECT_NE(json.find("\"" + name + "\""), std::string::npos) << name;
  }
}

// ---- serve-mode span well-formedness ----

TEST(ObsServeTest, ServeRunProducesWellFormedSpans) {
  ServiceOptions options;
  options.config = FastTestConfig();
  options.config.num_shards = 2;
  options.config.exec_threads = 2;
  options.config.sharing = SharingConfig::kAtcCl;
  options.config.batch_size = 4;
  options.config.batch_window_us = 2000;
  // Large enough that nothing drops: the span accounting below needs
  // the complete event set.
  options.config.trace_buffer_events = 1 << 16;

  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());

  const std::vector<std::string> queries = {
      "membrane gene", "kinase",      "membrane",        "gene protein",
      "binding",       "transport",   "kinase gene",     "membrane protein",
      "gene",          "protein",     "binding protein", "transport gene"};
  const int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> ok_submits{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session = service.OpenSession("client-" + std::to_string(c));
      ASSERT_TRUE(session.ok());
      for (size_t i = c; i < queries.size(); i += kClients) {
        auto ticket = service.Submit(session.value(), queries[i]);
        if (ticket.ok()) {
          ticket.value().Wait();
          ok_submits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(service.Shutdown().ok());

  ASSERT_NE(service.tracer(), nullptr);
  EXPECT_EQ(service.tracer()->dropped(), 0);
  std::vector<TraceEvent> events = service.tracer()->Snapshot();
  ASSERT_FALSE(events.empty());

  std::map<int, int64_t> admit_ts;       // uq -> admit timestamp
  std::map<int, int64_t> resolve_ts;     // uq -> resolve timestamp
  std::vector<TraceEvent> queue_waits, epochs, atc_execs;
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.dur_us, 0);
    if (!TraceEventIsSpan(e.type)) {
      EXPECT_EQ(e.dur_us, 0);
    }
    switch (e.type) {
      case TraceEventType::kAdmit:
        admit_ts.emplace(e.uq_id, e.ts_us);
        break;
      case TraceEventType::kResolve:
        resolve_ts.emplace(e.uq_id, e.ts_us);
        break;
      case TraceEventType::kQueueWait:
        queue_waits.push_back(e);
        break;
      case TraceEventType::kEpoch:
        epochs.push_back(e);
        break;
      case TraceEventType::kAtcExec:
        EXPECT_GE(e.atc, 0);
        atc_execs.push_back(e);
        break;
      default:
        break;
    }
  }

  // Every successful submit produced an admit and a resolve, with
  // admit happening first on the shared timeline.
  EXPECT_EQ(static_cast<int>(resolve_ts.size()), ok_submits.load());
  for (const auto& [uq, rts] : resolve_ts) {
    auto it = admit_ts.find(uq);
    ASSERT_NE(it, admit_ts.end()) << "uq " << uq << " resolved, no admit";
    EXPECT_LE(it->second, rts) << "uq " << uq;
  }
  // The admit is stamped before the shard queue sees the query, so it
  // never follows the queue wait that push starts.
  ASSERT_FALSE(queue_waits.empty());
  for (const TraceEvent& w : queue_waits) {
    auto it = admit_ts.find(w.uq_id);
    ASSERT_NE(it, admit_ts.end()) << "uq " << w.uq_id << " queued, no admit";
    EXPECT_LE(it->second, w.ts_us) << "uq " << w.uq_id;
  }

  // Execution happened on both shards, on multiple exec threads, and
  // every ATC execution slice nests inside a same-shard epoch span.
  std::set<int> shards_seen;
  for (const TraceEvent& e : epochs) shards_seen.insert(e.shard);
  EXPECT_EQ(shards_seen.size(), 2u);
  ASSERT_FALSE(atc_execs.empty());
  for (const TraceEvent& a : atc_execs) {
    bool nested = false;
    for (const TraceEvent& e : epochs) {
      if (e.shard == a.shard && e.ts_us <= a.ts_us &&
          a.ts_us + a.dur_us <= e.ts_us + e.dur_us) {
        nested = true;
        break;
      }
    }
    EXPECT_TRUE(nested) << "atc_exec at ts=" << a.ts_us << " shard="
                        << a.shard << " outside every epoch span";
  }

  // The always-on histograms saw the run too: one end-to-end sample per
  // completed query, and at least one epoch duration per shard.
  EXPECT_EQ(
      service.metrics().AggregateSnapshot(ServiceMetric::kEndToEndLatency)
          .count,
      service.counters().completed.load());
  for (int s = 0; s < 2; ++s) {
    EXPECT_GT(
        service.metrics().ShardSnapshot(ServiceMetric::kEpochDuration, s)
            .count,
        0);
  }
}

TEST(ObsServeTest, TracingDisabledByDefaultAndDumpFails) {
  ServiceOptions options;
  options.config = FastTestConfig();
  QueryService service(options);
  ASSERT_TRUE(BuildTinyBioDataset(service.engine()).ok());
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.tracer(), nullptr);
  Status dump = service.DumpTrace("/tmp/should_not_exist_trace.json");
  EXPECT_EQ(dump.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.Shutdown().ok());
}

// ---- ExecStats / SpillStats mirror enumerations ----

// The static_asserts in src/common/metrics.h pin the field *counts*;
// these tests pin the hand-written enumerations themselves: fill every
// 8-byte word with a distinct pattern and check nothing is dropped,
// duplicated, or transposed by the merge or the spill-gauge mirror.

ExecStats PatternedExecStats(int64_t base) {
  ExecStats s;
  auto* words = reinterpret_cast<int64_t*>(&s);
  const int n = sizeof(ExecStats) / sizeof(int64_t);
  for (int i = 0; i < n; ++i) words[i] = base + i;
  return s;
}

TEST(ObsMirrorTest, ExecStatsMergeCoversEveryField) {
  ExecStats a = PatternedExecStats(1000);
  a.Merge(PatternedExecStats(1000));
  const auto* words = reinterpret_cast<const int64_t*>(&a);
  const int n = sizeof(ExecStats) / sizeof(int64_t);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(words[i], 2 * (1000 + i)) << "field index " << i;
  }
}

TEST(ObsMirrorTest, ServiceCountersSpillGaugesRoundTripEveryField) {
  SpillStats in;
  auto* words = reinterpret_cast<int64_t*>(&in);
  const int n = sizeof(SpillStats) / sizeof(int64_t);
  for (int i = 0; i < n; ++i) words[i] = 500 + i;
  ServiceCounters counters;
  counters.StoreSpill(in);
  SpillStats out = counters.LoadSpill();
  EXPECT_EQ(std::memcmp(&in, &out, sizeof(SpillStats)), 0)
      << "ServiceCounters::StoreSpill/LoadSpill dropped or transposed a "
         "field";
}

}  // namespace
}  // namespace qsys
