#include "src/obs/histogram.h"

#include <algorithm>
#include <sstream>

namespace qsys {

namespace {

/// Smallest value v with rank(v) >= ceil(q * count), by bucket scan.
int64_t QuantileFromBuckets(const uint64_t* buckets, int64_t count,
                            double q) {
  if (count <= 0) return 0;
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  rank = std::max<int64_t>(1, std::min(rank, count));
  int64_t cumulative = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += static_cast<int64_t>(buckets[i]);
    if (cumulative >= rank) return LatencyHistogram::BucketMidpointUs(i);
  }
  return LatencyHistogram::BucketMidpointUs(LatencyHistogram::kBuckets - 1);
}

}  // namespace

int LatencyHistogram::BucketIndex(int64_t value_us) {
  if (value_us < 0) value_us = 0;
  if (value_us < kSub) return static_cast<int>(value_us);
  const int msb = 63 - __builtin_clzll(static_cast<uint64_t>(value_us));
  const int shift = msb - kSubBits;
  const int sub = static_cast<int>((value_us >> shift) - kSub);
  return kSub + shift * kSub + sub;
}

int64_t LatencyHistogram::BucketMidpointUs(int index) {
  if (index < kSub) return index;
  const int shift = (index - kSub) / kSub;
  const int sub = index % kSub;
  const int64_t lower = static_cast<int64_t>(kSub + sub) << shift;
  return lower + ((int64_t{1} << shift) >> 1);
}

void LatencyHistogram::Record(int64_t value_us) {
  if (value_us < 0) value_us = 0;
  counts_[BucketIndex(value_us)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value_us, std::memory_order_relaxed);
  int64_t seen = max_.load(std::memory_order_relaxed);
  while (value_us > seen &&
         !max_.compare_exchange_weak(seen, value_us,
                                     std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::AccumulateInto(uint64_t* buckets, int64_t* count,
                                      int64_t* sum, int64_t* max_us) const {
  for (int i = 0; i < kBuckets; ++i) {
    buckets[i] += counts_[i].load(std::memory_order_relaxed);
  }
  *count += count_.load(std::memory_order_relaxed);
  *sum += sum_.load(std::memory_order_relaxed);
  *max_us = std::max(*max_us, max_.load(std::memory_order_relaxed));
}

LatencyHistogram::Snapshot LatencyHistogram::FromBuckets(
    const uint64_t* buckets, int64_t count, int64_t sum, int64_t max_us) {
  Snapshot s;
  s.count = count;
  s.max_us = max_us;
  s.mean_us = count > 0
                  ? static_cast<double>(sum) / static_cast<double>(count)
                  : 0.0;
  s.p50_us = QuantileFromBuckets(buckets, count, 0.50);
  s.p90_us = QuantileFromBuckets(buckets, count, 0.90);
  s.p95_us = QuantileFromBuckets(buckets, count, 0.95);
  s.p99_us = QuantileFromBuckets(buckets, count, 0.99);
  // The top bucket's midpoint can overshoot the true (tracked) maximum;
  // the exact max is the tighter bound for every reported quantile.
  s.p50_us = std::min(s.p50_us, max_us);
  s.p90_us = std::min(s.p90_us, max_us);
  s.p95_us = std::min(s.p95_us, max_us);
  s.p99_us = std::min(s.p99_us, max_us);
  return s;
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  std::vector<uint64_t> buckets(kBuckets, 0);
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max_us = 0;
  AccumulateInto(buckets.data(), &count, &sum, &max_us);
  return FromBuckets(buckets.data(), count, sum, max_us);
}

std::string LatencyHistogram::Snapshot::ToString() const {
  std::ostringstream os;
  os << "count=" << count << " p50=" << p50_us << "us p90=" << p90_us
     << "us p95=" << p95_us << "us p99=" << p99_us << "us max=" << max_us
     << "us mean=" << static_cast<int64_t>(mean_us) << "us";
  return os.str();
}

const char* ServiceMetricName(ServiceMetric metric) {
  switch (metric) {
    case ServiceMetric::kEndToEndLatency: return "latency_e2e";
    case ServiceMetric::kQueueWait: return "queue_wait";
    case ServiceMetric::kOptimizeTime: return "optimize_time";
    case ServiceMetric::kEpochDuration: return "epoch_duration";
  }
  return "unknown";
}

MetricsRegistry::MetricsRegistry(int num_shards)
    : num_shards_(std::max(1, num_shards)) {
  hists_.reserve(static_cast<size_t>(kNumServiceMetrics) * num_shards_);
  for (int i = 0; i < kNumServiceMetrics * num_shards_; ++i) {
    hists_.push_back(std::make_unique<LatencyHistogram>());
  }
}

const LatencyHistogram& MetricsRegistry::Hist(ServiceMetric metric,
                                              int shard) const {
  if (shard < 0 || shard >= num_shards_) shard = 0;
  return *hists_[static_cast<size_t>(static_cast<int>(metric)) *
                     num_shards_ +
                 shard];
}

void MetricsRegistry::Record(ServiceMetric metric, int shard,
                             int64_t value_us) {
  if (shard < 0 || shard >= num_shards_) shard = 0;
  hists_[static_cast<size_t>(static_cast<int>(metric)) * num_shards_ +
         shard]
      ->Record(value_us);
}

LatencyHistogram::Snapshot MetricsRegistry::ShardSnapshot(
    ServiceMetric metric, int shard) const {
  return Hist(metric, shard).TakeSnapshot();
}

LatencyHistogram::Snapshot MetricsRegistry::AggregateSnapshot(
    ServiceMetric metric) const {
  std::vector<uint64_t> buckets(LatencyHistogram::kBuckets, 0);
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max_us = 0;
  for (int shard = 0; shard < num_shards_; ++shard) {
    Hist(metric, shard)
        .AccumulateInto(buckets.data(), &count, &sum, &max_us);
  }
  return LatencyHistogram::FromBuckets(buckets.data(), count, sum, max_us);
}

}  // namespace qsys
