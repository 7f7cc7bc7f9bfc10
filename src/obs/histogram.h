// Log-linear latency histograms and the serving metrics registry.
//
// A LatencyHistogram buckets microsecond values into 16 linear
// sub-buckets per power-of-two octave (HdrHistogram-style), bounding
// the relative quantile error at ~1/16 while covering the full int64
// range in under 1000 buckets. Record() is three relaxed atomic adds
// plus a CAS loop for the max — safe from any thread, cheap enough for
// per-query recording.
//
// The MetricsRegistry owns one histogram per (metric, shard) pair for
// the four serving distributions the SLO/rebalancing work reads —
// end-to-end latency, queue wait, optimize time, epoch duration — and
// aggregates across shards by summing bucket arrays at snapshot time.

#ifndef QSYS_OBS_HISTOGRAM_H_
#define QSYS_OBS_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace qsys {

/// \brief Thread-safe log-linear histogram of microsecond values.
class LatencyHistogram {
 public:
  /// Linear sub-buckets per octave (2^4 = 16 -> <=6.25% bucket width).
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;
  /// Enough octaves for any non-negative int64 microsecond value.
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  /// \brief Point-in-time quantile summary.
  struct Snapshot {
    int64_t count = 0;
    int64_t max_us = 0;
    double mean_us = 0.0;
    int64_t p50_us = 0;
    int64_t p90_us = 0;
    int64_t p95_us = 0;
    int64_t p99_us = 0;

    /// One-line rendering: "count=... p50=...us ... max=...us".
    std::string ToString() const;
  };

  /// Records one value (negative values clamp to 0). Any thread.
  void Record(int64_t value_us);

  /// Quantiles over everything recorded so far. Safe concurrently with
  /// Record() (the summary is then approximate by the in-flight adds).
  Snapshot TakeSnapshot() const;

  /// Adds this histogram's buckets/count/sum into the caller's
  /// accumulators and maxes `max_us` (cross-shard aggregation).
  void AccumulateInto(uint64_t* buckets, int64_t* count, int64_t* sum,
                      int64_t* max_us) const;

  /// Builds a Snapshot from externally accumulated state.
  static Snapshot FromBuckets(const uint64_t* buckets, int64_t count,
                              int64_t sum, int64_t max_us);

  /// The bucket a value lands in / a bucket's representative midpoint
  /// (exposed for the oracle test).
  static int BucketIndex(int64_t value_us);
  static int64_t BucketMidpointUs(int index);

 private:
  std::atomic<uint64_t> counts_[kBuckets]{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// \brief The serving latency distributions, one histogram per shard.
enum class ServiceMetric : int {
  /// Submit() to ticket resolution, wall microseconds (OK outcomes).
  kEndToEndLatency = 0,
  /// Shard submit-queue entry to engine ingest.
  kQueueWait,
  /// One multi-query optimizer run (measured wall time).
  kOptimizeTime,
  /// One shard serving epoch (Engine::Drain wall time).
  kEpochDuration,
};

inline constexpr int kNumServiceMetrics =
    static_cast<int>(ServiceMetric::kEpochDuration) + 1;

/// Stable snake_case name ("latency_e2e", "queue_wait", ...).
const char* ServiceMetricName(ServiceMetric metric);

/// \brief Per-shard + aggregated histograms for every ServiceMetric.
///
/// One instance per QueryService. Record() is lock-free and safe from
/// client threads, shard executors, and ATC drain workers alike.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int num_shards);

  int num_shards() const { return num_shards_; }

  /// Records one observation. A shard outside [0, num_shards) (e.g. a
  /// query awaiting retry, pinned to no shard) attributes to shard 0.
  void Record(ServiceMetric metric, int shard, int64_t value_us);

  /// One shard's distribution.
  LatencyHistogram::Snapshot ShardSnapshot(ServiceMetric metric,
                                           int shard) const;

  /// The distribution summed over every shard.
  LatencyHistogram::Snapshot AggregateSnapshot(ServiceMetric metric) const;

 private:
  const LatencyHistogram& Hist(ServiceMetric metric, int shard) const;

  const int num_shards_;
  /// Index: metric * num_shards_ + shard (histograms are not movable).
  std::vector<std::unique_ptr<LatencyHistogram>> hists_;
};

}  // namespace qsys

#endif  // QSYS_OBS_HISTOGRAM_H_
