// The serving benchmark's own arithmetic: censored latency percentiles,
// span self time, the open-loop arrival schedule and the seeded query
// draw. Kept apart from serve_bench.cc so selftest.cc can pin each rule
// without building a dataset.

#ifndef QSYS_SERVEBENCH_MEASURE_H_
#define QSYS_SERVEBENCH_MEASURE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/workload/bio_terms.h"

namespace qsys::servebench {

/// Smallest sample for which the `pct`-th percentile has at least ten
/// samples beyond it (p50 needs 20, p90 needs 100). `pct` is in [0, 100).
inline int MinSamplesForPercentile(int pct) {
  const int beyond = 100 - pct;
  return (1000 + beyond - 1) / beyond;
}

/// Nearest-rank percentile of `values`: the smallest value with at least
/// `pct` percent of the sample at or below it; 0 for an empty sample.
inline double NearestRank(std::vector<double> values, int pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const int n = static_cast<int>(values.size());
  const int rank = std::max(1, (pct * n + 99) / 100);  // ceil(pct% of n)
  return values[static_cast<size_t>(rank - 1)];
}

/// NearestRank, omitted (nullopt) when the sample is too small to put ten
/// values beyond the percentile.
inline std::optional<double> Percentile(std::vector<double> values, int pct) {
  if (static_cast<int>(values.size()) < MinSamplesForPercentile(pct)) {
    return std::nullopt;
  }
  return NearestRank(std::move(values), pct);
}

/// One query's latency sample: `ok` when it was answered correctly.
struct LatencySample {
  bool ok = false;
  double value = 0.0;
};

/// Censors a latency sample at twice the latency limit: a query that
/// failed, was refused, or answered wrong counts as 2 * `limit`, so it
/// misses every latency target and drags every percentile it reaches.
inline std::vector<double> Censor(const std::vector<LatencySample>& samples,
                                  double limit) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const LatencySample& s : samples) {
    out.push_back(s.ok ? s.value : 2.0 * limit);
  }
  return out;
}

/// A half-open time interval [begin, end), microseconds.
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Total length covered by the union of `intervals` (overlaps counted
/// once).
inline int64_t UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  int64_t total = 0;
  int64_t cur_begin = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.begin) continue;
    if (!open || iv.begin > cur_end) {
      if (open) total += cur_end - cur_begin;
      cur_begin = iv.begin;
      cur_end = iv.end;
      open = true;
    } else {
      cur_end = std::max(cur_end, iv.end);
    }
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

/// Self time of `parent`: its length minus the part of it that the union
/// of `children` covers. Children may overlap each other (parallel ATC
/// drains) and may stick out of the parent; only the covered part of the
/// parent is subtracted.
inline int64_t SelfTime(const Interval& parent,
                        const std::vector<Interval>& children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children) {
    Interval x{std::max(c.begin, parent.begin), std::min(c.end, parent.end)};
    if (x.end > x.begin) clipped.push_back(x);
  }
  return std::max<int64_t>(0, parent.end - parent.begin) -
         UnionLength(std::move(clipped));
}

/// Open-loop due times, in seconds after the run's first due time.
/// `rate_qps` == 0 is a burst: every query is due at once. Otherwise the
/// arrivals are a Poisson process of that rate over the window
/// [0, n / rate), conditioned on holding exactly `n` arrivals: n uniform
/// draws over the window, sorted. The rate is then exact and only the
/// gaps vary with the seed.
inline std::vector<double> ArrivalSchedule(uint64_t seed, int n,
                                           double rate_qps) {
  std::vector<double> due(static_cast<size_t>(std::max(n, 0)), 0.0);
  if (rate_qps <= 0.0) return due;
  Rng rng(seed ^ 0xa076f1d3c0ffee11ull);
  const double window = static_cast<double>(n) / rate_qps;
  for (double& t : due) t = rng.NextDouble() * window;
  std::sort(due.begin(), due.end());
  return due;
}

/// The seeded query draw: `n` two-keyword Zipf queries over
/// `vocabulary` (GenerateBioWorkload's users and candidate options; its
/// pose times are unused — ArrivalSchedule times the run). Users
/// alternate scoring models unless `vary_score_models` is false.
inline std::vector<WorkloadQuery> DrawQueries(
    const std::vector<std::string>& vocabulary, uint64_t seed, int n,
    const CandidateGenOptions& gen, bool vary_score_models) {
  WorkloadOptions options;
  options.num_queries = n;
  options.seed = seed;
  options.gen = gen;
  options.vary_score_models = vary_score_models;
  return GenerateBioWorkload(vocabulary, options);
}

}  // namespace qsys::servebench

#endif  // QSYS_SERVEBENCH_MEASURE_H_
