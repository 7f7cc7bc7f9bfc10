// Prometheus text-exposition rendering of the serving stack's metrics:
// every MetricsRegistry latency histogram (as a summary family with
// per-shard labels), every ServiceCounters admission/serving counter,
// the spill-tier and plan-graph gauges, and the per-shard ExecStats
// work counters — one scrape-ready string from
// QueryService::MetricsPrometheus(), the only form in which the
// service's metrics leave the process.
//
// Format: the Prometheus text exposition format, version 0.0.4 — one
// `# HELP` + `# TYPE` header per family, samples as
// `name{label="value",...} number`, counters suffixed `_total`,
// summaries rendered as quantile samples plus `_sum`/`_count`.
// tools/check_metrics.py validates a dump against the grammar and
// checks counter monotonicity between two scrapes of a live run.
//
// All families share the `qsys_` prefix. Histogram/ExecStats samples
// carry a `shard="i"` label (plus a `shard="all"` aggregate series for
// the histograms); service-level counters carry no labels. The
// rendering is deterministic for fixed inputs: family and sample order
// are fixed by the enumeration tables below, doubles print via %.6g.

#ifndef QSYS_OBS_EXPORT_H_
#define QSYS_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/obs/histogram.h"

namespace qsys {

/// \brief Renders the full metrics surface of one QueryService in
/// Prometheus text exposition format. `shards` (each shard's per-epoch
/// snapshot) and `shard_routes` are indexed by shard id.
std::string RenderPrometheus(const MetricsRegistry& metrics,
                             const ServiceCounters& counters,
                             const std::vector<ShardStats>& shards,
                             const std::vector<RouteStats>& shard_routes);

}  // namespace qsys

#endif  // QSYS_OBS_EXPORT_H_
