#include "src/obs/export.h"

#include <cinttypes>
#include <cstdio>

namespace qsys {

namespace {

// All families share one prefix so a scrape config can keep/drop the
// whole service surface with a single relabel rule.
constexpr char kPrefix[] = "qsys_";

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

// %.6g matches the journal's double rendering: deterministic for equal
// inputs, and short enough for scrape payloads.
void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

void AppendHeader(std::string* out, const char* name, const char* type,
                  const char* help) {
  *out += "# HELP ";
  *out += kPrefix;
  *out += name;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += kPrefix;
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

/// One sample line: name{labels} value. `labels` is the pre-rendered
/// inner label list ("" for none), `suffix` the family suffix ("_sum",
/// "_count", "" for the bare name).
void AppendSampleInt(std::string* out, const char* name, const char* suffix,
                     const std::string& labels, int64_t value) {
  *out += kPrefix;
  *out += name;
  *out += suffix;
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
  *out += ' ';
  AppendInt(out, value);
  *out += '\n';
}

void AppendSampleDouble(std::string* out, const char* name,
                        const char* suffix, const std::string& labels,
                        double value) {
  *out += kPrefix;
  *out += name;
  *out += suffix;
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
  *out += ' ';
  AppendDouble(out, value);
  *out += '\n';
}

std::string ShardLabel(int shard) {
  return "shard=\"" + std::to_string(shard) + "\"";
}

/// Renders one histogram snapshot as summary samples under `labels`.
void AppendSummary(std::string* out, const char* name,
                   const std::string& labels,
                   const LatencyHistogram::Snapshot& s) {
  struct Q {
    const char* q;
    int64_t v;
  };
  const Q quantiles[] = {{"0.5", s.p50_us},
                         {"0.9", s.p90_us},
                         {"0.95", s.p95_us},
                         {"0.99", s.p99_us}};
  for (const Q& q : quantiles) {
    std::string ql = labels;
    if (!ql.empty()) ql += ',';
    ql += "quantile=\"";
    ql += q.q;
    ql += '"';
    AppendSampleInt(out, name, "", ql, q.v);
  }
  // The histogram tracks count and mean; sum is reconstructed (exact up
  // to the mean's double rounding).
  AppendSampleDouble(out, name, "_sum", labels, s.mean_us * s.count);
  AppendSampleInt(out, name, "_count", labels, s.count);
}

struct NamedCounter {
  const char* name;
  const char* help;
  int64_t value;
};

struct NamedField {
  const char* name;
  const char* help;
  int64_t ExecStats::*field;
};

// Per-shard ExecStats work counters. VirtualTime fields are int64
// microsecond totals, so one table covers all 14.
const NamedField kExecFields[] = {
    {"exec_stream_read_us", "Virtual us spent reading streaming sources",
     &ExecStats::stream_read_us},
    {"exec_random_access_us", "Virtual us spent on remote probes",
     &ExecStats::random_access_us},
    {"exec_join_us", "Virtual us spent on in-middleware join work",
     &ExecStats::join_us},
    {"exec_optimize_us", "Optimizer time charged to the virtual clock",
     &ExecStats::optimize_us},
    {"exec_tuples_streamed", "Input tuples consumed from streams",
     &ExecStats::tuples_streamed},
    {"exec_probes_issued", "Remote probes actually issued",
     &ExecStats::probes_issued},
    {"exec_probe_cache_hits", "Probe answers served from the cache",
     &ExecStats::probe_cache_hits},
    {"exec_join_probes", "Probes into in-memory join hash tables",
     &ExecStats::join_probes},
    {"exec_join_outputs", "Join result tuples produced",
     &ExecStats::join_outputs},
    {"exec_split_routed", "Tuples routed through split operators",
     &ExecStats::split_routed},
    {"exec_results_emitted", "Top-k results emitted to users",
     &ExecStats::results_emitted},
    {"exec_tuples_rederived", "Buffered tuples replayed at graft time",
     &ExecStats::tuples_rederived},
    {"exec_tuples_rederived_skipped",
     "Replays avoided by the per-producer watermark",
     &ExecStats::tuples_rederived_skipped},
    {"exec_tuples_shared_served",
     "Warm tuples grafted queries inherited from shared state",
     &ExecStats::tuples_shared_served},
};

struct NamedSpillField {
  const char* name;
  const char* help;
  int64_t SpillStats::*field;
};

const NamedSpillField kSpillFields[] = {
    {"spill_pages_written", "Pages written to spill segment files",
     &SpillStats::pages_written},
    {"spill_pages_read", "Pages read back from spill segment files",
     &SpillStats::pages_read},
    {"spill_page_faults", "Buffer-pool misses that touched disk",
     &SpillStats::page_faults},
    {"spill_items_spilled", "Cache items demoted to disk",
     &SpillStats::items_spilled},
    {"spill_items_restored", "Spilled items restored on demand",
     &SpillStats::items_restored},
    {"spill_bytes_on_disk", "Bytes currently held in spill segments",
     &SpillStats::bytes_on_disk},
    {"spill_io_faults",
     "Spill I/O faults survived by degrading instead of losing answers",
     &SpillStats::spill_faults},
    {"spill_read_retry_waits",
     "Backoff sleeps taken retrying transient spill reads",
     &SpillStats::read_retry_waits},
};

}  // namespace

std::string RenderPrometheus(const MetricsRegistry& metrics,
                             const ServiceCounters& counters,
                             const std::vector<ShardStats>& shards,
                             const std::vector<RouteStats>& shard_routes) {
  std::string out;
  out.reserve(8192);

  // -- latency histograms: one summary family per ServiceMetric, an
  //    aggregate series (shard="all") plus one series per shard --
  for (int m = 0; m < kNumServiceMetrics; ++m) {
    const ServiceMetric metric = static_cast<ServiceMetric>(m);
    std::string name = std::string(ServiceMetricName(metric)) + "_us";
    AppendHeader(&out, name.c_str(), "summary",
                 "Serving latency distribution, microseconds");
    AppendSummary(&out, name.c_str(), "shard=\"all\"",
                  metrics.AggregateSnapshot(metric));
    for (int s = 0; s < metrics.num_shards(); ++s) {
      AppendSummary(&out, name.c_str(), ShardLabel(s),
                    metrics.ShardSnapshot(metric, s));
    }
  }

  // -- admission/serving counters (service scope, no labels) --
  const NamedCounter service_counters[] = {
      {"submitted", "Queries accepted into a submit queue",
       counters.submitted.load(std::memory_order_relaxed)},
      {"rejected", "Queries refused admission",
       counters.rejected.load(std::memory_order_relaxed)},
      {"completed", "Queries whose top-k answers were delivered",
       counters.completed.load(std::memory_order_relaxed)},
      {"failed", "Queries that failed candidate generation",
       counters.failed.load(std::memory_order_relaxed)},
      {"cancelled", "Queries cancelled by a non-draining shutdown",
       counters.cancelled.load(std::memory_order_relaxed)},
      {"epochs", "Shared-execution epochs driven across all shards",
       counters.epochs.load(std::memory_order_relaxed)},
      {"batches_flushed", "Batches flushed to the multi-query optimizer",
       counters.batches_flushed.load(std::memory_order_relaxed)},
      {"query_retries", "Queries re-submitted after a shard failure",
       counters.retries.load(std::memory_order_relaxed)},
      {"deadline_exceeded", "Queries resolved past their deadline",
       counters.deadline_exceeded.load(std::memory_order_relaxed)},
      {"shard_restarts", "Crashed shard engines restarted in place",
       counters.shard_restarts.load(std::memory_order_relaxed)},
  };
  for (const NamedCounter& c : service_counters) {
    AppendHeader(&out, (std::string(c.name) + "_total").c_str(), "counter",
                 c.help);
    AppendSampleInt(&out, c.name, "_total", "", c.value);
  }

  // -- routing-decision counters, one series per shard --
  AppendHeader(&out, "route_local_total", "counter",
               "Queries routed to the shard");
  for (size_t s = 0; s < shard_routes.size(); ++s) {
    AppendSampleInt(&out, "route_local", "_total",
                    ShardLabel(static_cast<int>(s)), shard_routes[s].local);
  }

  // -- spill-tier gauges, one series per shard --
  for (const NamedSpillField& f : kSpillFields) {
    AppendHeader(&out, f.name, "gauge", f.help);
    for (size_t s = 0; s < shards.size(); ++s) {
      AppendSampleInt(&out, f.name, "",
                      ShardLabel(static_cast<int>(s)),
                      shards[s].spill.*(f.field));
    }
  }

  // -- plan-graph size, one series per shard: a long-lived shard whose
  //    graph keeps growing shows here --
  AppendHeader(&out, "plan_graph_operators", "gauge",
               "Live plan-graph operators plus replay streams, summed "
               "over the shard's ATCs");
  for (size_t s = 0; s < shards.size(); ++s) {
    AppendSampleInt(&out, "plan_graph_operators", "",
                    ShardLabel(static_cast<int>(s)),
                    shards[s].plan_graph_operators);
  }

  // -- per-shard ExecStats work counters --
  for (const NamedField& f : kExecFields) {
    AppendHeader(&out, (std::string(f.name) + "_total").c_str(), "counter",
                 f.help);
    for (size_t s = 0; s < shards.size(); ++s) {
      AppendSampleInt(&out, f.name, "_total",
                      ShardLabel(static_cast<int>(s)),
                      shards[s].exec.*(f.field));
    }
  }

  return out;
}

}  // namespace qsys
