// Serving-layer throughput bench: N concurrent client threads submit a
// GUS keyword workload through one QueryService, and the shared-work
// counters are compared against the same workload executed as isolated
// single-query runs (no sharing of any kind).
//
//   serve    — QueryService, ATC-Full sharing, batched epochs
//   isolated — one query per batch, per-CQ scope, no temporal reuse
//
// Shape expectations: every client receives its ranked results, and the
// batched shared execution consumes strictly fewer streamed tuples (and
// no more probes) than the isolated runs — the paper's core claim,
// observed through the serving front end instead of the simulator.
//
// A second phase sweeps QConfig::num_shards (--shards=1,2,4 by default)
// over the same workload and emits BENCH_shard_scaling.json: served
// queries/s per shard count, plus a per-UQ byte-equivalence check of
// every sharded run against the single-engine run.
//
// --ci runs only the *deterministic* sharing-ratio check: the isolated
// baseline vs a manually pumped serve pass (fixed batch decomposition,
// no wall-clock timing anywhere), with hard floors on the shared-work
// ratios. That is the regression tripwire CI runs on every push —
// machine-independent, so the PR-1 sharing baselines cannot silently
// erode behind timing noise.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/query_service.h"

using namespace qsys;
using qsys::bench::BenchJson;
using qsys::bench::ShapeChecker;

namespace {

constexpr int kNumQueries = 20;
constexpr int kNumClients = 4;

std::vector<WorkloadQuery> MakeWorkload() {
  WorkloadOptions options;
  options.num_queries = kNumQueries;
  options.seed = 7;
  return GenerateBioWorkload(BioVocabulary(), options);
}

GusOptions SmallGus() {
  GusOptions gus;
  gus.seed = 1;
  return gus;
}

QConfig BaseConfig() {
  QConfig config;
  config.k = 50;
  config.batch_size = 5;
  config.max_rounds = 200'000'000;
  return config;
}


struct SweepRun {
  int num_shards = 1;
  double wall_seconds = 0.0;
  double qps = 0.0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t epochs = 0;
  /// Per workload-index result fingerprint ("" = failed), from the
  /// deterministic pass.
  std::vector<std::string> fingerprints;
};

/// Runs the workload through a `num_shards`-way service twice:
///
///   * a deterministic pass (manual pump, single submitter, drain
///     shutdown) whose per-UQ fingerprints are comparable across shard
///     counts — byte-equivalence is a property of the system under a
///     fixed batch decomposition, so it is checked under one;
///   * threaded passes (`kNumClients` concurrent clients, live
///     executor threads) that measure served throughput — best of two,
///     since a single wall-clock timing on a busy machine is noisy
///     enough to flip the strictly-increasing shape check spuriously.
bool RunShardedWorkload(int num_shards,
                        const std::vector<WorkloadQuery>& workload,
                        SweepRun* run) {
  run->num_shards = num_shards;
  ServiceOptions options;
  options.config = BaseConfig();
  options.config.sharing = SharingConfig::kAtcFull;
  options.config.batch_window_us = 50'000;
  options.config.num_shards = num_shards;
  options.queue_capacity = kNumQueries;

  // ---- deterministic pass: fingerprints ----
  {
    ServiceOptions det = options;
    det.manual_pump = true;
    QueryService service(det);
    Status built = service.BuildEachEngine(
        [](Engine& e) { return BuildGusDataset(e, SmallGus()); });
    if (!built.ok() || !service.Start().ok()) {
      printf("deterministic pass setup failed\n");
      return false;
    }
    SessionId session = service.OpenSession("determinism").value();
    std::vector<std::pair<size_t, QueryTicket>> tickets;
    for (size_t i = 0; i < workload.size(); ++i) {
      auto ticket = service.Submit(session, workload[i].keywords,
                                   workload[i].options);
      if (ticket.ok()) tickets.emplace_back(i, ticket.value());
    }
    Status stop = service.Shutdown(QueryService::ShutdownMode::kDrain);
    if (!stop.ok()) {
      printf("deterministic pass shutdown failed: %s\n",
             stop.ToString().c_str());
      return false;
    }
    run->fingerprints.assign(workload.size(), "");
    for (auto& [index, ticket] : tickets) {
      const QueryOutcome& out = ticket.Wait();
      if (out.status.ok()) {
        run->fingerprints[index] = FingerprintResults(out.results);
      }
    }
  }

  // ---- threaded passes: throughput (best of two) ----
  for (int attempt = 0; attempt < 2; ++attempt) {
    QueryService service(options);
    Status built = service.BuildEachEngine(
        [](Engine& e) { return BuildGusDataset(e, SmallGus()); });
    if (!built.ok()) {
      printf("dataset build failed: %s\n", built.ToString().c_str());
      return false;
    }
    Status start = service.Start();
    if (!start.ok()) {
      printf("service start failed: %s\n", start.ToString().c_str());
      return false;
    }

    auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kNumClients; ++c) {
      clients.emplace_back([&, c] {
        SessionId session =
            service.OpenSession("client-" + std::to_string(c)).value();
        std::vector<QueryTicket> tickets;
        for (size_t i = c; i < workload.size(); i += kNumClients) {
          auto ticket = service.Submit(session, workload[i].keywords,
                                       workload[i].options);
          if (ticket.ok()) tickets.push_back(ticket.value());
        }
        for (QueryTicket& ticket : tickets) ticket.Wait();
      });
    }
    for (std::thread& t : clients) t.join();
    double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    Status stop = service.Shutdown();
    if (!stop.ok()) {
      printf("service shutdown failed: %s\n", stop.ToString().c_str());
      return false;
    }
    int64_t completed = service.counters().completed.load();
    double qps = wall_seconds > 0
                     ? static_cast<double>(completed) / wall_seconds
                     : 0.0;
    if (attempt == 0 || qps > run->qps) {
      run->wall_seconds = wall_seconds;
      run->qps = qps;
      run->completed = completed;
      run->failed = service.counters().failed.load();
      run->epochs = service.counters().epochs.load();
    }
  }
  return true;
}

/// Serves the workload once with tracing on — 2 shards, 2 exec threads
/// per shard, so the dump shows per-query spans crossing both shard
/// and worker-thread rows — and writes the Chrome trace to `path`
/// (skipped when empty) plus one Prometheus metrics scrape to
/// `metrics_path` (skipped when empty).
bool RunTracedPass(const std::string& path,
                   const std::string& metrics_path,
                   const std::vector<WorkloadQuery>& workload) {
  ServiceOptions options;
  options.config = BaseConfig();
  options.config.sharing = SharingConfig::kAtcCl;
  options.config.batch_window_us = 50'000;
  options.config.num_shards = 2;
  options.config.exec_threads = 2;
  options.config.trace_buffer_events = 1 << 16;
  options.queue_capacity = kNumQueries;
  QueryService service(options);
  if (!service
           .BuildEachEngine(
               [](Engine& e) { return BuildGusDataset(e, SmallGus()); })
           .ok() ||
      !service.Start().ok()) {
    printf("traced pass setup failed\n");
    return false;
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kNumClients; ++c) {
    clients.emplace_back([&, c] {
      SessionId session =
          service.OpenSession("client-" + std::to_string(c)).value();
      std::vector<QueryTicket> tickets;
      for (size_t i = c; i < workload.size(); i += kNumClients) {
        auto ticket = service.Submit(session, workload[i].keywords,
                                     workload[i].options);
        if (ticket.ok()) tickets.push_back(ticket.value());
      }
      for (QueryTicket& ticket : tickets) ticket.Wait();
    });
  }
  for (std::thread& t : clients) t.join();
  if (!service.Shutdown().ok()) {
    printf("traced pass shutdown failed\n");
    return false;
  }
  if (!path.empty()) {
    Status dumped = service.DumpTrace(path);
    if (!dumped.ok()) {
      printf("trace dump failed: %s\n", dumped.ToString().c_str());
      return false;
    }
    printf("\ntrace written to %s (%lld events dropped) — open in "
           "chrome://tracing or Perfetto\n",
           path.c_str(),
           static_cast<long long>(service.tracer()->dropped()));
  }
  if (!metrics_path.empty()) {
    if (!qsys::bench::WriteTextFile(metrics_path,
                                    service.MetricsPrometheus())) {
      return false;
    }
    printf("metrics scrape written to %s\n", metrics_path.c_str());
  }
  printf("traced-pass metrics:\n%s", service.MetricsText().c_str());
  return true;
}

/// Parses --shards=1,2,4 (default) into a sweep list.
std::vector<int> ParseShardSweep(int argc, char** argv) {
  std::string spec = "1,2,4";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) spec = argv[i] + 9;
  }
  std::vector<int> shards;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    int n = std::atoi(spec.substr(pos, comma - pos).c_str());
    if (n > 0) shards.push_back(n);
    pos = comma + 1;
  }
  if (shards.empty()) shards.push_back(1);
  return shards;
}

/// Runs the workload through a deterministic (manual pump, single
/// submitter, drain shutdown) single-shard serve pass and returns its
/// aggregate ExecStats. Batch decomposition is fixed — kNumQueries
/// submitted up front in batches of batch_size — so the shared-work
/// counters are machine-independent.
bool RunDeterministicServe(const std::vector<WorkloadQuery>& workload,
                           ExecStats* stats, int64_t* completed) {
  ServiceOptions options;
  options.config = BaseConfig();
  options.config.sharing = SharingConfig::kAtcFull;
  options.config.batch_window_us = 50'000;
  options.queue_capacity = kNumQueries;
  options.manual_pump = true;
  // Tracing stays on for the CI tripwire: the sharing-ratio floors must
  // hold with the ring buffers recording (instrumentation must never
  // change what executes).
  options.config.trace_buffer_events = 1 << 14;
  QueryService service(options);
  if (!service
           .BuildEachEngine(
               [](Engine& e) { return BuildGusDataset(e, SmallGus()); })
           .ok() ||
      !service.Start().ok()) {
    printf("deterministic serve setup failed\n");
    return false;
  }
  SessionId session = service.OpenSession("ratio-check").value();
  std::vector<QueryTicket> tickets;
  for (const WorkloadQuery& q : workload) {
    auto ticket = service.Submit(session, q.keywords, q.options);
    if (ticket.ok()) tickets.push_back(ticket.value());
  }
  Status stop = service.Shutdown(QueryService::ShutdownMode::kDrain);
  if (!stop.ok()) {
    printf("deterministic serve shutdown failed: %s\n",
           stop.ToString().c_str());
    return false;
  }
  for (QueryTicket& t : tickets) t.Wait();
  *stats = service.stats_snapshot();
  *completed = service.counters().completed.load();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool ci_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0) ci_only = true;
  }
  printf("bench_serve_throughput: %d queries, %d client threads%s\n",
         kNumQueries, kNumClients,
         ci_only ? " (--ci: deterministic ratio check only)" : "");
  std::vector<WorkloadQuery> workload = MakeWorkload();

  // ---- isolated baseline: every query optimized and executed alone ----
  ExecStats isolated;
  int isolated_completed = 0;
  {
    QConfig config = BaseConfig();
    config.sharing = SharingConfig::kAtcCq;
    config.temporal_reuse = false;
    config.batch_size = 1;
    QSystem sim(config);
    Status built = BuildGusDataset(sim, SmallGus());
    if (!built.ok()) {
      printf("dataset build failed: %s\n", built.ToString().c_str());
      return 1;
    }
    // Spread arrivals far beyond the batch window so every query runs
    // in its own flush, sharing nothing.
    VirtualTime t = 0;
    for (const WorkloadQuery& q : workload) {
      sim.Pose(q.keywords, q.user_id, t, &q.options);
      t += 30'000'000;
    }
    Status run = sim.Run();
    if (!run.ok()) {
      printf("isolated run failed: %s\n", run.ToString().c_str());
      return 1;
    }
    isolated = sim.aggregate_stats();
    isolated_completed = static_cast<int>(sim.metrics().size());
  }

  ShapeChecker check;

  // ---- deterministic sharing-ratio check (the CI tripwire) ----
  {
    ExecStats det;
    int64_t det_completed = 0;
    if (!RunDeterministicServe(workload, &det, &det_completed)) return 1;
    auto ratio = [](int64_t a, int64_t b) {
      return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    double r_streamed = ratio(isolated.tuples_streamed, det.tuples_streamed);
    double r_probes = ratio(isolated.probes_issued, det.probes_issued);
    double r_join = ratio(isolated.join_probes, det.join_probes);
    printf("\ndeterministic sharing ratios (isolated / served, fixed "
           "batches):\n");
    printf("  tuples streamed %.2fx, probes issued %.2fx, join probes "
           "%.2fx (%lld completed)\n",
           r_streamed, r_probes, r_join,
           static_cast<long long>(det_completed));
    check.Check(det_completed == kNumQueries,
                "deterministic serve pass resolved the whole workload");
    // Floors with margin under the ratios this deterministic pass
    // measures (3.25x / 2.70x / 1.29x): a regression that erodes
    // sharing trips these long before it reaches parity.
    check.Check(r_streamed >= 3.0,
                "sharing ratio floor: tuples streamed >= 3.0x");
    check.Check(r_probes >= 2.0,
                "sharing ratio floor: probes issued >= 2.0x");
    check.Check(r_join >= 1.2,
                "sharing ratio floor: join probes >= 1.2x");
    if (ci_only) {
      BenchJson json("serve_sharing_ratios", argc, argv);
      json.Add("num_queries", kNumQueries);
      json.Add("completed", det_completed);
      json.Add("ratio.tuples_streamed", r_streamed);
      json.Add("ratio.probes_issued", r_probes);
      json.Add("ratio.join_probes", r_join);
      json.Write();
      return check.Finish();
    }
  }

  // ---- served: N client threads share one QueryService ----
  ServiceOptions options;
  options.config = BaseConfig();
  options.config.sharing = SharingConfig::kAtcFull;
  options.config.batch_window_us = 50'000;  // tight wall-clock window
  options.queue_capacity = kNumQueries;
  QueryService service(options);
  Status built = BuildGusDataset(service.engine(), SmallGus());
  if (!built.ok()) {
    printf("dataset build failed: %s\n", built.ToString().c_str());
    return 1;
  }
  Status start = service.Start();
  if (!start.ok()) {
    printf("service start failed: %s\n", start.ToString().c_str());
    return 1;
  }

  auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  std::mutex results_mu;
  int delivered = 0;
  int64_t result_tuples = 0;
  for (int c = 0; c < kNumClients; ++c) {
    clients.emplace_back([&, c] {
      SessionId session =
          service.OpenSession("client-" + std::to_string(c)).value();
      std::vector<QueryTicket> tickets;
      for (int i = c; i < kNumQueries; i += kNumClients) {
        auto ticket = service.Submit(session, workload[i].keywords,
                                     workload[i].options);
        if (ticket.ok()) tickets.push_back(ticket.value());
      }
      for (QueryTicket& t : tickets) {
        const QueryOutcome& out = t.Wait();
        std::lock_guard<std::mutex> lock(results_mu);
        if (out.status.ok()) {
          delivered += 1;
          result_tuples += static_cast<int64_t>(out.results.size());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  Status stop = service.Shutdown();
  if (!stop.ok()) {
    printf("service shutdown failed: %s\n", stop.ToString().c_str());
    return 1;
  }
  ExecStats shared = service.stats_snapshot();
  LatencyHistogram::Snapshot e2e =
      service.metrics().AggregateSnapshot(ServiceMetric::kEndToEndLatency);
  LatencyHistogram::Snapshot qwait =
      service.metrics().AggregateSnapshot(ServiceMetric::kQueueWait);

  int64_t submitted = service.counters().submitted.load();
  int64_t completed = service.counters().completed.load();
  int64_t failed = service.counters().failed.load();
  printf("\nserved: %lld submitted, %lld completed, %lld failed, "
         "%lld epochs, %lld batches\n",
         static_cast<long long>(submitted),
         static_cast<long long>(completed),
         static_cast<long long>(failed),
         static_cast<long long>(service.counters().epochs.load()),
         static_cast<long long>(service.counters().batches_flushed.load()));
  printf("wall time %.3f s  ->  %.1f queries/s (%d clients, %lld result "
         "tuples)\n",
         wall_seconds, static_cast<double>(completed) / wall_seconds,
         kNumClients, static_cast<long long>(result_tuples));
  printf("end-to-end latency: %s\n", e2e.ToString().c_str());
  printf("queue wait:         %s\n", qwait.ToString().c_str());
  printf("\n%-22s %14s %14s %8s\n", "total work", "isolated", "served",
         "ratio");
  auto row = [](const char* name, int64_t a, int64_t b) {
    printf("%-22s %14lld %14lld %7.2fx\n", name,
           static_cast<long long>(a), static_cast<long long>(b),
           b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0);
  };
  row("tuples streamed", isolated.tuples_streamed, shared.tuples_streamed);
  row("probes issued", isolated.probes_issued, shared.probes_issued);
  row("probe cache hits", isolated.probe_cache_hits,
      shared.probe_cache_hits);
  row("join probes", isolated.join_probes, shared.join_probes);

  BenchJson json("serve_throughput", argc, argv);
  json.Add("num_queries", kNumQueries);
  json.Add("num_clients", kNumClients);
  json.Add("submitted", submitted);
  json.Add("completed", completed);
  json.Add("failed", failed);
  json.Add("epochs", service.counters().epochs.load());
  json.Add("batches_flushed", service.counters().batches_flushed.load());
  json.Add("wall_seconds", wall_seconds);
  json.Add("queries_per_second",
           static_cast<double>(completed) / wall_seconds);
  json.Add("result_tuples", result_tuples);
  json.Add("latency_p50_us", e2e.p50_us);
  json.Add("latency_p99_us", e2e.p99_us);
  json.Add("latency_max_us", e2e.max_us);
  json.Add("queue_wait_p99_us", qwait.p99_us);
  json.Add("isolated.tuples_streamed", isolated.tuples_streamed);
  json.Add("isolated.probes_issued", isolated.probes_issued);
  json.Add("isolated.join_probes", isolated.join_probes);
  json.Add("served.tuples_streamed", shared.tuples_streamed);
  json.Add("served.probes_issued", shared.probes_issued);
  json.Add("served.join_probes", shared.join_probes);
  json.Write();

  check.Check(completed + failed == submitted &&
                  submitted == kNumQueries,
              "every submitted query resolved");
  check.Check(delivered == completed && completed > 0,
              "every completed query delivered ranked results");
  check.Check(isolated_completed + failed >= kNumQueries,
              "isolated baseline completed the same workload");
  check.Check(shared.tuples_streamed < isolated.tuples_streamed,
              "shared execution streams fewer tuples than isolated runs");
  check.Check(shared.probes_issued <= isolated.probes_issued,
              "shared execution issues no more probes");

  // ---- optional instrumented pass: --trace-out= / --metrics-out= ----
  std::string trace_out = qsys::bench::TraceOutPath(argc, argv);
  std::string metrics_out = qsys::bench::MetricsOutPath(argc, argv);
  if ((!trace_out.empty() || !metrics_out.empty()) &&
      !RunTracedPass(trace_out, metrics_out, workload)) {
    return 1;
  }

  // ---- shard-scaling sweep: same workload, 1..N shards ----
  std::vector<int> sweep = ParseShardSweep(argc, argv);
  printf("\nshard sweep:");
  for (int n : sweep) printf(" %d", n);
  printf(" (same %d-query workload, %d clients)\n", kNumQueries,
         kNumClients);
  std::vector<SweepRun> runs;
  for (int n : sweep) {
    SweepRun run;
    if (!RunShardedWorkload(n, workload, &run)) return 1;
    printf("  shards=%d: %.3f s wall, %.2f queries/s, %lld completed, "
           "%lld epochs\n",
           n, run.wall_seconds, run.qps,
           static_cast<long long>(run.completed),
           static_cast<long long>(run.epochs));
    runs.push_back(std::move(run));
  }

  bool equivalent = true;
  for (const SweepRun& run : runs) {
    for (size_t i = 0; i < workload.size(); ++i) {
      if (run.fingerprints[i] != runs.front().fingerprints[i]) {
        printf("  MISMATCH shards=%d query %zu (%s)\n", run.num_shards, i,
               workload[i].keywords.c_str());
        equivalent = false;
      }
    }
  }

  BenchJson scaling("shard_scaling", argc, argv);
  scaling.Add("num_queries", kNumQueries);
  scaling.Add("num_clients", kNumClients);
  for (const SweepRun& run : runs) {
    std::string prefix = "shards_" + std::to_string(run.num_shards);
    scaling.Add(prefix + ".wall_seconds", run.wall_seconds);
    scaling.Add(prefix + ".queries_per_second", run.qps);
    scaling.Add(prefix + ".completed", run.completed);
    scaling.Add(prefix + ".failed", run.failed);
    scaling.Add(prefix + ".epochs", run.epochs);
  }
  scaling.Add("byte_equivalent", static_cast<int64_t>(equivalent ? 1 : 0));
  scaling.Write();

  check.Check(equivalent,
              "per-UQ top-k byte-equivalent across all shard counts");
  for (const SweepRun& run : runs) {
    check.Check(run.completed + run.failed == kNumQueries,
                "shards=" + std::to_string(run.num_shards) +
                    " resolved the whole workload");
  }
  if (runs.size() >= 2 && runs[0].num_shards == 1) {
    check.Check(runs[1].qps > runs[0].qps,
                "served throughput strictly increases from " +
                    std::to_string(runs[0].num_shards) + " to " +
                    std::to_string(runs[1].num_shards) + " shards");
  }
  return check.Finish();
}
