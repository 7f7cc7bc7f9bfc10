// Multi-core epochs bench: one shard, clustered sharing (ATC-CL = up
// to clustering.max_plan_graphs independent plan graphs per engine),
// swept over QConfig::exec_threads.
//
//   * a deterministic pass (manual pump, single submitter, drain
//     shutdown) per thread count whose per-UQ fingerprints must be
//     byte-equivalent across the whole sweep — the correctness bar of
//     the parallel executor;
//   * threaded passes (concurrent clients, live executor + worker
//     pool) measuring shard-local served throughput (best of three).
//
// Shape expectations: every query is answered and every thread count
// returns byte-identical per-UQ top-k. On a multi-core host the multi-
// threaded sweep entries must beat the 1-thread baseline; on a 1-core
// container the ratio is recorded but not asserted (there is nothing
// to win). Emits BENCH_atc_parallel.json.

#include <chrono>
#include <cstdio>
#include <cstring>
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
  config.batch_window_us = 50'000;
  config.max_rounds = 200'000'000;
  // Clustered sharing: several independent ATCs per engine — the
  // configuration intra-shard parallelism can actually spread across
  // cores.
  config.sharing = SharingConfig::kAtcCl;
  return config;
}


struct SweepRun {
  int exec_threads = 1;
  double wall_seconds = 0.0;
  double qps = 0.0;
  int64_t completed = 0;
  int64_t failed = 0;
  int num_atcs = 0;
  /// End-to-end latency distribution of the best threaded pass.
  LatencyHistogram::Snapshot latency;
  std::vector<std::string> fingerprints;
};

bool RunThreadCount(int exec_threads,
                    const std::vector<WorkloadQuery>& workload,
                    SweepRun* run) {
  run->exec_threads = exec_threads;
  ServiceOptions options;
  options.config = BaseConfig();
  options.config.exec_threads = exec_threads;
  options.queue_capacity = kNumQueries;

  // ---- deterministic pass: per-UQ fingerprints ----
  {
    ServiceOptions det = options;
    det.manual_pump = true;
    QueryService service(det);
    if (!service
             .BuildEachEngine(
                 [](Engine& e) { return BuildGusDataset(e, SmallGus()); })
             .ok() ||
        !service.Start().ok()) {
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
    run->num_atcs = service.shard_engine(0).num_atcs();
    run->fingerprints.assign(workload.size(), "");
    for (auto& [index, ticket] : tickets) {
      const QueryOutcome& out = ticket.Wait();
      if (out.status.ok()) {
        run->fingerprints[index] = FingerprintResults(out.results);
      }
    }
  }

  // ---- threaded passes: shard-local throughput (best of three — a
  // single wall-clock timing on a busy host is noisy enough to flip
  // the multi-core speedup check spuriously) ----
  for (int attempt = 0; attempt < 3; ++attempt) {
    QueryService service(options);
    if (!service
             .BuildEachEngine(
                 [](Engine& e) { return BuildGusDataset(e, SmallGus()); })
             .ok() ||
        !service.Start().ok()) {
      printf("threaded pass setup failed\n");
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
      run->latency = service.metrics().AggregateSnapshot(
          ServiceMetric::kEndToEndLatency);
    }
  }
  return true;
}

/// Serves the workload once with tracing on (exec_threads=2, ATC-CL,
/// one shard) and writes the Chrome trace to `path` — the per-ATC
/// execution slices inside each epoch are the interesting rows here.
/// Also writes one Prometheus metrics scrape to `metrics_path` when
/// non-empty (either path may be empty to skip that output).
bool RunTracedPass(const std::string& path,
                   const std::string& metrics_path,
                   const std::vector<WorkloadQuery>& workload) {
  ServiceOptions options;
  options.config = BaseConfig();
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
    printf("trace written to %s (%lld events dropped) — open in "
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
  return true;
}

/// Parses --exec-threads=1,2,4 (default) into the sweep list.
std::vector<int> ParseThreadSweep(int argc, char** argv) {
  std::string spec = "1,2,4";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--exec-threads=", 15) == 0) {
      spec = argv[i] + 15;
    }
  }
  std::vector<int> threads;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    int n = std::atoi(spec.substr(pos, comma - pos).c_str());
    if (n > 0) threads.push_back(n);
    pos = comma + 1;
  }
  if (threads.empty()) threads.push_back(1);
  return threads;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned cores = std::thread::hardware_concurrency();
  std::vector<int> sweep = ParseThreadSweep(argc, argv);
  printf("bench_atc_parallel: %d queries, %d clients, ATC-CL, "
         "%u hardware threads, exec-threads sweep:",
         kNumQueries, kNumClients, cores);
  for (int n : sweep) printf(" %d", n);
  printf("\n");
  std::vector<WorkloadQuery> workload = MakeWorkload();

  std::vector<SweepRun> runs;
  for (int n : sweep) {
    SweepRun run;
    if (!RunThreadCount(n, workload, &run)) return 1;
    printf("  exec_threads=%d: %.3f s wall, %.2f queries/s, "
           "%lld completed, %d ATCs, latency p50=%lldus p99=%lldus\n",
           n, run.wall_seconds, run.qps,
           static_cast<long long>(run.completed), run.num_atcs,
           static_cast<long long>(run.latency.p50_us),
           static_cast<long long>(run.latency.p99_us));
    runs.push_back(std::move(run));
  }

  bool equivalent = true;
  int det_completed = 0;
  for (const SweepRun& run : runs) {
    for (size_t i = 0; i < workload.size(); ++i) {
      if (run.fingerprints[i] != runs.front().fingerprints[i]) {
        printf("  MISMATCH exec_threads=%d query %zu (%s)\n",
               run.exec_threads, i, workload[i].keywords.c_str());
        equivalent = false;
      }
    }
  }
  for (const std::string& f : runs.front().fingerprints) {
    if (!f.empty()) det_completed += 1;
  }

  double best_parallel_qps = 0.0;
  double base_qps = 0.0;
  for (const SweepRun& run : runs) {
    if (run.exec_threads == 1) base_qps = run.qps;
    if (run.exec_threads >= 2 && run.qps > best_parallel_qps) {
      best_parallel_qps = run.qps;
    }
  }
  double speedup = base_qps > 0 ? best_parallel_qps / base_qps : 0.0;
  if (best_parallel_qps > 0) {
    printf("parallel speedup (best >=2-thread vs 1-thread): %.2fx\n",
           speedup);
  }

  BenchJson json("atc_parallel", argc, argv);
  json.Add("num_queries", kNumQueries);
  json.Add("num_clients", kNumClients);
  json.Add("hardware_threads", static_cast<int64_t>(cores));
  for (const SweepRun& run : runs) {
    std::string prefix = "threads_" + std::to_string(run.exec_threads);
    json.Add(prefix + ".wall_seconds", run.wall_seconds);
    json.Add(prefix + ".queries_per_second", run.qps);
    json.Add(prefix + ".completed", run.completed);
    json.Add(prefix + ".failed", run.failed);
    json.Add(prefix + ".num_atcs", run.num_atcs);
    json.Add(prefix + ".latency_p50_us", run.latency.p50_us);
    json.Add(prefix + ".latency_p99_us", run.latency.p99_us);
  }
  json.Add("parallel_speedup", speedup);
  json.Add("byte_equivalent", static_cast<int64_t>(equivalent ? 1 : 0));
  json.Write();

  std::string trace_out = qsys::bench::TraceOutPath(argc, argv);
  std::string metrics_out = qsys::bench::MetricsOutPath(argc, argv);
  if ((!trace_out.empty() || !metrics_out.empty()) &&
      !RunTracedPass(trace_out, metrics_out, workload)) {
    return 1;
  }

  ShapeChecker check;
  // Guards the equivalence check against passing vacuously on
  // all-empty fingerprints: the deterministic pass must actually
  // answer the workload.
  check.Check(det_completed == kNumQueries,
              "deterministic pass resolved every query with results");
  check.Check(equivalent,
              "per-UQ top-k byte-equivalent across all exec-thread counts");
  for (const SweepRun& run : runs) {
    check.Check(run.completed == kNumQueries,
                "exec_threads=" + std::to_string(run.exec_threads) +
                    " answered the whole workload");
  }
  check.Check(runs.front().num_atcs > 1,
              "clustered sharing built multiple ATCs per engine");
  if (cores >= 2) {
    // Only meaningful when there are cores to spread across. A baseline
    // that answered nothing is no baseline: that fails the check.
    check.Check(base_qps > 0 && best_parallel_qps > base_qps,
                "multi-threaded epochs beat the 1-thread baseline on a "
                "multi-core host");
  } else {
    printf("  [shape skip] single-core host: speedup recorded (%.2fx) "
           "but not asserted\n",
           speedup);
  }
  return check.Finish();
}
