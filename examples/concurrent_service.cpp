// Concurrent serving: four client threads share one QueryService.
//
//   $ ./concurrent_service
//   $ ./concurrent_service --trace-out=trace.json
//   $ ./concurrent_service --metrics-out=metrics.prom
//
// Each client opens a session and submits overlapping keyword queries
// on real wall-clock time. The service batches whatever arrives within
// the batch window, multi-query-optimizes the batch, grafts it onto the
// shared plan graph, and streams each client its ranked top-k back
// through its ticket future — the paper's work-sharing machinery, run
// as an online service instead of a simulation.
//
// With --trace-out or --metrics-out the run serves from two shards with
// two exec threads each and records every span (admit, queue wait,
// batch window, optimize, graft, epochs, per-ATC execution, resolve).
// --trace-out writes a Chrome trace_event JSON to the given path (open
// in chrome://tracing or Perfetto); --metrics-out writes two Prometheus
// text-exposition scrapes — PATH.mid mid-run and PATH after shutdown,
// so tools/check_metrics.py can verify format and counter monotonicity.
// The instrumented run also prints the final Prometheus scrape, enables
// the decision journal and prints one query's Explain() — every sharing
// decision made on its behalf.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/query_service.h"

using namespace qsys;

namespace {

// The quickstart's two-database catalog: proteins and genes bridged by
// a scored record-link table.
Status BuildCatalog(Engine& engine) {
  Catalog& catalog = engine.catalog();

  TableSchema protein("protein", {{"id", FieldType::kInt},
                                  {"name", FieldType::kString},
                                  {"description", FieldType::kString},
                                  {"relevance", FieldType::kDouble}});
  protein.set_key_field(0);
  protein.set_score_field(3);
  QSYS_ASSIGN_OR_RETURN(TableId protein_id,
                        catalog.AddTable(std::move(protein)));

  TableSchema gene("gene", {{"id", FieldType::kInt},
                            {"name", FieldType::kString},
                            {"description", FieldType::kString},
                            {"relevance", FieldType::kDouble}});
  gene.set_key_field(0);
  gene.set_score_field(3);
  QSYS_ASSIGN_OR_RETURN(TableId gene_id, catalog.AddTable(std::move(gene)));

  TableSchema link("protein2gene", {{"id", FieldType::kInt},
                                    {"protein_id", FieldType::kInt},
                                    {"gene_id", FieldType::kInt},
                                    {"similarity", FieldType::kDouble}});
  link.set_key_field(0);
  link.set_score_field(3);
  QSYS_ASSIGN_OR_RETURN(TableId link_id, catalog.AddTable(std::move(link)));

  const char* proteins[][2] = {
      {"EGFR kinase", "membrane receptor kinase"},
      {"INSR receptor", "insulin membrane receptor"},
      {"TP53 factor", "tumor suppressor factor"},
      {"AQP1 channel", "water transport channel"},
  };
  for (int i = 0; i < 4; ++i) {
    QSYS_RETURN_IF_ERROR(
        catalog.table(protein_id)
            .AddRow({Value(int64_t{i}), Value(proteins[i][0]),
                     Value(proteins[i][1]), Value(0.95 - 0.1 * i)}));
  }
  const char* genes[][2] = {
      {"EGFR", "growth factor receptor gene"},
      {"INS", "insulin gene"},
      {"TP53", "tumor protein gene"},
      {"AQP1", "aquaporin transport gene"},
  };
  for (int i = 0; i < 4; ++i) {
    QSYS_RETURN_IF_ERROR(
        catalog.table(gene_id)
            .AddRow({Value(int64_t{i}), Value(genes[i][0]),
                     Value(genes[i][1]), Value(0.9 - 0.1 * i)}));
  }
  int link_row = 0;
  for (int p = 0; p < 4; ++p) {
    QSYS_RETURN_IF_ERROR(
        catalog.table(link_id)
            .AddRow({Value(int64_t{link_row++}), Value(int64_t{p}),
                     Value(int64_t{p}), Value(0.8 + 0.04 * p)}));
  }

  SchemaGraph& graph = engine.InitSchemaGraph();
  QSYS_RETURN_IF_ERROR(
      graph.AddEdge(link_id, "protein_id", protein_id, "id", 0.8)
          .status());
  QSYS_RETURN_IF_ERROR(
      graph.AddEdge(link_id, "gene_id", gene_id, "id", 0.9).status());
  return Status::OK();
}

struct ClientScript {
  const char* name;
  std::vector<const char*> queries;
};

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    printf("cannot open %s for writing\n", path.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) printf("short write to %s\n", path.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    }
  }
  const bool instrumented = !trace_out.empty() || !metrics_out.empty();

  ServiceOptions options;
  options.config.k = 3;
  options.config.batch_size = 4;
  options.config.batch_window_us = 20'000;  // 20 ms wall-clock window
  if (instrumented) {
    // The instrumented run exercises the full thread surface so the
    // dump has something to show: two shards, two exec threads per
    // shard, plus the decision journal for Explain().
    options.config.num_shards = 2;
    options.config.exec_threads = 2;
    options.config.trace_buffer_events = 1 << 14;
    options.config.explain_journal_queries = 64;
  }

  QueryService service(options);
  Status built = service.BuildEachEngine(BuildCatalog);
  if (!built.ok()) {
    printf("catalog build failed: %s\n", built.ToString().c_str());
    return 1;
  }
  Status started = service.Start();
  if (!started.ok()) {
    printf("start failed: %s\n", started.ToString().c_str());
    return 1;
  }

  // Four clients, deliberately overlapping keywords so the optimizer
  // has common subexpressions to share.
  std::vector<ClientScript> scripts = {
      {"ana", {"membrane receptor", "kinase gene"}},
      {"ben", {"membrane gene", "insulin receptor"}},
      {"chloe", {"receptor gene", "membrane receptor"}},
      {"dana", {"transport gene", "membrane kinase"}},
  };

  std::mutex print_mu;
  std::atomic<int> first_uq{-1};
  std::vector<std::thread> clients;
  for (const ClientScript& script : scripts) {
    clients.emplace_back([&service, &print_mu, &first_uq, script] {
      auto session = service.OpenSession(script.name);
      if (!session.ok()) return;
      std::vector<QueryTicket> tickets;
      std::vector<std::string> keywords;
      for (const char* q : script.queries) {
        auto ticket = service.Submit(session.value(), q);
        if (ticket.ok()) {
          int expected = -1;
          first_uq.compare_exchange_strong(expected,
                                           ticket.value().uq_id());
          tickets.push_back(ticket.value());
          keywords.push_back(q);
        }
      }
      for (size_t i = 0; i < tickets.size(); ++i) {
        const QueryOutcome& out = tickets[i].Wait();
        std::lock_guard<std::mutex> lock(print_mu);
        printf("[%s] \"%s\" -> %s, %zu results\n", script.name,
               keywords[i].c_str(), out.status.ToString().c_str(),
               out.results.size());
        for (const ResultTuple& r : out.results) {
          printf("    score %.3f (cq %d)\n", r.score, r.cq_id);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  if (!metrics_out.empty()) {
    // Mid-run scrape (every client resolved, shards still serving):
    // check_metrics.py verifies every counter is monotone between this
    // scrape and the final one.
    if (!WriteTextFile(metrics_out + ".mid", service.MetricsPrometheus())) {
      return 1;
    }
  }
  Status stopped = service.Shutdown();
  if (!stopped.ok()) {
    printf("shutdown failed: %s\n", stopped.ToString().c_str());
    return 1;
  }

  ExecStats stats = service.stats_snapshot();
  printf("\nshared-work counters across all clients:\n");
  printf("  epochs %lld, batches %lld, tuples streamed %lld, probes "
         "issued %lld, probe cache hits %lld\n",
         static_cast<long long>(service.counters().epochs.load()),
         static_cast<long long>(service.counters().batches_flushed.load()),
         static_cast<long long>(stats.tuples_streamed),
         static_cast<long long>(stats.probes_issued),
         static_cast<long long>(stats.probe_cache_hits));
  printf("  %lld queries completed across %zu sessions\n",
         static_cast<long long>(service.counters().completed.load()),
         scripts.size());

  if (!trace_out.empty()) {
    Status dumped = service.DumpTrace(trace_out);
    if (!dumped.ok()) {
      printf("trace dump failed: %s\n", dumped.ToString().c_str());
      return 1;
    }
    printf("trace written to %s — open in chrome://tracing or Perfetto\n",
           trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    if (!WriteTextFile(metrics_out, service.MetricsPrometheus())) return 1;
    printf("metrics scrapes written to %s.mid and %s\n",
           metrics_out.c_str(), metrics_out.c_str());
  }
  if (instrumented) {
    printf("\nmetrics scrape (Prometheus text):\n%s",
           service.MetricsPrometheus().c_str());
    // One query's decision journal: which ATC its batch joined, the
    // costed optimizer alternatives, graft reuse-vs-fresh, and whose
    // shared state it benefited from.
    if (first_uq.load() >= 0) {
      auto explained = service.Explain(first_uq.load());
      if (explained.ok()) {
        printf("\n%s", explained.value().c_str());
      }
    }
  }
  return 0;
}
