// Sharded serving walkthrough: one QueryService fronting multiple
// independent Engines.
//
//   $ ./sharded_service
//
// The service routes each incoming keyword query by its canonical
// signature to one of QConfig::num_shards engine shards, each with its
// own executor thread, batcher, ATCs, and retained-state cache, all
// over one shared dataset. Routing is stable (the same logical query —
// any term order or casing — always lands on the shard that holds its
// reusable state), and each shard's rank-merge orders answers under
// one canonical total order, so the ranking a client sees is
// byte-identical to what a single-engine service would deliver.
//
// The walkthrough below:
//   1. builds a small bioinformatics catalog once, shared by every
//      shard, with QueryService::BuildEachEngine(),
//   2. serves overlapping keyword queries from three client threads,
//   3. prints which shard executed each query (QueryOutcome::shard) and
//      shows that term-order variants co-locate,
//   4. re-runs one query to show temporal reuse still works under
//      sharding (same shard, warmer counters),
//   5. prints the aggregated service counters.

#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/query_service.h"

using namespace qsys;

namespace {

// The quickstart's two-database catalog: proteins and genes bridged by
// a scored record-link table. Identical on every shard — sharding
// partitions the *query stream*, not the data.
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

}  // namespace

int main() {
  // 1. Configure a 3-shard service and build the shared catalog.
  ServiceOptions options;
  options.config.k = 3;
  options.config.batch_size = 4;
  options.config.batch_window_us = 20'000;  // 20 ms wall-clock window
  options.config.num_shards = 3;

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
  printf("serving on %d shards (canonical-signature routing)\n\n",
         service.num_shards());

  // 2. Three clients with overlapping keywords; note the term-order
  // variants — the canonical signature co-locates them.
  struct ClientScript {
    const char* name;
    std::vector<const char*> queries;
  };
  std::vector<ClientScript> scripts = {
      {"ana", {"membrane receptor", "kinase gene"}},
      {"ben", {"membrane gene", "receptor membrane"}},
      {"chloe", {"insulin receptor", "transport gene"}},
  };

  std::mutex print_mu;
  std::vector<std::thread> clients;
  for (const ClientScript& script : scripts) {
    clients.emplace_back([&service, &print_mu, script] {
      auto session = service.OpenSession(script.name);
      if (!session.ok()) return;
      std::vector<QueryTicket> tickets;
      std::vector<std::string> keywords;
      for (const char* q : script.queries) {
        auto ticket = service.Submit(session.value(), q);
        if (ticket.ok()) {
          tickets.push_back(ticket.value());
          keywords.push_back(q);
        }
      }
      for (size_t i = 0; i < tickets.size(); ++i) {
        // 3. QueryOutcome::shard says where the query executed.
        const QueryOutcome& out = tickets[i].Wait();
        std::lock_guard<std::mutex> lock(print_mu);
        printf("[%s] \"%s\" -> shard %d, %s, %zu results\n", script.name,
               keywords[i].c_str(), out.shard,
               out.status.ToString().c_str(), out.results.size());
        for (const ResultTuple& r : out.results) {
          printf("    score %.3f\n", r.score);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // 4. A repeat lands on the same shard and reuses its retained state.
  auto session = service.OpenSession("repeat");
  if (session.ok()) {
    auto ticket = service.Submit(session.value(), "RECEPTOR membrane");
    if (ticket.ok()) {
      const QueryOutcome& out = ticket.value().Wait();
      printf("\nrepeat \"RECEPTOR membrane\" -> shard %d (same as "
             "\"membrane receptor\": stable routing)\n",
             out.shard);
    }
  }

  Status stopped = service.Shutdown();
  if (!stopped.ok()) {
    printf("shutdown failed: %s\n", stopped.ToString().c_str());
    return 1;
  }

  // 5. Aggregated counters: epochs/batches sum over every shard.
  ExecStats stats = service.stats_snapshot();
  printf("\naggregated over %d shards: %lld completed, %lld epochs, "
         "%lld batches, %lld tuples streamed, %lld probes issued\n",
         service.num_shards(),
         static_cast<long long>(service.counters().completed.load()),
         static_cast<long long>(service.counters().epochs.load()),
         static_cast<long long>(service.counters().batches_flushed.load()),
         static_cast<long long>(stats.tuples_streamed),
         static_cast<long long>(stats.probes_issued));
  for (int s = 0; s < service.num_shards(); ++s) {
    ExecStats shard = service.shard_stats(s);
    printf("  shard %d: %lld epochs, %lld tuples streamed\n", s,
           static_cast<long long>(service.shard_epochs(s)),
           static_cast<long long>(shard.tuples_streamed));
  }
  return 0;
}
