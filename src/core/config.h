// System-wide configuration of the Q System reproduction.

#ifndef QSYS_CORE_CONFIG_H_
#define QSYS_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/keyword/candidate_gen.h"
#include "src/opt/optimizer.h"
#include "src/qs/cluster.h"
#include "src/qs/eviction.h"
#include "src/source/delay_model.h"

namespace qsys {

/// \brief The four evaluation configurations of §7.1.
enum class SharingConfig {
  /// Every conjunctive query optimized and executed in isolation.
  kAtcCq,
  /// Subexpression sharing within each user query only.
  kAtcUq,
  /// One shared plan graph across all user queries over time.
  kAtcFull,
  /// Clustered user queries, one plan graph + ATC per cluster (§6.1).
  kAtcCl,
};

const char* SharingConfigName(SharingConfig c);

/// \brief Top-level configuration for a QSystem instance.
struct QConfig {
  SharingConfig sharing = SharingConfig::kAtcFull;

  /// Results per user query (the paper reports top-50).
  int k = 50;

  /// Query batcher: group size (the paper's experiments use 5) and the
  /// maximum time a query waits for its batch to fill.
  int batch_size = 5;
  VirtualTime batch_window_us = 2'000'000;

  /// Simulated wide-area delays (§7 "Delays").
  DelayParams delays;

  /// Master seed for the delay sampler.
  uint64_t seed = 42;

  /// Adaptive probe-sequence reordering in m-joins (§4.1); disable for
  /// the ablation.
  bool adaptive_probing = true;

  /// Whether state retained from earlier batches may be reused (§6).
  /// Disabled only by the SINGLE-OPT baseline of Figure 9, which answers
  /// every query strictly from its own reads — our canonical-signature
  /// reuse otherwise recovers most sharing even for individually
  /// optimized queries (see EXPERIMENTS.md).
  bool temporal_reuse = true;

  /// Optimizer knobs (§5).
  PruningOptions pruning;
  int max_subexpr_atoms = 4;

  /// Clustering thresholds Tm / Tc (§6.1), ATC-CL only.
  ClusterOptions clustering;

  /// Cache budget and replacement policy (§6.3).
  int64_t memory_budget_bytes = int64_t{256} << 20;
  EvictionPolicy eviction = EvictionPolicy::kLruSize;

  /// Disk-spill tier (src/buffer/): when non-empty, state evicted under
  /// memory pressure is demoted to a page file under this directory —
  /// and faulted back on demand — instead of destroyed. Empty disables
  /// spilling (evictions destroy state, the paper's §6.3 behavior).
  /// Each engine claims a private scratch subdirectory inside it, so
  /// engines may safely share one configured directory.
  std::string spill_dir;
  /// Buffer-pool frames (of kPageSize bytes) staging spill pages. The
  /// pool is fixed-size and separate from memory_budget_bytes. A page
  /// reaches disk only when its frame is recycled for another page.
  int spill_pool_frames = 64;

  /// Serving-layer sharding (src/shard/): number of independent Engines
  /// behind one QueryService, all over one shared dataset, each with
  /// its own executor thread, batcher, ATCs, state manager, and
  /// (optional) spill tier. 1 keeps the single-engine behavior; the
  /// simulator (QSystem) ignores this.
  int num_shards = 1;

  /// Intra-shard parallelism (multi-core epochs): number of executors
  /// driving one engine's ATC scheduling rounds concurrently. The
  /// thread driving Engine::Drain (a shard's executor, or the
  /// simulator's Run()) coordinates (flush/optimize/graft/evict stay
  /// serialized on it) and `exec_threads - 1` pool workers join it for
  /// the per-ATC drain segments, each ATC under its own lock. Per-UQ
  /// top-k answers are byte-equivalent at every thread count (ATCs
  /// share no mutable execution state — disjoint sharing scopes,
  /// per-ATC delay samplers). 1 (default) spawns no workers. Only pays
  /// off with multiple ATCs per engine (SharingConfig::kAtcCl).
  int exec_threads = 1;

  /// Observability (src/obs/): per-thread trace ring-buffer capacity,
  /// in events. When > 0 the serving layer records lifecycle spans
  /// (admit, queue wait, batch window, optimize, graft, per-ATC epoch
  /// execution, spill traffic, completion) into lock-free drop-oldest
  /// ring buffers, exported via QueryService::DumpTrace() in Chrome
  /// trace_event format. 0 (default) disables tracing entirely — no
  /// buffers are allocated and every record site is a null-pointer
  /// check. Latency histograms (QueryService::metrics()) are always on;
  /// they are a handful of relaxed atomic adds per query.
  int trace_buffer_events = 0;

  /// Decision journal (src/obs/explain.h): number of resolved user
  /// queries whose decision records are retained for
  /// QueryService::Explain(uq). When > 0 every sharing decision —
  /// cluster assignment, optimizer plan choice with costed
  /// alternatives, graft-vs-fresh per plan component, replay vs
  /// watermark skip, eviction victim scoring — appends one bounded
  /// structured event to the journal. 0 (default) disables the journal
  /// entirely: no allocation, and every record site is a single
  /// null-pointer check.
  int explain_journal_queries = 0;

  /// Conversion factor from measured optimizer wall time to virtual
  /// time charged on the clock.
  double opt_time_multiplier = 1.0;

  /// Safety cap on ATC scheduling rounds per run (defensive; 0 = none).
  int64_t max_rounds = 0;
};

}  // namespace qsys

#endif  // QSYS_CORE_CONFIG_H_
