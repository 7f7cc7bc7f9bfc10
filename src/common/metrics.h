// Execution metrics: the counters and virtual-time buckets from which
// every table and figure of the paper's evaluation is regenerated.

#ifndef QSYS_COMMON_METRICS_H_
#define QSYS_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/virtual_clock.h"

namespace qsys {

/// \brief Where a unit of virtual time was spent. Mirrors Figure 8's
/// breakdown: reading streaming sources, probing remote (random access)
/// sources, and in-middleware join work.
enum class TimeBucket { kStreamRead = 0, kRandomAccess, kJoin };

/// \brief Aggregated execution statistics for one ATC / plan graph.
///
/// All "time" fields are virtual microseconds (see VirtualClock); all
/// counters are exact. ExecStats are additive: operator code calls the
/// Charge*/Count* methods, experiment harnesses read the totals.
struct ExecStats {
  // -- virtual time, by bucket (Figure 8) --
  VirtualTime stream_read_us = 0;
  VirtualTime random_access_us = 0;
  VirtualTime join_us = 0;
  /// Wall time spent in the multi-query optimizer, converted to virtual
  /// microseconds and charged to the clock (Figures 7/9/11).
  VirtualTime optimize_us = 0;

  // -- work counters --
  /// Input tuples consumed from streaming sources (Figure 10's "work").
  int64_t tuples_streamed = 0;
  /// Remote probes actually issued (cache misses included, hits not).
  int64_t probes_issued = 0;
  /// Probe answers served from the middleware probe cache.
  int64_t probe_cache_hits = 0;
  /// Probes into in-memory join hash tables / access modules.
  int64_t join_probes = 0;
  /// Join result tuples produced by m-join operators.
  int64_t join_outputs = 0;
  /// Tuples routed through split operators (fan-out counted per branch).
  int64_t split_routed = 0;
  /// Top-k results emitted to users across all rank-merge operators.
  int64_t results_emitted = 0;
  /// Buffered tuples replayed through upstream producers at graft time
  /// to re-derive the joint prefix of a hierarchical plan (warm-state
  /// completeness; see PlanGrafter::RederivePrefixes).
  int64_t tuples_rederived = 0;
  /// Buffered tuples a warm graft did NOT re-offer because the
  /// producer's replay watermark showed them already replayed — the
  /// steady-state saving of the per-producer watermark over full
  /// replay-and-dedup.
  int64_t tuples_rederived_skipped = 0;
  /// Tuples a grafted query inherited from shared streams already
  /// advanced by earlier queries (the warm prefix it did not have to
  /// stream itself). Every unit here is attributed to exactly one
  /// consuming UQ and one producing UQ by the sharing-benefit profiler
  /// (see PlanGrafter and UserQueryMetrics::tuples_from_shared).
  int64_t tuples_shared_served = 0;

  /// Adds `delta_us` to the bucket's total.
  void Charge(TimeBucket bucket, VirtualTime delta_us) {
    switch (bucket) {
      case TimeBucket::kStreamRead:
        stream_read_us += delta_us;
        break;
      case TimeBucket::kRandomAccess:
        random_access_us += delta_us;
        break;
      case TimeBucket::kJoin:
        join_us += delta_us;
        break;
    }
  }

  /// Sum of the three execution buckets (excludes optimizer time).
  VirtualTime ExecTotalUs() const {
    return stream_read_us + random_access_us + join_us;
  }

  /// Accumulates another stats block into this one.
  void Merge(const ExecStats& other);
};

// ExecStats crosses shard boundaries through ExecStats::Merge, which
// enumerates fields by hand; a counter added here but not there would
// silently vanish from serve/shard observability. The size equality
// turns that into a compile error, and tests/obs_test.cc
// pattern-checks the enumeration.
static_assert(sizeof(ExecStats) == 14 * sizeof(int64_t),
              "ExecStats gained/lost a field: update ExecStats::Merge and "
              "the mirror test in tests/obs_test.cc");

/// \brief Counters of the disk-spill tier (src/buffer/): how much
/// evicted query state was demoted to disk instead of destroyed, and
/// what it cost to page it back in.
struct SpillStats {
  /// Pages written back to segment files (buffer-pool evictions +
  /// flushes).
  int64_t pages_written = 0;
  /// Pages read back from segment files.
  int64_t pages_read = 0;
  /// Buffer-pool misses that had to touch disk.
  int64_t page_faults = 0;
  /// Cache items (hash tables, probe caches) demoted to disk.
  int64_t items_spilled = 0;
  /// Spilled items restored into memory on demand.
  int64_t items_restored = 0;
  /// Bytes currently occupied by spill segments on disk.
  int64_t bytes_on_disk = 0;
  /// I/O faults the spill tier survived by degrading — demotion kept
  /// the victim in memory, a restore was retried or abandoned, a
  /// write-back stayed dirty in the pool — instead of losing answers.
  int64_t spill_faults = 0;
  /// Jittered-backoff waits taken between transient-read retry
  /// attempts (SpillManager::ReadPayload). A climbing value means the
  /// pool is riding out flaky reads instead of spinning on them.
  int64_t read_retry_waits = 0;

  /// One-line rendering for logs and bench output.
  std::string ToString() const;
};

static_assert(sizeof(SpillStats) == 8 * sizeof(int64_t),
              "SpillStats gained/lost a field: update ServiceCounters"
              "::StoreSpill/LoadSpill, the spill gauge aggregation in "
              "QueryService::AggregateSpillGauges, and the mirror test "
              "in tests/obs_test.cc");

/// \brief One shard's published state as of its last completed epoch.
/// The shard executor copies it out under one mutex after each epoch,
/// so a reader on any thread sees every field from the same epoch.
struct ShardStats {
  /// The engine's work counters, summed over its ATCs.
  ExecStats exec;
  /// The engine's spill-tier gauges (all zero when spilling is off).
  SpillStats spill;
  /// Live plan-graph operators plus replay streams, summed over the
  /// engine's ATCs (the qsys_plan_graph_operators gauge).
  int64_t plan_graph_operators = 0;
  /// Shared-execution epochs the shard has driven, across restarts.
  int64_t epochs = 0;
};

/// \brief Per-shard routing-decision counters: how many queries were
/// routed to a shard (local). Exported as the qsys_route_local_total
/// Prometheus family. Plain snapshot struct; the service keeps the
/// atomic originals.
struct RouteStats {
  int64_t local = 0;
};

/// \brief Admission/serving counters for the wall-clock query service.
///
/// Written with relaxed atomic increments from client threads (submit,
/// reject) and from the executor thread (complete, fail, epochs); read
/// by anyone without locking.
struct ServiceCounters {
  /// Queries accepted into the submit queue.
  std::atomic<int64_t> submitted{0};
  /// Queries refused admission (queue full / session over its in-flight
  /// cap / unknown session).
  std::atomic<int64_t> rejected{0};
  /// Queries whose top-k answer set was delivered.
  std::atomic<int64_t> completed{0};
  /// Queries that failed candidate generation.
  std::atomic<int64_t> failed{0};
  /// Queries cancelled by a non-draining shutdown.
  std::atomic<int64_t> cancelled{0};
  /// Shared-execution epochs driven (summed over all shard executors).
  std::atomic<int64_t> epochs{0};
  /// Batches flushed to the optimizer across all epochs and shards.
  std::atomic<int64_t> batches_flushed{0};

  // -- fault-tolerance counters (ShardSupervisor + retry path) --
  /// Re-submissions of a query after its shard failed or stalled
  /// (bounded exponential backoff; each attempt counts once).
  std::atomic<int64_t> retries{0};
  /// Queries resolved kDeadlineExceeded because their deadline expired
  /// before a shard delivered the answer.
  std::atomic<int64_t> deadline_exceeded{0};
  /// Shard engines torn down and replaced by the supervisor after a
  /// crash.
  std::atomic<int64_t> shard_restarts{0};

  // -- spill-tier gauges, mirrored from the engine's SpillStats after
  //    each epoch (all zero when spilling is disabled) --
  std::atomic<int64_t> spill_pages_written{0};
  std::atomic<int64_t> spill_pages_read{0};
  std::atomic<int64_t> spill_page_faults{0};
  std::atomic<int64_t> spill_items_spilled{0};
  std::atomic<int64_t> spill_items_restored{0};
  std::atomic<int64_t> spill_bytes_on_disk{0};
  std::atomic<int64_t> spill_io_faults{0};
  std::atomic<int64_t> spill_read_retry_waits{0};

  /// Publishes a fresh spill-tier snapshot (executor thread).
  void StoreSpill(const SpillStats& s) {
    spill_pages_written.store(s.pages_written, std::memory_order_relaxed);
    spill_pages_read.store(s.pages_read, std::memory_order_relaxed);
    spill_page_faults.store(s.page_faults, std::memory_order_relaxed);
    spill_items_spilled.store(s.items_spilled, std::memory_order_relaxed);
    spill_items_restored.store(s.items_restored,
                               std::memory_order_relaxed);
    spill_bytes_on_disk.store(s.bytes_on_disk, std::memory_order_relaxed);
    spill_io_faults.store(s.spill_faults, std::memory_order_relaxed);
    spill_read_retry_waits.store(s.read_retry_waits,
                                 std::memory_order_relaxed);
  }

  /// Reads the spill gauges back into a plain SpillStats.
  SpillStats LoadSpill() const {
    SpillStats s;
    s.pages_written = spill_pages_written.load(std::memory_order_relaxed);
    s.pages_read = spill_pages_read.load(std::memory_order_relaxed);
    s.page_faults = spill_page_faults.load(std::memory_order_relaxed);
    s.items_spilled = spill_items_spilled.load(std::memory_order_relaxed);
    s.items_restored =
        spill_items_restored.load(std::memory_order_relaxed);
    s.bytes_on_disk = spill_bytes_on_disk.load(std::memory_order_relaxed);
    s.spill_faults = spill_io_faults.load(std::memory_order_relaxed);
    s.read_retry_waits =
        spill_read_retry_waits.load(std::memory_order_relaxed);
    return s;
  }
};

/// \brief Per-user-query outcome: the latency and work numbers behind
/// Table 4 and Figures 7, 9, 10, 12.
struct UserQueryMetrics {
  int uq_id = 0;
  /// Virtual time the keyword query was posed.
  VirtualTime submit_time_us = 0;
  /// Virtual time its batch was optimized and grafted (execution start).
  VirtualTime start_time_us = 0;
  /// Virtual time its top-k answer set was completed.
  VirtualTime complete_time_us = 0;
  /// Number of conjunctive queries actually activated/executed (Table 4).
  int cqs_executed = 0;
  /// Number of conjunctive queries the UQ contained in total.
  int cqs_total = 0;
  /// Results returned (min(k, available)).
  int results = 0;
  /// Tuples this UQ's conjunctive queries inherited from shared state
  /// warmed by earlier queries (graft-time warm-stream prefixes). The
  /// sum over all resolved UQs equals ExecStats::tuples_shared_served
  /// exactly — tests/explain_test.cc pins the conservation identity.
  int64_t tuples_from_shared = 0;
  /// Estimated virtual microseconds of streaming work those inherited
  /// tuples would have cost if streamed fresh (the paper's Figure 7
  /// "per-query gain", as a live serving metric).
  VirtualTime est_saved_us = 0;

  /// End-to-end latency in virtual seconds (includes batching wait).
  double LatencySeconds() const {
    return ToSeconds(complete_time_us - submit_time_us);
  }
  /// Running time in virtual seconds: execution start to top-k complete
  /// (the paper's Figures 7/9/12 measure).
  double RunningSeconds() const {
    return ToSeconds(complete_time_us - start_time_us);
  }
};

}  // namespace qsys

#endif  // QSYS_COMMON_METRICS_H_
