// Trace-event collection for the serving stack: a lock-free, per-thread
// ring buffer of fixed-size span/instant events covering one query's
// whole lifecycle (admit -> queue wait -> batch window -> optimize ->
// graft -> per-epoch ATC execution -> completion -> resolve) plus
// engine-level events (flush, eviction, spill demote/restore,
// write-back barrier).
//
// Design constraints, in order:
//   * Zero allocation and no locks on the hot path. Record() writes one
//     fixed-size slot in the calling thread's private ring buffer;
//     thread registration (the only locked/allocating operation)
//     happens once per (thread, tracer) pair.
//   * Drop-oldest. The ring overwrites its oldest slot when full — a
//     long serve run keeps the most recent QConfig::trace_buffer_events
//     events per thread rather than growing without bound.
//   * TSan-clean concurrent snapshots. Snapshot() may run while writers
//     record: every slot is a tiny seqlock (an odd/even sequence word
//     around relaxed atomic payload words), so a reader either gets a
//     consistent event or detects the tear and skips the slot. There is
//     exactly one writer per buffer, so writers never contend.
//
// Timestamps are wall microseconds since the owning service's Start()
// (set_time_zero), i.e. the same virtual timeline the serving layer
// stamps on UserQuery::submit_time_us — spans recorded from engine
// code and spans derived from query metrics line up in one trace.

#ifndef QSYS_OBS_TRACE_H_
#define QSYS_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace qsys {

/// \brief What one trace event records. Span types carry a duration
/// (Chrome "X" complete events); the rest are instants ("i").
enum class TraceEventType : uint8_t {
  // -- query lifecycle --
  kAdmit = 0,        ///< instant: query accepted into a shard queue
  kReject,           ///< instant: admission refused (backpressure)
  kQueueWait,        ///< span: submit queue entry -> engine ingest
  kBatchWait,        ///< span: ingest -> batch flush (the batch window)
  kComplete,         ///< instant: top-k merge completed in the engine
  kResolve,          ///< instant: ticket resolved to the client
  // -- engine events --
  kFlush,            ///< span: one batch flush (optimize + graft)
  kOptimize,         ///< span: multi-query optimizer run
  kGraft,            ///< span: grafting the optimized groups
  kRederive,         ///< instant: warm-graft prefix tuples re-derived
  kWatermarkSkip,    ///< instant: replays skipped via the watermark
  kEpoch,            ///< span: one shard serving epoch (Engine::Drain)
  kAtcExec,          ///< span: one ATC's scheduling rounds in an epoch
  kEvict,            ///< instant: state-manager budget enforcement
  kSpillDemote,      ///< span: cache item serialized to the spill tier
  kSpillRestore,     ///< span: spilled item faulted back from disk
  kWriteBackBarrier, ///< span: never recorded (spill I/O is synchronous);
                     ///< kept because servebench reads it
  // -- fault tolerance --
  kRetry,            ///< instant: query re-submitted after a shard failure
  kDeadlineExceeded, ///< instant: query resolved past its deadline
  kShardRestart,     ///< instant: crashed shard engine restarted
};

/// Number of distinct TraceEventType values.
inline constexpr int kNumTraceEventTypes =
    static_cast<int>(TraceEventType::kShardRestart) + 1;

/// Stable lower-case name ("admit", "queue_wait", ...) used as the
/// Chrome-trace event name.
const char* TraceEventTypeName(TraceEventType type);

/// Whether the type is a duration span (vs. an instant).
bool TraceEventIsSpan(TraceEventType type);

/// \brief One decoded trace event.
struct TraceEvent {
  TraceEventType type = TraceEventType::kAdmit;
  /// Wall microseconds since the tracer's time zero (service Start()).
  int64_t ts_us = 0;
  /// Span duration in microseconds (0 for instants).
  int64_t dur_us = 0;
  /// Free per-type payload (batch size, rounds, bytes, victims, ...).
  int64_t arg = 0;
  /// User-query id, or -1 for engine-level events.
  int32_t uq_id = -1;
  /// Owning shard, or -1 for service-level events.
  int16_t shard = -1;
  /// ATC (plan graph) id, or -1 when not ATC-scoped.
  int16_t atc = -1;
  /// Recording thread (registration order); filled by Snapshot().
  int tid = 0;
};

/// \brief Collects TraceEvents from any number of threads.
///
/// One instance per QueryService; shards and engines share it and tag
/// their events with their shard id. Record() is safe from any thread
/// and wait-free; Snapshot() is safe concurrently with writers.
class Tracer {
 public:
  /// A tracer whose per-thread rings hold `buffer_events` events each
  /// (rounded up to at least 2).
  explicit Tracer(int buffer_events);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Anchors NowUs() == 0 at `t0` (the service's start_wall_).
  void set_time_zero(std::chrono::steady_clock::time_point t0) { t0_ = t0; }

  /// Wall microseconds since the time zero.
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  /// Records one event into the calling thread's ring.
  void Record(const TraceEvent& event);

  /// Convenience: records a duration span starting at `ts_us`.
  void Span(TraceEventType type, int64_t ts_us, int64_t dur_us, int shard,
            int uq_id = -1, int atc = -1, int64_t arg = 0);

  /// Convenience: records an instant stamped NowUs().
  void Instant(TraceEventType type, int shard, int uq_id = -1, int atc = -1,
               int64_t arg = 0);

  /// A consistent copy of every live (non-overwritten, non-torn) event,
  /// stably sorted by timestamp, with `tid` filled in. Safe while
  /// writers are still recording: a slot overwritten mid-read is
  /// skipped (it counts as dropped-oldest).
  std::vector<TraceEvent> Snapshot() const;

  /// Events overwritten by drop-oldest so far (sum over threads;
  /// approximate while writers are active).
  int64_t dropped() const;

  /// Per-thread ring capacity in events.
  int buffer_events() const { return capacity_; }

 private:
  /// One ring slot: a seqlock. `seq` is odd while the (single) writer
  /// is mid-update; payload words are relaxed atomics so concurrent
  /// snapshot reads are race-free by construction. 5 payload words:
  /// ts, dur, arg, uq, and type|shard|atc packed.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> word[5];
  };

  /// Single-writer ring buffer; one per (thread, tracer).
  struct ThreadBuffer {
    ThreadBuffer(int capacity, int tid);
    /// Writer side of the seqlock (the owning thread only).
    void Write(const TraceEvent& event);

    const int capacity;
    const int tid;
    /// Total events ever written; head % capacity is the next slot.
    std::atomic<uint64_t> head{0};
    std::unique_ptr<Slot[]> slots;
  };

  /// The calling thread's buffer, registering it on first use.
  ThreadBuffer* Local();

  const int capacity_;
  /// Globally unique tracer id keying the per-thread buffer cache.
  const uint64_t tracer_id_;
  std::chrono::steady_clock::time_point t0_;

  /// Guards registration and the buffer list (never the hot path).
  mutable std::mutex reg_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace qsys

#endif  // QSYS_OBS_TRACE_H_
