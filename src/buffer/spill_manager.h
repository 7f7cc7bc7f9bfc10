// SpillManager: serialization of evictable query state into the page
// tier (EMBANKS-style disk demotion for keyword-search middleware).
//
// Under memory pressure the state manager evicts hash tables and probe
// caches. With a SpillManager attached, the payload is serialized into
// pages of the spill SegmentFile before the memory is freed; the
// next batch that wants the state faults it back in (graft backfill,
// operator reuse, probe-cache miss) instead of re-executing against
// the remote sources.
//
// Serialization preserves exactly what recovery and grafting rely on
// (§6.2): composite tuples are written in arrival order with their
// epoch tags, and scores are restored bit-identically (sum_scores is
// recomputed in slot order, the same way m-joins compute it), so a
// restored table joins, partitions by epoch, and replays exactly like
// the original. Handles live in memory only — the spill tier is a
// cache, not a durability layer.
//
// Spill I/O is synchronous: it runs on the calling thread, and a page
// reaches disk only when the buffer pool recycles its frame.
//
// Thread safety: every public operation locks one internal mutex, mu_,
// and every buffer-pool and segment-file call runs under it. Under
// multi-core epochs a spilled probe cache faults back in from whichever
// ATC drain worker first misses it (the spill_fault handler installed
// by StateManager::EnforceBudget), concurrently with other workers'
// restores — the handle registry, the pool and the counters must not be
// torn by that.

#ifndef QSYS_BUFFER_SPILL_MANAGER_H_
#define QSYS_BUFFER_SPILL_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/buffer/buffer_manager.h"
#include "src/buffer/fault_injection.h"
#include "src/common/metrics.h"
#include "src/exec/join_hash_table.h"
#include "src/obs/trace.h"
#include "src/source/probe_source.h"

namespace qsys {

class SpillPageWriter;  // spill_manager.cc: page-at-a-time serializer

/// \brief Demotes evicted CacheItem payloads to disk pages and
/// restores them on demand. One instance per Engine.
class SpillManager {
 public:
  /// Creates `dir` (and parents) if needed, claims a unique scratch
  /// subdirectory inside it — so engines sharing one configured spill
  /// directory never clobber each other's segment files — and opens the
  /// spill tier with a buffer pool of `frame_count` frames. The segment
  /// file itself is created on the first spill.
  static Result<std::unique_ptr<SpillManager>> Open(const std::string& dir,
                                                    int frame_count);

  ~SpillManager();
  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  // ---- demotion ----

  /// Serializes `table` (entries in arrival order, with epoch tags)
  /// under `key`, superseding any earlier spill with the same key.
  /// Demotion fills pool frames; it writes to disk only the dirty pages
  /// whose frames it recycles, retries a failed write-back like a
  /// restore retries a failed read, and fails (keeping no handle) if
  /// the retries run out.
  Status SpillTable(const std::string& key, const JoinHashTable& table);

  /// Serializes `probe`'s answer cache under `key` (same page path as
  /// SpillTable).
  Status SpillProbeCache(const std::string& key, const ProbeSource& probe);

  // ---- promotion ----

  struct RestoreOutcome {
    /// Entries (table) or cached keys (probe cache) restored.
    int64_t items = 0;
    /// Serialized payload bytes read back (spill-read cost basis).
    int64_t bytes = 0;
  };

  /// Appends the spilled entries to `dest` in original arrival order
  /// with original epochs, then drops the disk copy (the restored
  /// in-memory state is now the newest version). The decode is staged:
  /// on any error `dest` is untouched (a restore is all-or-nothing,
  /// never a silent truncation) and the disk copy is kept — the caller
  /// decides whether to retry later or Drop() it.
  Result<RestoreOutcome> RestoreTable(const std::string& key,
                                      JoinHashTable* dest);

  /// Replaces `probe`'s cache with the spilled copy, then drops the
  /// disk copy. Staged like RestoreTable: on error the probe's cache
  /// is untouched and the disk copy is kept.
  Result<RestoreOutcome> RestoreProbeCache(const std::string& key,
                                           ProbeSource* probe);

  // ---- registry ----

  bool HasSpill(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return handles_.count(key) > 0;
  }
  /// Items (table entries / cached probe keys) in the spilled payload
  /// (0 when `key` is absent). The state manager compares this against
  /// its fullest listed copy to decide whether a parked disk copy is
  /// the more complete version of a module table, and whether it
  /// covers an eviction victim.
  int64_t SpilledItems(const std::string& key) const;

  /// Discards the spilled copy of `key` (stale after the in-memory
  /// state was superseded), returning its pages for reuse.
  void Drop(const std::string& key);

  int64_t spilled_item_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(handles_.size());
  }

  /// Aggregate spill counters (buffer pool + registry).
  SpillStats stats() const;

  /// I/O faults this tier survived by degrading (demotion refused,
  /// restore retried or abandoned) instead of losing answers. Mirrors
  /// SpillStats::spill_faults.
  int64_t faults() const { return faults_.load(std::memory_order_relaxed); }

  /// Installs (or clears, with nullptr) the fault-injection seam on the
  /// segment file, now or when it is created (test hook; the injector
  /// must outlive this manager or be cleared before destruction).
  void set_fault_injector(SegmentFaultInjector* injector);

  /// This instance's private scratch subdirectory (removed on
  /// destruction), not the configured parent.
  const std::string& dir() const { return dir_; }

  /// Attaches the serving trace sink (may be null): successful
  /// demotions/restores record spans (arg = items / payload bytes).
  /// Set before serving starts; spill/restore threads are created
  /// afterwards.
  void set_tracer(Tracer* tracer, int shard) {
    tracer_ = tracer;
    trace_shard_ = shard;
  }

 private:
  struct Handle {
    std::vector<PageId> pages;
    int64_t payload_bytes = 0;
    int64_t items = 0;
  };

  SpillManager(std::string dir, int frame_count);

  /// Drop without taking mu_ (caller holds it).
  void DropLocked(const std::string& key);

  /// Creates the segment file on first use and attaches it to the pool
  /// (caller holds mu_).
  Status OpenSegment();

  // Demotion serializes straight into pinned pool frames page-by-page
  // (see SpillPageWriter in spill_manager.cc) — a spill never stages
  // the victim's payload in one contiguous heap buffer.

  /// Seals `writer`'s payload into a handle under `key`, superseding
  /// any earlier spill with the same key (only after the new copy is
  /// fully written).
  Status FinishSpill(SpillPageWriter& writer, int64_t items,
                     const std::string& key);

  /// Reassembles a handle's payload from its pages (restores only),
  /// pinning each page through RetryTransient.
  Status ReadPayload(const Handle& handle, std::vector<uint8_t>* payload);

  /// Runs `op` — one page pin on restore, one fresh page on demotion —
  /// and retries a failure (a failed page read, or a failed write-back
  /// of the dirty frame the call recycles) up to four times, sleeping a
  /// doubled, jittered backoff before each retry. Each retry is counted
  /// in faults_ and retry_waits_. Caller holds mu_.
  template <typename Op>
  auto RetryTransient(Op op) -> decltype(op());

  // SpillPageWriter allocates its pages through RetryTransient.
  friend class SpillPageWriter;

  // Fallible bodies of the public demote/restore entry points; the
  // public wrappers count failures into faults_.
  Status DoSpillTable(const std::string& key, const JoinHashTable& table);
  Status DoSpillProbeCache(const std::string& key,
                           const ProbeSource& probe);
  Result<RestoreOutcome> DoRestoreTable(const std::string& key,
                                        JoinHashTable* dest);
  Result<RestoreOutcome> DoRestoreProbeCache(const std::string& key,
                                             ProbeSource* probe);

  std::string dir_;
  /// Guards the pool, the segment file, the registry and the item
  /// counters below.
  mutable std::mutex mu_;
  BufferManager pool_;
  std::unique_ptr<SegmentFile> segment_;
  std::unordered_map<std::string, Handle> handles_;
  int64_t items_spilled_ = 0;
  int64_t items_restored_ = 0;
  /// Survived I/O faults (atomic: the public wrappers count failures
  /// after mu_ is released, and faults() reads without taking it).
  std::atomic<int64_t> faults_{0};
  /// Backoff sleeps taken between transient page-I/O retry attempts,
  /// on restores and demotions alike (SpillStats::read_retry_waits).
  std::atomic<int64_t> retry_waits_{0};
  /// RetryTransient's backoff jitter state (guarded by mu_): successive
  /// retries sleep different amounts.
  uint64_t jitter_state_ = 0x9e3779b97f4a7c15ull;
  /// Fault-injection seam handed to the segment file (null in
  /// production).
  SegmentFaultInjector* injector_ = nullptr;

  /// Serving trace sink (null in the simulator). Written once before
  /// any tracing thread exists.
  Tracer* tracer_ = nullptr;
  int trace_shard_ = 0;
};

}  // namespace qsys

#endif  // QSYS_BUFFER_SPILL_MANAGER_H_
