#include "src/obs/trace.h"

#include <algorithm>

namespace qsys {

namespace {

/// Monotone source of tracer ids. The per-thread buffer cache is keyed
/// by tracer id, so a thread outliving one tracer and touching another
/// (tests create many services) never dereferences a stale buffer.
std::atomic<uint64_t> g_next_tracer_id{1};

uint64_t PackTag(TraceEventType type, int16_t shard, int16_t atc) {
  return static_cast<uint64_t>(static_cast<uint8_t>(type)) |
         (static_cast<uint64_t>(static_cast<uint16_t>(shard)) << 16) |
         (static_cast<uint64_t>(static_cast<uint16_t>(atc)) << 32);
}

}  // namespace

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kAdmit: return "admit";
    case TraceEventType::kReject: return "reject";
    case TraceEventType::kQueueWait: return "queue_wait";
    case TraceEventType::kBatchWait: return "batch_wait";
    case TraceEventType::kComplete: return "complete";
    case TraceEventType::kResolve: return "resolve";
    case TraceEventType::kFlush: return "flush";
    case TraceEventType::kOptimize: return "optimize";
    case TraceEventType::kGraft: return "graft";
    case TraceEventType::kRederive: return "rederive";
    case TraceEventType::kWatermarkSkip: return "watermark_skip";
    case TraceEventType::kEpoch: return "epoch";
    case TraceEventType::kAtcExec: return "atc_exec";
    case TraceEventType::kEvict: return "evict";
    case TraceEventType::kSpillDemote: return "spill_demote";
    case TraceEventType::kSpillRestore: return "spill_restore";
    case TraceEventType::kWriteBackBarrier: return "writeback_barrier";
    case TraceEventType::kRetry: return "retry";
    case TraceEventType::kDeadlineExceeded: return "deadline_exceeded";
    case TraceEventType::kShardRestart: return "shard_restart";
  }
  return "unknown";
}

bool TraceEventIsSpan(TraceEventType type) {
  switch (type) {
    case TraceEventType::kQueueWait:
    case TraceEventType::kBatchWait:
    case TraceEventType::kFlush:
    case TraceEventType::kOptimize:
    case TraceEventType::kGraft:
    case TraceEventType::kEpoch:
    case TraceEventType::kAtcExec:
    case TraceEventType::kSpillDemote:
    case TraceEventType::kSpillRestore:
    case TraceEventType::kWriteBackBarrier:
      return true;
    default:
      return false;
  }
}

Tracer::ThreadBuffer::ThreadBuffer(int capacity_in, int tid_in)
    : capacity(capacity_in),
      tid(tid_in),
      slots(std::make_unique<Slot[]>(capacity_in)) {}

void Tracer::ThreadBuffer::Write(const TraceEvent& event) {
  const uint64_t h = head.load(std::memory_order_relaxed);
  Slot& slot = slots[h % static_cast<uint64_t>(capacity)];
  // Seqlock write protocol (single writer): mark the slot odd, publish
  // the payload, mark it even again. A snapshot that overlaps either
  // sees a consistent pair of sequence reads or skips the slot.
  const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.word[0].store(static_cast<uint64_t>(event.ts_us),
                     std::memory_order_relaxed);
  slot.word[1].store(static_cast<uint64_t>(event.dur_us),
                     std::memory_order_relaxed);
  slot.word[2].store(static_cast<uint64_t>(event.arg),
                     std::memory_order_relaxed);
  slot.word[3].store(static_cast<uint64_t>(
                         static_cast<uint32_t>(event.uq_id)),
                     std::memory_order_relaxed);
  slot.word[4].store(PackTag(event.type, event.shard, event.atc),
                     std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
  head.store(h + 1, std::memory_order_release);
}

Tracer::Tracer(int buffer_events)
    : capacity_(std::max(2, buffer_events)),
      tracer_id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      t0_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuffer* Tracer::Local() {
  // Each thread caches (tracer id -> buffer) pairs; entries for dead
  // tracers are never dereferenced because ids are globally unique.
  thread_local std::vector<std::pair<uint64_t, ThreadBuffer*>> cache;
  for (const auto& [id, buffer] : cache) {
    if (id == tracer_id_) return buffer;
  }
  std::lock_guard<std::mutex> lock(reg_mu_);
  auto buffer = std::make_unique<ThreadBuffer>(
      capacity_, static_cast<int>(buffers_.size()));
  ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  cache.emplace_back(tracer_id_, raw);
  return raw;
}

void Tracer::Record(const TraceEvent& event) { Local()->Write(event); }

void Tracer::Span(TraceEventType type, int64_t ts_us, int64_t dur_us,
                  int shard, int uq_id, int atc, int64_t arg) {
  TraceEvent ev;
  ev.type = type;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us < 0 ? 0 : dur_us;
  ev.arg = arg;
  ev.uq_id = static_cast<int32_t>(uq_id);
  ev.shard = static_cast<int16_t>(shard);
  ev.atc = static_cast<int16_t>(atc);
  Record(ev);
}

void Tracer::Instant(TraceEventType type, int shard, int uq_id, int atc,
                     int64_t arg) {
  TraceEvent ev;
  ev.type = type;
  ev.ts_us = NowUs();
  ev.arg = arg;
  ev.uq_id = static_cast<int32_t>(uq_id);
  ev.shard = static_cast<int16_t>(shard);
  ev.atc = static_cast<int16_t>(atc);
  Record(ev);
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(reg_mu_);
  for (const auto& buffer : buffers_) {
    const uint64_t head = buffer->head.load(std::memory_order_acquire);
    const uint64_t cap = static_cast<uint64_t>(buffer->capacity);
    const uint64_t n = std::min(head, cap);
    for (uint64_t i = head - n; i < head; ++i) {
      const Slot& slot = buffer->slots[i % cap];
      // Seqlock read: retry on a torn (odd or moved-on) sequence; give
      // up after a few attempts — the writer lapped this slot, so its
      // event has been dropped-oldest anyway.
      for (int attempt = 0; attempt < 4; ++attempt) {
        const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
        if (seq_before & 1) continue;
        uint64_t w[5];
        for (int j = 0; j < 5; ++j) {
          w[j] = slot.word[j].load(std::memory_order_relaxed);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;
        TraceEvent ev;
        ev.ts_us = static_cast<int64_t>(w[0]);
        ev.dur_us = static_cast<int64_t>(w[1]);
        ev.arg = static_cast<int64_t>(w[2]);
        ev.uq_id = static_cast<int32_t>(static_cast<uint32_t>(w[3]));
        ev.type = static_cast<TraceEventType>(w[4] & 0xff);
        ev.shard = static_cast<int16_t>((w[4] >> 16) & 0xffff);
        ev.atc = static_cast<int16_t>((w[4] >> 32) & 0xffff);
        ev.tid = buffer->tid;
        out.push_back(ev);
        break;
      }
    }
  }
  // Stable: preserves each thread's write order among equal timestamps.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

int64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  int64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    const uint64_t head = buffer->head.load(std::memory_order_relaxed);
    const uint64_t cap = static_cast<uint64_t>(buffer->capacity);
    if (head > cap) dropped += static_cast<int64_t>(head - cap);
  }
  return dropped;
}

}  // namespace qsys
