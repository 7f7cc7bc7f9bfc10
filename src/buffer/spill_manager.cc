#include "src/buffer/spill_manager.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace qsys {

// ---- byte-level encoding -------------------------------------------
//
// Fixed-width little-endian-of-host encoding via memcpy: the spill tier
// is scratch storage read back by the same process, so no cross-machine
// portability is needed — only exactness. Doubles round-trip bit-for-
// bit (memcpy of the IEEE representation).
//
// Demotion serializes *directly into pinned pool frames*, one page at a
// time: a victim is streamed out entry by entry, so spilling never
// stages the whole payload in a contiguous heap buffer (which would
// transiently add ~the victim's size to RSS at exactly the moment the
// engine is trying to shed memory).

/// Serializes a payload into freshly allocated pages of one spill
/// class, holding at most one frame pinned at a time. (Named, not
/// anonymous: SpillManager::FinishSpill takes one by reference.)
class SpillPageWriter {
 public:
  SpillPageWriter(BufferManager* pool, uint8_t cls)
      : pool_(pool), cls_(cls) {}

  ~SpillPageWriter() {
    // A writer abandoned mid-payload (serialization error) releases
    // everything it allocated.
    if (!finished_) Abort();
  }

  template <typename T>
  Status Put(T v) {
    return PutBytes(&v, sizeof(T));
  }

  Status PutBytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    while (n > 0) {
      if (frame_ == nullptr) {
        QSYS_RETURN_IF_ERROR(OpenPage());
      }
      size_t take = std::min(static_cast<size_t>(kPageSize) - in_page_, n);
      std::memcpy(frame_ + in_page_, p, take);
      in_page_ += take;
      bytes_ += static_cast<int64_t>(take);
      p += take;
      n -= take;
      if (in_page_ == static_cast<size_t>(kPageSize)) ClosePage();
    }
    return Status::OK();
  }

  /// Seals the payload (an empty payload still claims one page, so
  /// every handle owns at least one) and returns the page list.
  Result<std::vector<PageId>> Finish() {
    if (pages_.empty() && frame_ == nullptr) {
      QSYS_RETURN_IF_ERROR(OpenPage());
    }
    if (frame_ != nullptr) ClosePage();
    finished_ = true;
    return std::move(pages_);
  }

  /// Total payload bytes written so far.
  int64_t bytes() const { return bytes_; }

  /// Releases the pinned frame and frees every allocated page.
  void Abort() {
    if (frame_ != nullptr) ClosePage();
    for (PageId id : pages_) pool_->Free(id);
    pages_.clear();
    finished_ = true;
  }

 private:
  Status OpenPage() {
    auto page = pool_->NewPage(cls_);
    QSYS_RETURN_IF_ERROR(page.status());
    current_ = page.value().id;
    frame_ = page.value().frame;
    in_page_ = 0;
    return Status::OK();
  }

  void ClosePage() {
    pool_->Unpin(current_, /*dirty=*/true);
    pages_.push_back(current_);
    current_ = kInvalidPageId;
    frame_ = nullptr;
    in_page_ = 0;
  }

  BufferManager* pool_;
  uint8_t cls_;
  std::vector<PageId> pages_;
  PageId current_ = kInvalidPageId;
  uint8_t* frame_ = nullptr;
  size_t in_page_ = 0;
  int64_t bytes_ = 0;
  bool finished_ = false;
};

namespace {

/// Sequential reader over a reassembled payload with bounds checks.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  template <typename T>
  Status Get(T* v) {
    if (pos_ + sizeof(T) > buf_.size()) {
      return Status::OutOfRange("spill payload truncated");
    }
    std::memcpy(v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status GetBytes(void* data, size_t n) {
    if (pos_ + n > buf_.size()) {
      return Status::OutOfRange("spill payload truncated");
    }
    std::memcpy(data, buf_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

Status PutValue(SpillPageWriter* out, const Value& v) {
  QSYS_RETURN_IF_ERROR(out->Put<uint8_t>(static_cast<uint8_t>(v.type())));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      QSYS_RETURN_IF_ERROR(out->Put<int64_t>(v.AsInt()));
      break;
    case ValueType::kDouble:
      QSYS_RETURN_IF_ERROR(out->Put<double>(v.AsDouble()));
      break;
    case ValueType::kString: {
      const std::string& s = v.AsString();
      QSYS_RETURN_IF_ERROR(
          out->Put<uint32_t>(static_cast<uint32_t>(s.size())));
      QSYS_RETURN_IF_ERROR(out->PutBytes(s.data(), s.size()));
      break;
    }
  }
  return Status::OK();
}

Status GetValue(Reader* in, Value* v) {
  uint8_t tag = 0;
  QSYS_RETURN_IF_ERROR(in->Get(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *v = Value();
      return Status::OK();
    case ValueType::kInt: {
      int64_t i = 0;
      QSYS_RETURN_IF_ERROR(in->Get(&i));
      *v = Value(i);
      return Status::OK();
    }
    case ValueType::kDouble: {
      double d = 0;
      QSYS_RETURN_IF_ERROR(in->Get(&d));
      *v = Value(d);
      return Status::OK();
    }
    case ValueType::kString: {
      uint32_t n = 0;
      QSYS_RETURN_IF_ERROR(in->Get(&n));
      std::string s(n, '\0');
      QSYS_RETURN_IF_ERROR(in->GetBytes(s.data(), n));
      *v = Value(std::move(s));
      return Status::OK();
    }
  }
  return Status::OutOfRange("spill payload: unknown Value type tag");
}

Status PutRef(SpillPageWriter* out, const BaseRef& r) {
  QSYS_RETURN_IF_ERROR(out->Put<int32_t>(r.table));
  QSYS_RETURN_IF_ERROR(out->Put<uint32_t>(r.row));
  return out->Put<double>(r.score);
}

Status GetRef(Reader* in, BaseRef* r) {
  QSYS_RETURN_IF_ERROR(in->Get(&r->table));
  QSYS_RETURN_IF_ERROR(in->Get(&r->row));
  return in->Get(&r->score);
}

Status MakeDirs(const std::string& path) {
  std::string prefix;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    prefix = path.substr(0, i);
    if (prefix.empty() || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("spill dir create failed: " + prefix + ": " +
                              std::strerror(errno));
    }
  }
  return Status::OK();
}

const char* ClassFileName(SpillManager::Class cls) {
  switch (cls) {
    case SpillManager::Class::kHashTable:
      return "hash_tables.seg";
    case SpillManager::Class::kProbeCache:
      return "probe_caches.seg";
  }
  return "unknown.seg";
}

}  // namespace

Result<std::unique_ptr<SpillManager>> SpillManager::Open(
    const std::string& dir, int frame_count) {
  if (dir.empty()) {
    return Status::InvalidArgument("spill dir must be non-empty");
  }
  QSYS_RETURN_IF_ERROR(MakeDirs(dir));
  // Each instance works in its own scratch subdirectory: two engines
  // configured with the same spill_dir must never truncate or unlink
  // each other's live segment files.
  std::string scratch = dir + "/engine.XXXXXX";
  if (::mkdtemp(scratch.data()) == nullptr) {
    return Status::Internal("spill scratch dir create failed: " + scratch +
                            ": " + std::strerror(errno));
  }
  return std::unique_ptr<SpillManager>(
      new SpillManager(std::move(scratch), frame_count));
}

SpillManager::SpillManager(std::string dir, int frame_count)
    : dir_(std::move(dir)), pool_(frame_count) {
  writer_ = std::thread([this] { WriterLoop(); });
}

SpillManager::~SpillManager() {
  // Shutdown flush barrier: let the writer finish cleaning what it
  // holds, then stop it — the segments must not be torn down under an
  // in-flight pwrite.
  FlushWriteBacks();
  {
    std::lock_guard<std::mutex> lock(wb_mu_);
    wb_stop_ = true;
  }
  wb_cv_.notify_all();
  writer_.join();
  // Segments unlink their files on destruction; then the (now empty)
  // scratch directory can go.
  for (auto& seg : segments_) seg.reset();
  ::rmdir(dir_.c_str());
}

void SpillManager::EnqueueWriteBacks(const std::vector<PageId>& pages) {
  {
    std::lock_guard<std::mutex> lock(wb_mu_);
    for (PageId id : pages) wb_queue_.push_back(id);
  }
  wb_cv_.notify_one();
}

void SpillManager::WriterLoop() {
  for (;;) {
    PageId id = kInvalidPageId;
    {
      std::unique_lock<std::mutex> lock(wb_mu_);
      wb_cv_.wait(lock, [this] { return wb_stop_ || !wb_queue_.empty(); });
      if (wb_queue_.empty()) return;  // stop requested, queue drained
      id = wb_queue_.front();
      wb_queue_.pop_front();
      wb_busy_ = true;
    }
    // Best effort off the hot path: a page already evicted (= already
    // written) or re-pinned is skipped. A write error leaves the page
    // dirty in the pool (nothing is lost — the clock sweep retries the
    // write before recycling the frame); count it and move on.
    if (!pool_.WriteBack(id).ok()) {
      faults_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(wb_mu_);
      wb_busy_ = false;
      if (wb_queue_.empty()) wb_done_cv_.notify_all();
    }
  }
}

void SpillManager::FlushWriteBacks() {
  const int64_t t0 = tracer_ != nullptr ? tracer_->NowUs() : 0;
  {
    std::unique_lock<std::mutex> lock(wb_mu_);
    wb_done_cv_.wait(lock,
                     [this] { return wb_queue_.empty() && !wb_busy_; });
  }
  if (tracer_ != nullptr) {
    tracer_->Span(TraceEventType::kWriteBackBarrier, t0,
                  tracer_->NowUs() - t0, trace_shard_);
  }
}

Result<SegmentFile*> SpillManager::SegmentFor(Class cls) {
  auto idx = static_cast<size_t>(cls);
  if (segments_[idx] == nullptr) {
    auto file =
        SegmentFile::Create(dir_ + "/" + ClassFileName(cls), injector_);
    QSYS_RETURN_IF_ERROR(file.status());
    segments_[idx] = std::move(file).value();
    pool_.AttachSegment(static_cast<uint8_t>(cls), segments_[idx].get());
  }
  return segments_[idx].get();
}

void SpillManager::set_fault_injector(SegmentFaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = injector;
  for (auto& seg : segments_) {
    if (seg != nullptr) seg->set_fault_injector(injector);
  }
}

Status SpillManager::ReadPayload(const Handle& handle,
                                 std::vector<uint8_t>* payload) {
  // Transient read-fault budget per page: above FaultPlan's default
  // max_consecutive_errors, so an injected (or real EINTR-class)
  // transient error never fails a restore outright — it just costs
  // extra attempts, each counted as a survived fault.
  constexpr int kTransientReadRetries = 4;
  // Base backoff between attempts; doubled per retry and jittered to
  // 50–150% so concurrent restores against the same flaky device don't
  // retry in lockstep. Each wait is counted in
  // SpillStats::read_retry_waits.
  constexpr int64_t kRetryBackoffBaseUs = 50;
  payload->clear();
  payload->reserve(static_cast<size_t>(handle.payload_bytes));
  int64_t remaining = handle.payload_bytes;
  // Cheap per-call jitter state, seeded from the page being read so the
  // sleep pattern differs across pages without global state.
  uint64_t jitter_state =
      0x9e3779b97f4a7c15ull ^ (handle.pages.empty() ? 0 : handle.pages[0]);
  for (PageId id : handle.pages) {
    auto frame = pool_.Pin(id);
    for (int retry = 0; !frame.ok() && retry < kTransientReadRetries;
         ++retry) {
      faults_.fetch_add(1, std::memory_order_relaxed);
      jitter_state = jitter_state * 6364136223846793005ull + 1442695040888963407ull;
      const int64_t base = kRetryBackoffBaseUs << retry;
      const int64_t sleep_us = base / 2 + (jitter_state >> 33) % base;
      read_retry_waits_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      frame = pool_.Pin(id);
    }
    QSYS_RETURN_IF_ERROR(frame.status());
    int64_t n = std::min<int64_t>(kPageSize, remaining);
    payload->insert(payload->end(), frame.value(), frame.value() + n);
    pool_.Unpin(id, /*dirty=*/false);
    remaining -= n;
  }
  if (remaining != 0) {
    return Status::Internal("spill handle shorter than payload");
  }
  return Status::OK();
}

// ---- public demote/restore entry points -----------------------------
//
// Thin wrappers that count every failure as a survived fault: by the
// time an error surfaces here, the caller degrades (keeps the victim in
// memory, re-executes, re-probes) instead of losing answers, and
// SpillStats::spill_faults records that it happened.

Status SpillManager::SpillTable(const std::string& key,
                                const JoinHashTable& table) {
  Status s = DoSpillTable(key, table);
  if (!s.ok()) faults_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Status SpillManager::SpillProbeCache(const std::string& key,
                                     const ProbeSource& probe) {
  Status s = DoSpillProbeCache(key, probe);
  if (!s.ok()) faults_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Result<SpillManager::RestoreOutcome> SpillManager::RestoreTable(
    const std::string& key, JoinHashTable* dest) {
  auto r = DoRestoreTable(key, dest);
  if (!r.ok() && r.status().code() != StatusCode::kNotFound) {
    faults_.fetch_add(1, std::memory_order_relaxed);
  }
  return r;
}

Result<SpillManager::RestoreOutcome> SpillManager::RestoreProbeCache(
    const std::string& key, ProbeSource* probe) {
  auto r = DoRestoreProbeCache(key, probe);
  if (!r.ok() && r.status().code() != StatusCode::kNotFound) {
    faults_.fetch_add(1, std::memory_order_relaxed);
  }
  return r;
}

Status SpillManager::DoSpillTable(const std::string& key,
                                  const JoinHashTable& table) {
  const int64_t t0 = tracer_ != nullptr ? tracer_->NowUs() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  QSYS_RETURN_IF_ERROR(SegmentFor(Class::kHashTable).status());
  // Stream the victim straight into pool frames, entry by entry — no
  // contiguous staging buffer (demotion happens under memory pressure,
  // where a payload-sized heap spike is the worst possible time).
  SpillPageWriter writer(&pool_, static_cast<uint8_t>(Class::kHashTable));
  QSYS_RETURN_IF_ERROR(writer.Put<int64_t>(table.num_entries()));
  for (int64_t i = 0; i < table.num_entries(); ++i) {
    const CompositeTuple& t = table.entry(i);
    QSYS_RETURN_IF_ERROR(writer.Put<int32_t>(table.entry_epoch(i)));
    QSYS_RETURN_IF_ERROR(writer.Put<int32_t>(t.num_refs()));
    for (const BaseRef& r : t.refs()) {
      QSYS_RETURN_IF_ERROR(PutRef(&writer, r));
    }
  }
  Status sealed =
      FinishSpill(Class::kHashTable, writer, table.num_entries(), key);
  if (sealed.ok() && tracer_ != nullptr) {
    tracer_->Span(TraceEventType::kSpillDemote, t0, tracer_->NowUs() - t0,
                  trace_shard_, -1, -1, table.num_entries());
  }
  return sealed;
}

Status SpillManager::FinishSpill(Class cls, SpillPageWriter& writer,
                                 int64_t items, const std::string& key) {
  int64_t payload_bytes = writer.bytes();
  auto pages = writer.Finish();
  QSYS_RETURN_IF_ERROR(pages.status());
  DropLocked(key);  // supersede any earlier spill under this key
  Handle handle;
  handle.cls = cls;
  handle.payload_bytes = payload_bytes;
  handle.items = items;
  handle.pages = std::move(pages).value();
  // Clean the freshly filled pages in the background: the executor
  // returns as soon as the frames are filled, and the clock sweep
  // later finds them already written (no disk I/O on the serving
  // path). Superseded/raced ids are harmless — WriteBack skips
  // anything non-resident, clean, or pinned.
  EnqueueWriteBacks(handle.pages);
  handles_[key] = std::move(handle);
  ++items_spilled_;
  return Status::OK();
}

Result<SpillManager::RestoreOutcome> SpillManager::DoRestoreTable(
    const std::string& key, JoinHashTable* dest) {
  const int64_t t0 = tracer_ != nullptr ? tracer_->NowUs() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handles_.find(key);
  if (it == handles_.end()) {
    return Status::NotFound("no spilled table under key " + key);
  }
  // Restore flush barrier: quiesce the background writer so the read
  // below sees a stable pool and the page counters are deterministic
  // at restore points.
  FlushWriteBacks();
  std::vector<uint8_t> payload;
  QSYS_RETURN_IF_ERROR(ReadPayload(it->second, &payload));
  Reader in(payload);
  int64_t n = 0;
  QSYS_RETURN_IF_ERROR(in.Get(&n));
  // Stage the full decode before touching `dest`: a payload that turns
  // out truncated or corrupt mid-way must not leave a half-restored
  // table behind (a silent truncation would quietly drop answers).
  std::vector<std::pair<int32_t, CompositeTuple>> staged;
  staged.reserve(static_cast<size_t>(n > 0 ? n : 0));
  for (int64_t i = 0; i < n; ++i) {
    int32_t epoch = 0, nrefs = 0;
    QSYS_RETURN_IF_ERROR(in.Get(&epoch));
    QSYS_RETURN_IF_ERROR(in.Get(&nrefs));
    CompositeTuple t = CompositeTuple::WithSlots(nrefs);
    for (int32_t s = 0; s < nrefs; ++s) {
      BaseRef r;
      QSYS_RETURN_IF_ERROR(GetRef(&in, &r));
      t.set_ref(s, r);
    }
    // Slot-order summation — the same way m-joins compute sum_scores —
    // so the restored score is bit-identical to the original.
    t.RecomputeSum();
    staged.emplace_back(epoch, std::move(t));
  }
  for (auto& [epoch, tuple] : staged) {
    dest->Insert(epoch, std::move(tuple));
  }
  RestoreOutcome out{n, it->second.payload_bytes};
  DropLocked(key);
  ++items_restored_;
  if (tracer_ != nullptr) {
    tracer_->Span(TraceEventType::kSpillRestore, t0,
                  tracer_->NowUs() - t0, trace_shard_, -1, -1, out.bytes);
  }
  return out;
}

Status SpillManager::DoSpillProbeCache(const std::string& key,
                                       const ProbeSource& probe) {
  const int64_t t0 = tracer_ != nullptr ? tracer_->NowUs() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  QSYS_RETURN_IF_ERROR(SegmentFor(Class::kProbeCache).status());
  const ProbeSource::CacheMap& cache = probe.cache();
  SpillPageWriter writer(&pool_, static_cast<uint8_t>(Class::kProbeCache));
  QSYS_RETURN_IF_ERROR(
      writer.Put<int64_t>(static_cast<int64_t>(cache.size())));
  for (const auto& [value, answers] : cache) {
    QSYS_RETURN_IF_ERROR(PutValue(&writer, value));
    QSYS_RETURN_IF_ERROR(
        writer.Put<int32_t>(static_cast<int32_t>(answers.size())));
    for (const BaseRef& r : answers) {
      QSYS_RETURN_IF_ERROR(PutRef(&writer, r));
    }
  }
  Status sealed = FinishSpill(Class::kProbeCache, writer,
                              static_cast<int64_t>(cache.size()), key);
  if (sealed.ok() && tracer_ != nullptr) {
    tracer_->Span(TraceEventType::kSpillDemote, t0, tracer_->NowUs() - t0,
                  trace_shard_, -1, -1,
                  static_cast<int64_t>(cache.size()));
  }
  return sealed;
}

Result<SpillManager::RestoreOutcome> SpillManager::DoRestoreProbeCache(
    const std::string& key, ProbeSource* probe) {
  const int64_t t0 = tracer_ != nullptr ? tracer_->NowUs() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handles_.find(key);
  if (it == handles_.end()) {
    return Status::NotFound("no spilled probe cache under key " + key);
  }
  FlushWriteBacks();
  std::vector<uint8_t> payload;
  QSYS_RETURN_IF_ERROR(ReadPayload(it->second, &payload));
  Reader in(payload);
  int64_t n = 0;
  QSYS_RETURN_IF_ERROR(in.Get(&n));
  ProbeSource::CacheMap cache;
  cache.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    Value key_value;
    QSYS_RETURN_IF_ERROR(GetValue(&in, &key_value));
    int32_t answers = 0;
    QSYS_RETURN_IF_ERROR(in.Get(&answers));
    std::vector<BaseRef> refs(static_cast<size_t>(answers));
    for (int32_t a = 0; a < answers; ++a) {
      QSYS_RETURN_IF_ERROR(GetRef(&in, &refs[static_cast<size_t>(a)]));
    }
    cache.emplace(std::move(key_value), std::move(refs));
  }
  probe->ImportCache(std::move(cache));
  RestoreOutcome out{n, it->second.payload_bytes};
  DropLocked(key);
  ++items_restored_;
  if (tracer_ != nullptr) {
    tracer_->Span(TraceEventType::kSpillRestore, t0,
                  tracer_->NowUs() - t0, trace_shard_, -1, -1, out.bytes);
  }
  return out;
}

int64_t SpillManager::SpilledBytes(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handles_.find(key);
  return it == handles_.end() ? 0 : it->second.payload_bytes;
}

int64_t SpillManager::SpilledItems(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handles_.find(key);
  return it == handles_.end() ? 0 : it->second.items;
}

void SpillManager::Drop(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  DropLocked(key);
}

void SpillManager::DropLocked(const std::string& key) {
  auto it = handles_.find(key);
  if (it == handles_.end()) return;
  for (PageId id : it->second.pages) pool_.Free(id);
  handles_.erase(it);
}

SpillStats SpillManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SpillStats s;
  s.pages_written = pool_.pages_written();
  s.pages_read = pool_.pages_read();
  s.page_faults = pool_.faults();
  s.items_spilled = items_spilled_;
  s.items_restored = items_restored_;
  s.spill_faults = faults_.load(std::memory_order_relaxed);
  s.read_retry_waits = read_retry_waits_.load(std::memory_order_relaxed);
  for (const auto& seg : segments_) {
    if (seg != nullptr) s.bytes_on_disk += seg->bytes_on_disk();
  }
  return s;
}

}  // namespace qsys
