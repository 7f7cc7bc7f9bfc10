#include "src/qs/state_manager.h"

#include <algorithm>

#include "src/source/table_stream.h"

namespace qsys {

void StateManager::RegisterModuleTable(int tag,
                                       const std::string& expr_signature,
                                       JoinHashTable* table, MJoinOp* owner,
                                       VirtualTime now) {
  const std::string key = Key(tag, expr_signature);
  TableEntry& e = tables_[key];
  e.table = table;
  e.owner = owner;
  e.last_used_us = now;
  last_now_us_ = std::max(last_now_us_, now);
  // The newest registration supersedes any parked disk copy: a stale
  // spill must never be restored over fresher in-memory state.
  if (spill_ != nullptr) spill_->Drop(key);
}

JoinHashTable* StateManager::FindModuleTable(
    int tag, const std::string& expr_signature) const {
  auto it = tables_.find(Key(tag, expr_signature));
  return it == tables_.end() ? nullptr : it->second.table;
}

void StateManager::SnapshotSourceStats() {
  for (const auto& [key, stream] : sources_->streams()) {
    (void)key;
    auto* mat = dynamic_cast<const MaterializedStream*>(stream.get());
    int64_t total = (mat != nullptr && mat->opened()) ? mat->total_tuples()
                                                      : -1;
    observed_.RecordStream(stream->expr().Signature(),
                           stream->tuples_read(), stream->exhausted(),
                           total);
  }
}

int64_t StateManager::TotalCacheBytes() const {
  int64_t total = 0;
  for (const auto& [key, e] : tables_) {
    (void)key;
    if (e.table != nullptr) total += e.table->SizeBytes();
  }
  for (const auto& probe : sources_->probes()) {
    total += probe->CacheSizeBytes();
  }
  return total;
}

void StateManager::AttachSpill(SpillManager* spill,
                               const DelayParams* delays) {
  spill_ = spill;
  spill_delays_ = delays;
}

VirtualTime StateManager::SpillReadCostUs(int64_t bytes) const {
  const double bw = spill_delays_ != nullptr
                        ? spill_delays_->spill_read_bytes_per_us
                        : DelayParams().spill_read_bytes_per_us;
  return static_cast<VirtualTime>(static_cast<double>(bytes) / bw);
}

double StateManager::RecomputeCostUs(const CacheItem& item,
                                     int64_t entries) const {
  // Recompute estimates in virtual us: a destroyed hash table costs a
  // re-stream of its entries over the network; a destroyed probe cache
  // costs re-issuing one remote probe per cached key (`entries`).
  const DelayParams defaults;
  const DelayParams& d = spill_delays_ != nullptr ? *spill_delays_
                                                  : defaults;
  return static_cast<double>(entries) *
         (item.kind == CacheItem::Kind::kHashTable ? d.stream_tuple_mean_us
                                                   : d.probe_mean_us);
}

bool StateManager::ShouldSpill(const CacheItem& item,
                               int64_t entries) const {
  if (spill_ == nullptr || item.size_bytes <= 0) return false;
  double spill_read_us =
      static_cast<double>(SpillReadCostUs(item.size_bytes));
  return spill_read_us < RecomputeCostUs(item, entries);
}

void StateManager::JournalVictim(const CacheItem& item, int64_t entries,
                                 bool spilled) const {
  if (journal_ == nullptr) return;
  journal_->Record(-1, DecisionKind::kEvictVictim, journal_shard_,
                   item.size_bytes, spilled ? 1 : 0, 0,
                   static_cast<double>(SpillReadCostUs(item.size_bytes)),
                   RecomputeCostUs(item, entries), item.key.c_str());
}

int64_t StateManager::SpilledTableEntries(
    int tag, const std::string& expr_signature) const {
  return spill_ == nullptr
             ? 0
             : spill_->SpilledItems(Key(tag, expr_signature));
}

StateManager::RestoreOutcome StateManager::RestoreSpilledTable(
    int tag, const std::string& expr_signature, JoinHashTable* dest) {
  if (spill_ == nullptr) return {};
  const std::string key = Key(tag, expr_signature);
  if (!spill_->HasSpill(key)) return {};
  auto restored = spill_->RestoreTable(key, dest);
  if (!restored.ok()) {
    // Transient I/O faults were already retried page-by-page inside the
    // spill tier, so what reaches here is unrecoverable (a corrupt or
    // truncated payload, persistent I/O failure). The staged decode
    // left `dest` untouched — a failed restore is never a silent
    // truncation — and discarding the copy degrades this expression to
    // re-execution semantics instead of failing every future graft.
    spill_->Drop(key);
    return {};
  }
  spill_restores_.fetch_add(1, std::memory_order_relaxed);
  if (journal_ != nullptr) {
    journal_->Record(-1, DecisionKind::kSpillRestore, journal_shard_,
                     restored.value().items, restored.value().bytes, 0, 0.0,
                     0.0, key.c_str());
  }
  return {restored.value().items, restored.value().bytes};
}

void StateManager::set_memory_budget_bytes(int64_t b) {
  memory_budget_bytes_ = b;
  if (TotalCacheBytes() > b) EnforceBudget(last_now_us_);
}

int StateManager::EnforceBudget(VirtualTime now) {
  last_now_us_ = std::max(last_now_us_, now);
  int64_t total = TotalCacheBytes();
  if (total <= memory_budget_bytes_) return 0;
  int64_t need = total - memory_budget_bytes_;

  // Build the cacheable-item view: registered hash tables (evictable
  // only when their owner operator is inactive) and probe caches.
  std::vector<CacheItem> items;
  std::vector<const std::string*> table_keys;
  std::vector<ProbeSource*> probe_ptrs;
  for (auto& [key, e] : tables_) {
    CacheItem item;
    item.kind = CacheItem::Kind::kHashTable;
    item.key = key;
    item.size_bytes = e.table != nullptr ? e.table->SizeBytes() : 0;
    item.last_used_us = e.last_used_us;
    item.recompute_cost = static_cast<double>(item.size_bytes);
    // Referenced while the owning operator runs — or while a recovery
    // query borrows the table as a frozen module / replay source
    // (evicting mid-replay would corrupt the recovery's results).
    item.referenced = (e.owner != nullptr && e.owner->active()) ||
                      (e.table != nullptr && e.table->borrowers() > 0);
    table_keys.push_back(&key);
    probe_ptrs.push_back(nullptr);
    items.push_back(std::move(item));
  }
  for (const auto& probe : sources_->probes()) {
    CacheItem item;
    item.kind = CacheItem::Kind::kProbeCache;
    item.key = "probe" + std::to_string(probe->id());
    item.size_bytes = probe->CacheSizeBytes();
    item.last_used_us = 0;  // probe caches are the coldest class
    item.recompute_cost = static_cast<double>(probe->probes_issued());
    item.referenced = false;
    table_keys.push_back(nullptr);
    probe_ptrs.push_back(probe.get());
    items.push_back(std::move(item));
  }

  std::vector<size_t> victims = ChooseVictims(items, policy_, need);
  int evicted = 0;
  std::vector<std::string> keys_to_erase;
  for (size_t idx : victims) {
    if (probe_ptrs[idx] != nullptr) {
      ProbeSource* probe = probe_ptrs[idx];
      const int64_t cached = static_cast<int64_t>(probe->cache().size());
      bool demoted = false;
      if (ShouldSpill(items[idx], cached) &&
          spill_->SpillProbeCache(items[idx].key, *probe).ok()) {
        demoted = true;
        ++spills_;
        // Demoted, not destroyed: the first post-eviction cache miss
        // pages the whole answer map back in at disk cost instead of
        // re-probing the remote source.
        const std::string key = items[idx].key;
        probe->set_spill_fault([this, key](ProbeSource* p,
                                           ExecContext& ctx) {
          if (spill_ == nullptr || !spill_->HasSpill(key)) return false;
          auto restored = spill_->RestoreProbeCache(key, p);
          if (!restored.ok()) {
            // The handler is one-shot: keep state consistent by
            // discarding the unreadable copy (degrade to re-probing).
            spill_->Drop(key);
            return false;
          }
          spill_restores_.fetch_add(1, std::memory_order_relaxed);
          if (journal_ != nullptr) {
            // May run on an ATC drain worker; the journal locks.
            journal_->Record(-1, DecisionKind::kSpillRestore,
                             journal_shard_, restored.value().items,
                             restored.value().bytes, 0, 0.0, 0.0,
                             key.c_str());
          }
          ctx.Charge(TimeBucket::kRandomAccess,
                     SpillReadCostUs(restored.value().bytes));
          return restored.value().items > 0;
        });
      }
      JournalVictim(items[idx], cached, demoted);
      probe->EvictCache();
    } else {
      auto it = tables_.find(items[idx].key);
      if (it != tables_.end() && it->second.table != nullptr) {
        JoinHashTable* table = it->second.table;
        const int64_t entries = table->num_entries();
        bool demoted = false;
        if (ShouldSpill(items[idx], entries)) {
          if (spill_->SpillTable(items[idx].key, *table).ok()) {
            demoted = true;
            ++spills_;
          } else {
            // Demotion was the plan but the spill I/O failed. Unlike a
            // probe cache (re-probing regenerates identical answers), a
            // destroyed hash table loses stream arrivals that can never
            // be re-read — shared cursors do not rewind — so destroying
            // the victim here would change answers. Keep it in memory
            // instead: a soft budget overrun the next enforcement pass
            // retries, counted by the spill tier as a survived fault.
            JournalVictim(items[idx], entries, false);
            continue;
          }
        }
        JournalVictim(items[idx], entries, demoted);
        table->Clear();
        keys_to_erase.push_back(items[idx].key);
      }
    }
    ++evicted;
  }
  for (const std::string& k : keys_to_erase) tables_.erase(k);
  evictions_ += evicted;
  if (tracer_ != nullptr && evicted > 0) {
    tracer_->Instant(TraceEventType::kEvict, trace_shard_, -1, -1,
                     evicted);
  }
  if (journal_ != nullptr && evicted > 0) {
    journal_->Record(-1, DecisionKind::kEvictPass, journal_shard_, evicted,
                     need);
  }
  return evicted;
}

}  // namespace qsys
