#include "src/qs/state_manager.h"

#include <algorithm>

#include "src/source/table_stream.h"

namespace qsys {

void StateManager::RegisterModuleTable(int tag,
                                       const std::string& expr_signature,
                                       JoinHashTable* table, MJoinOp* owner,
                                       VirtualTime now) {
  std::vector<TableEntry>& copies = tables_[Key(tag, expr_signature)];
  auto it = std::find_if(copies.begin(), copies.end(),
                         [table](const TableEntry& e) {
                           return e.table == table;
                         });
  if (it == copies.end()) it = copies.insert(copies.end(), TableEntry{table});
  it->owner = owner;
  it->last_used_us = now;
  last_now_us_ = std::max(last_now_us_, now);
}

JoinHashTable* StateManager::FullestModuleTable(
    int tag, const std::string& expr_signature) const {
  return FullestCopy(Key(tag, expr_signature));
}

JoinHashTable* StateManager::FullestCopy(const std::string& key) const {
  auto it = tables_.find(key);
  if (it == tables_.end()) return nullptr;
  JoinHashTable* best = nullptr;
  for (const TableEntry& e : it->second) {
    if (best == nullptr || e.table->num_entries() > best->num_entries()) {
      best = e.table;
    }
  }
  return best;
}

int64_t StateManager::BackfillModuleTable(int tag,
                                          const std::string& expr_signature,
                                          JoinHashTable* dest,
                                          ExecContext& ctx) {
  const std::string key = Key(tag, expr_signature);
  JoinHashTable* fullest = FullestCopy(key);
  int64_t added = 0;
  // A parked disk copy can be *fuller* than every listed copy: it is
  // the demoted fullest copy, and shorter copies of the same stream
  // survive in memory. Those shorter prefixes must not shadow it — the
  // disk copy is dropped below, so skipping the restore would discard
  // the only holder of the suffix and silently lose its buffered
  // results. Restore first; identity dedup absorbs the overlap with
  // whatever `dest` already holds, and the restored entries keep their
  // original arrival order and epochs.
  const int64_t live_fullest =
      std::max(dest->num_entries(),
               fullest != nullptr ? fullest->num_entries() : int64_t{0});
  if (spill_ != nullptr && spill_->SpilledItems(key) > live_fullest) {
    RestoreOutcome r = RestoreSpilledTable(tag, expr_signature, dest);
    if (r.entries > 0) {
      added = r.entries;
      ctx.Charge(TimeBucket::kJoin, SpillReadCostUs(r.bytes));
    }
  }
  if (fullest != nullptr && fullest != dest &&
      fullest->num_entries() > dest->num_entries()) {
    // Both tables are prefixes of the same shared arrival sequence, so
    // topping `dest` up with the fuller table's suffix restores the
    // complete prefix — also for a *reused* operator that deactivated
    // early in a past epoch and is about to resume consuming new
    // arrivals (without the top-up it would hold a gap and silently
    // miss join results against the skipped tuples).
    int64_t copied = 0;
    // Offer every entry; the table's identity dedup keeps what is
    // missing. Epochs must stay nondecreasing in arrival order, so
    // when `dest` already holds newer entries the copies are clamped
    // up to dest's tail epoch (still strictly before the epoch being
    // grafted, so recovery sees them as buffered).
    const int tail_epoch =
        dest->num_entries() > 0 ? dest->entry_epoch(dest->num_entries() - 1)
                                : 0;
    for (int64_t i = 0; i < fullest->num_entries(); ++i) {
      if (dest->Insert(std::max(fullest->entry_epoch(i), tail_epoch),
                       fullest->entry(i))) {
        ++copied;
      }
    }
    added += copied;
    ctx.Charge(TimeBucket::kJoin,
               static_cast<VirtualTime>(static_cast<double>(copied) *
                                        ctx.delays->params().join_output_us));
  }
  // `dest` now holds at least the disk copy's entries, so the disk copy
  // is stale: a stale spill must never be restored over fresher state.
  if (spill_ != nullptr) spill_->Drop(key);
  return added;
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
  for (const auto& [key, copies] : tables_) {
    (void)key;
    for (const TableEntry& e : copies) total += e.table->SizeBytes();
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

bool StateManager::Covered(const std::string& key,
                           const JoinHashTable* victim) const {
  const int64_t entries = victim->num_entries();
  if (spill_ != nullptr && spill_->SpilledItems(key) >= entries) return true;
  for (const TableEntry& e : tables_.at(key)) {
    if (e.table != victim && e.table->num_entries() >= entries) return true;
  }
  return false;
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

  // Build the cacheable-item view: one item per registered table copy
  // that holds state (evictable only when its owner operator is
  // inactive), then one per probe cache. A copy holding nothing (never
  // filled, or cleared by an earlier eviction) would free nothing.
  std::vector<CacheItem> items;
  std::vector<JoinHashTable*> item_tables;
  std::vector<ProbeSource*> item_probes;
  for (const auto& [key, copies] : tables_) {
    for (const TableEntry& e : copies) {
      CacheItem item;
      item.kind = CacheItem::Kind::kHashTable;
      item.key = key;
      item.size_bytes = e.table->SizeBytes();
      if (item.size_bytes == 0) continue;
      item.last_used_us = e.last_used_us;
      item.recompute_cost = static_cast<double>(item.size_bytes);
      // Referenced while the owning operator runs — or while a recovery
      // query borrows the table as a frozen module / replay source
      // (evicting mid-replay would corrupt the recovery's results).
      item.referenced = (e.owner != nullptr && e.owner->active()) ||
                        e.table->borrowers() > 0;
      item_tables.push_back(e.table);
      item_probes.push_back(nullptr);
      items.push_back(std::move(item));
    }
  }
  for (const auto& probe : sources_->probes()) {
    CacheItem item;
    item.kind = CacheItem::Kind::kProbeCache;
    item.key = "probe" + std::to_string(probe->id());
    item.size_bytes = probe->CacheSizeBytes();
    item.last_used_us = 0;  // probe caches are the coldest class
    item.recompute_cost = static_cast<double>(probe->probes_issued());
    item.referenced = false;
    item_tables.push_back(nullptr);
    item_probes.push_back(probe.get());
    items.push_back(std::move(item));
  }

  std::vector<size_t> victims = ChooseVictims(items, policy_, need);
  int evicted = 0;
  for (size_t idx : victims) {
    if (ProbeSource* probe = item_probes[idx]) {
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
      JoinHashTable* table = item_tables[idx];
      const int64_t entries = table->num_entries();
      bool demoted = false;
      if (ShouldSpill(items[idx], entries) &&
          !Covered(items[idx].key, table)) {
        if (!spill_->SpillTable(items[idx].key, *table).ok()) {
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
        demoted = true;
        ++spills_;
      }
      JournalVictim(items[idx], entries, demoted);
      table->Clear();
    }
    ++evicted;
  }
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
