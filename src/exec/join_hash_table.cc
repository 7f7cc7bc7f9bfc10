#include "src/exec/join_hash_table.h"

#include <algorithm>
#include <cassert>

namespace qsys {

bool JoinHashTable::Insert(int epoch, CompositeTuple tuple) {
  assert(entries_.empty() || epoch >= entries_.back().epoch);
  if (!identities_.insert(tuple.IdentityHash()).second) return false;
  int64_t id = static_cast<int64_t>(entries_.size());
  // Maintain any already-built indexes.
  for (auto& [key_pair, index] : indexes_) {
    const BaseRef& ref = tuple.ref(key_pair.first);
    const Value& v = catalog_->GetValue(ref.table, ref.row, key_pair.second);
    std::vector<int64_t>& ids = index[v];
    if (ids.empty()) size_bytes_ += 56;
    ids.push_back(id);
  }
  entries_.push_back({std::move(tuple), epoch});
  size_bytes_ += entries_.back().tuple.SizeBytes() + 16;
  return true;
}

const JoinHashTable::KeyIndex& JoinHashTable::GetOrBuildIndex(
    int slot, int col) const {
  auto key = std::make_pair(slot, col);
  auto it = indexes_.find(key);
  if (it != indexes_.end()) return it->second;
  KeyIndex index;
  for (int64_t i = 0; i < static_cast<int64_t>(entries_.size()); ++i) {
    const BaseRef& ref = entries_[i].tuple.ref(slot);
    const Value& v = catalog_->GetValue(ref.table, ref.row, col);
    index[v].push_back(i);
  }
  size_bytes_ += 64 + static_cast<int64_t>(index.size()) * 56;
  return indexes_.emplace(key, std::move(index)).first->second;
}

void JoinHashTable::Probe(
    int slot, int col, const Value& key, int max_epoch_exclusive,
    const std::function<void(const CompositeTuple&)>& fn) const {
  const KeyIndex& index = GetOrBuildIndex(slot, col);
  auto it = index.find(key);
  if (it == index.end()) return;
  for (int64_t id : it->second) {
    if (entries_[id].epoch >= max_epoch_exclusive) continue;
    fn(entries_[id].tuple);
  }
}

int64_t JoinHashTable::CountBefore(int epoch) const {
  // Epochs are nondecreasing: binary search for the boundary.
  int64_t lo = 0, hi = static_cast<int64_t>(entries_.size());
  while (lo < hi) {
    int64_t mid = (lo + hi) / 2;
    if (entries_[mid].epoch < epoch) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void JoinHashTable::Clear() {
  entries_.clear();
  identities_.clear();
  indexes_.clear();
  size_bytes_ = 0;
}

}  // namespace qsys
