#include "src/storage/table.h"

#include <algorithm>
#include <unordered_set>

namespace qsys {

const std::vector<RowId> HashIndex::kEmpty;

void HashIndex::Add(const Value& v, RowId row) { map_[v].push_back(row); }

const std::vector<RowId>& HashIndex::Lookup(const Value& v) const {
  auto it = map_.find(v);
  return it == map_.end() ? kEmpty : it->second;
}

Status Table::AddRow(Row row) {
  if (finalized_) {
    return Status::FailedPrecondition("table " + schema_.name() +
                                      " is finalized");
  }
  if (static_cast<int>(row.size()) != schema_.num_fields()) {
    return Status::InvalidArgument("row arity mismatch for " +
                                   schema_.name());
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

void Table::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  score_order_.resize(rows_.size());
  for (RowId i = 0; i < rows_.size(); ++i) score_order_[i] = i;
  if (schema_.has_score()) {
    const int sf = schema_.score_field();
    std::stable_sort(score_order_.begin(), score_order_.end(),
                     [&](RowId a, RowId b) {
                       return rows_[a][sf].ToNumeric() >
                              rows_[b][sf].ToNumeric();
                     });
  }
  if (!rows_.empty()) {
    max_score_ = RowScore(score_order_.front());
    min_score_ = RowScore(score_order_.back());
  }
  distinct_counts_.assign(schema_.num_fields(), 0);
  for (int c = 0; c < schema_.num_fields(); ++c) {
    std::unordered_set<size_t> seen;
    seen.reserve(rows_.size());
    for (const Row& r : rows_) seen.insert(r[c].Hash());
    distinct_counts_[c] = static_cast<int64_t>(seen.size());
  }
  hash_indexes_ = std::make_unique<LazyHashIndex[]>(
      static_cast<size_t>(schema_.num_fields()));
}

double Table::RowScore(RowId id) const {
  if (!schema_.has_score()) return 1.0;
  return rows_[id][schema_.score_field()].ToNumeric();
}

int64_t Table::DistinctCount(int column) const {
  if (column < 0 || column >= static_cast<int>(distinct_counts_.size())) {
    return 1;
  }
  return std::max<int64_t>(1, distinct_counts_[column]);
}

const HashIndex& Table::GetHashIndex(int column) const {
  LazyHashIndex& slot = hash_indexes_[column];
  std::call_once(slot.built, [&] {
    slot.index = std::make_unique<HashIndex>(column);
    for (RowId i = 0; i < rows_.size(); ++i) {
      slot.index->Add(rows_[i][column], i);
    }
  });
  return *slot.index;
}

}  // namespace qsys
