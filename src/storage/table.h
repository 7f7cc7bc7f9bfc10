// In-memory table with the two physical access paths the paper assumes of
// remote sources: a score-ordered scan (streaming access) and per-column
// hash lookup (random/probe access).

#ifndef QSYS_STORAGE_TABLE_H_
#define QSYS_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/storage/schema.h"

namespace qsys {


/// \brief Equality hash index on one column: value -> row ids.
class HashIndex {
 public:
  explicit HashIndex(int column) : column_(column) {}

  int column() const { return column_; }

  void Add(const Value& v, RowId row);

  /// Rows whose indexed column equals `v` (empty if none).
  const std::vector<RowId>& Lookup(const Value& v) const;

 private:
  int column_;
  std::unordered_map<Value, std::vector<RowId>, ValueHash> map_;
  static const std::vector<RowId> kEmpty;
};

/// \brief One relation of a simulated remote database.
///
/// Population is two-phase: AddRow() repeatedly, then Finalize() to build
/// the score order and key statistics. Post-Finalize the table is
/// immutable, matching the paper's read-only source model.
class Table {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {}

  const TableSchema& schema() const { return schema_; }
  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }
  const Row& row(RowId id) const { return rows_[id]; }

  /// Appends a row. Must match the schema arity; fails after Finalize().
  Status AddRow(Row row);

  /// Builds the score-ordered view, per-column distinct counts, and score
  /// extrema. Idempotent.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// Row ids in non-increasing order of the score attribute. If the table
  /// has no score attribute, this is insertion order (every tuple then
  /// carries the neutral score 1.0; see Table::RowScore).
  const std::vector<RowId>& score_order() const { return score_order_; }

  /// Score of a row: the score attribute if present, else 1.0. Base
  /// scores are normalized to [0, 1] by the workload generators.
  double RowScore(RowId id) const;

  /// Maximum / minimum row score (1.0/1.0 for unscored tables; 0/0 when
  /// empty).
  double max_score() const { return max_score_; }
  double min_score() const { return min_score_; }

  /// Approximate count of distinct values in `column` (for selectivity
  /// estimation). Computed at Finalize().
  int64_t DistinctCount(int column) const;

  /// Returns (building on first use) the hash index for `column`.
  /// Only valid after Finalize(). Safe to call from many threads: each
  /// column's index is built exactly once.
  const HashIndex& GetHashIndex(int column) const;

 private:
  TableSchema schema_;
  std::vector<Row> rows_;
  std::vector<RowId> score_order_;
  std::vector<int64_t> distinct_counts_;
  /// One lazily built hash index per column (sized by Finalize()).
  struct LazyHashIndex {
    std::once_flag built;
    std::unique_ptr<HashIndex> index;
  };
  mutable std::unique_ptr<LazyHashIndex[]> hash_indexes_;
  double max_score_ = 0.0;
  double min_score_ = 0.0;
  bool finalized_ = false;
};

}  // namespace qsys

#endif  // QSYS_STORAGE_TABLE_H_
