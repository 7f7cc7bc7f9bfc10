// The catalog of simulated remote relations.
//
// In the paper the sources are remote MySQL instances; here the Catalog
// plays the role of "all remote databases", and the middleware reaches it
// only through the source interfaces in src/source (which charge virtual
// network time). The optimizer may read catalog *statistics* (sizes,
// distinct counts, score maxima) for free, mirroring the paper's
// assumption that metadata/statistics are known to the middleware.

#ifndef QSYS_STORAGE_CATALOG_H_
#define QSYS_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/storage/table.h"

namespace qsys {

/// \brief Registry of all tables across all simulated source databases.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a table; returns its id. Fails on duplicate names.
  Result<TableId> AddTable(TableSchema schema);

  /// Finalizes every table (builds indexes/statistics).
  void FinalizeAll();

  int num_tables() const { return static_cast<int>(tables_.size()); }

  /// Lookup by id; id must be valid.
  Table& table(TableId id) { return *tables_[id]; }
  const Table& table(TableId id) const { return *tables_[id]; }

  /// Lookup by name.
  Result<TableId> FindTable(const std::string& name) const;

  /// Convenience: the value at (table, row, column).
  const Value& GetValue(TableId t, RowId r, int col) const {
    return tables_[t]->row(r)[col];
  }

 private:
  std::vector<std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, TableId> by_name_;
};

}  // namespace qsys

#endif  // QSYS_STORAGE_CATALOG_H_
