// Inverted keyword index over table data and metadata.
//
// Keyword search systems precompute such indexes to find, for each search
// term, the relations (and tuples) that match it, either by content or by
// table/column name (Figure 1 of the paper: a keyword "may match a table
// either based on its name, or based on an inverted index of its
// content").

#ifndef QSYS_STORAGE_INVERTED_INDEX_H_
#define QSYS_STORAGE_INVERTED_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/storage/catalog.h"

namespace qsys {

/// \brief One keyword hit: a relation (and optionally a column) that a
/// term matches, with an IR-style relevance score in (0, 1].
struct KeywordMatch {
  TableId table = kInvalidTable;
  /// Column whose content matched, or -1 for a metadata (name) match.
  int column = -1;
  /// Match relevance. Metadata matches score 1.0; content matches carry
  /// the maximum per-tuple similarity observed for the term.
  double score = 1.0;
  /// Number of tuples of `table` containing the term (0 for pure
  /// metadata matches). Used by the candidate generator's statistics.
  int64_t tuple_hits = 0;
};

/// \brief Term -> matching relations. Built once over a Catalog.
class InvertedIndex {
 public:
  /// Indexes all string columns of all tables plus table-name metadata.
  /// Terms are whitespace-tokenized and lowercased.
  static InvertedIndex Build(const Catalog& catalog);

  /// Relations matching `term` (lowercased exact token match).
  const std::vector<KeywordMatch>& Lookup(const std::string& term) const;

  /// Registers an extra metadata alias for a table (e.g. domain synonyms
  /// used by the workload generators).
  void AddAlias(const std::string& term, TableId table, double score = 1.0);

  size_t num_terms() const { return map_.size(); }

 private:
  std::unordered_map<std::string, std::vector<KeywordMatch>> map_;
  static const std::vector<KeywordMatch> kEmpty;
};

/// Lowercases and splits `text` on non-alphanumeric boundaries.
std::vector<std::string> TokenizeKeywords(const std::string& text);

}  // namespace qsys

#endif  // QSYS_STORAGE_INVERTED_INDEX_H_
