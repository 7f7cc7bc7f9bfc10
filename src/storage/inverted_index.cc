#include "src/storage/inverted_index.h"

#include <algorithm>
#include <cctype>

namespace qsys {

const std::vector<KeywordMatch> InvertedIndex::kEmpty;

namespace {
// The index's key space is lowercase; Build, Lookup and AddAlias must
// all normalize identically or per-term match lists silently split.
std::string LowercaseKey(const std::string& term) {
  std::string key;
  key.reserve(term.size());
  for (char ch : term) {
    key.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
  }
  return key;
}
}  // namespace

std::vector<std::string> TokenizeKeywords(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : text) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      cur.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

InvertedIndex InvertedIndex::Build(const Catalog& catalog) {
  InvertedIndex index;
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    const Table& table = catalog.table(t);
    const TableSchema& schema = table.schema();
    // Metadata matches: tokens of the table name.
    for (const std::string& tok : TokenizeKeywords(schema.name())) {
      index.AddAlias(tok, t, 1.0);
    }
    // Content matches: string columns. Track per (term, column) the best
    // score and hit count.
    struct Agg {
      double best = 0.0;
      int64_t hits = 0;
    };
    std::unordered_map<std::string, std::unordered_map<int, Agg>> agg;
    for (RowId r = 0; r < table.num_rows(); ++r) {
      const Row& row = table.row(r);
      double score = table.RowScore(r);
      for (int c = 0; c < schema.num_fields(); ++c) {
        if (schema.fields()[c].type != FieldType::kString) continue;
        if (row[c].type() != ValueType::kString) continue;
        for (const std::string& tok : TokenizeKeywords(row[c].AsString())) {
          Agg& a = agg[tok][c];
          a.best = std::max(a.best, score);
          a.hits += 1;
        }
      }
    }
    for (auto& [term, cols] : agg) {
      for (auto& [col, a] : cols) {
        KeywordMatch m;
        m.table = t;
        m.column = col;
        m.score = a.best;
        m.tuple_hits = a.hits;
        index.map_[term].push_back(m);
      }
    }
  }
  return index;
}

const std::vector<KeywordMatch>& InvertedIndex::Lookup(
    const std::string& term) const {
  auto it = map_.find(LowercaseKey(term));
  return it == map_.end() ? kEmpty : it->second;
}

void InvertedIndex::AddAlias(const std::string& term, TableId table,
                             double score) {
  // Normalize to the index's lowercase key space: an alias registered
  // as "Kinase" and again as "kinase" must land in the *same* per-term
  // match list (and be found by Lookup) rather than seeding a parallel
  // list that dodges the dedup below and inflates the candidate
  // generator's match statistics.
  auto& vec = map_[LowercaseKey(term)];
  for (KeywordMatch& m : vec) {
    if (m.table == table && m.column == -1) {
      m.score = std::max(m.score, score);
      return;
    }
  }
  KeywordMatch m;
  m.table = table;
  m.column = -1;
  m.score = score;
  vec.push_back(m);
}

}  // namespace qsys
