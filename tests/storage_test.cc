// Unit tests for the storage substrate: tables, indexes, catalog,
// inverted keyword index.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/storage/catalog.h"
#include "src/storage/inverted_index.h"

namespace qsys {
namespace {

TableSchema ScoredSchema() {
  TableSchema s("scored", {{"id", FieldType::kInt},
                           {"label", FieldType::kString},
                           {"score", FieldType::kDouble}});
  s.set_key_field(0);
  s.set_score_field(2);
  return s;
}

TEST(TableSchemaTest, FieldLookup) {
  TableSchema s = ScoredSchema();
  EXPECT_EQ(s.FieldIndex("id"), 0);
  EXPECT_EQ(s.FieldIndex("score"), 2);
  EXPECT_EQ(s.FieldIndex("missing"), -1);
  EXPECT_TRUE(s.has_score());
}

TEST(TableTest, RejectsArityMismatch) {
  Table t(ScoredSchema());
  EXPECT_EQ(t.AddRow({Value(int64_t{1})}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, RejectsRowsAfterFinalize) {
  Table t(ScoredSchema());
  ASSERT_TRUE(t.AddRow({Value(int64_t{1}), Value("a"), Value(0.5)}).ok());
  t.Finalize();
  EXPECT_EQ(t.AddRow({Value(int64_t{2}), Value("b"), Value(0.1)}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(TableTest, ScoreOrderIsNonincreasing) {
  Table t(ScoredSchema());
  double scores[] = {0.2, 0.9, 0.5, 0.9, 0.1};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AddRow({Value(int64_t{i}), Value("x"),
                          Value(scores[i])}).ok());
  }
  t.Finalize();
  ASSERT_EQ(t.score_order().size(), 5u);
  for (size_t i = 1; i < t.score_order().size(); ++i) {
    EXPECT_GE(t.RowScore(t.score_order()[i - 1]),
              t.RowScore(t.score_order()[i]));
  }
  EXPECT_DOUBLE_EQ(t.max_score(), 0.9);
  EXPECT_DOUBLE_EQ(t.min_score(), 0.1);
}

TEST(TableTest, UnscoredTableUsesNeutralScore) {
  TableSchema s("plain", {{"id", FieldType::kInt}});
  Table t(s);
  ASSERT_TRUE(t.AddRow({Value(int64_t{0})}).ok());
  t.Finalize();
  EXPECT_DOUBLE_EQ(t.RowScore(0), 1.0);
  EXPECT_DOUBLE_EQ(t.max_score(), 1.0);
}

TEST(TableTest, HashIndexLookup) {
  Table t(ScoredSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AddRow({Value(int64_t{i % 3}), Value("x"),
                          Value(0.5)}).ok());
  }
  t.Finalize();
  const HashIndex& idx = t.GetHashIndex(0);
  EXPECT_EQ(idx.Lookup(Value(int64_t{0})).size(), 4u);  // 0,3,6,9
  EXPECT_EQ(idx.Lookup(Value(int64_t{1})).size(), 3u);
  EXPECT_TRUE(idx.Lookup(Value(int64_t{42})).empty());
}

TEST(TableTest, ConcurrentFirstHashIndexUseBuildsOnce) {
  // Two threads making the first probe of one column — two ATCs of one
  // engine, or two shards over the shared dataset — must get the same
  // complete index.
  Table t(ScoredSchema());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.AddRow({Value(int64_t{i % 7}), Value("x"),
                          Value(0.5)}).ok());
  }
  t.Finalize();
  std::atomic<bool> go{false};
  const HashIndex* seen[2] = {nullptr, nullptr};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&t, &go, &seen, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      seen[i] = &t.GetHashIndex(0);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0]->Lookup(Value(int64_t{0})).size(), 143u);  // 0,7,...,994
}

TEST(TableTest, DistinctCounts) {
  Table t(ScoredSchema());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(t.AddRow({Value(int64_t{i % 4}), Value("same"),
                          Value(0.5)}).ok());
  }
  t.Finalize();
  EXPECT_EQ(t.DistinctCount(0), 4);
  EXPECT_EQ(t.DistinctCount(1), 1);
  EXPECT_EQ(t.DistinctCount(99), 1);  // out of range defaults to 1
}

TEST(CatalogTest, AddAndFind) {
  Catalog c;
  auto id = c.AddTable(ScoredSchema());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(c.num_tables(), 1);
  auto found = c.FindTable("scored");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), id.value());
  EXPECT_EQ(c.FindTable("nope").status().code(), StatusCode::kNotFound);
  // Duplicate names rejected.
  EXPECT_EQ(c.AddTable(ScoredSchema()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(TokenizeTest, LowercasesAndSplits) {
  auto toks = TokenizeKeywords("Plasma-Membrane  GENE_42!");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0], "plasma");
  EXPECT_EQ(toks[1], "membrane");
  EXPECT_EQ(toks[2], "gene");
  EXPECT_EQ(toks[3], "42");
}

TEST(InvertedIndexTest, ContentAndMetadataMatches) {
  Catalog c;
  auto id = c.AddTable(ScoredSchema());
  ASSERT_TRUE(id.ok());
  Table& t = c.table(id.value());
  ASSERT_TRUE(
      t.AddRow({Value(int64_t{0}), Value("kinase domain"), Value(0.9)})
          .ok());
  ASSERT_TRUE(
      t.AddRow({Value(int64_t{1}), Value("kinase binding"), Value(0.4)})
          .ok());
  c.FinalizeAll();
  InvertedIndex index = InvertedIndex::Build(c);
  // Metadata: table name "scored".
  const auto& meta = index.Lookup("scored");
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_EQ(meta[0].column, -1);
  // Content: "kinase" appears in 2 tuples, best score 0.9.
  const auto& hits = index.Lookup("kinase");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].column, 1);
  EXPECT_EQ(hits[0].tuple_hits, 2);
  EXPECT_DOUBLE_EQ(hits[0].score, 0.9);
  // Lookup is case-insensitive.
  EXPECT_EQ(index.Lookup("KINASE").size(), 1u);
  EXPECT_TRUE(index.Lookup("absent").empty());
}

TEST(InvertedIndexTest, AliasRegistration) {
  Catalog c;
  auto id = c.AddTable(ScoredSchema());
  ASSERT_TRUE(id.ok());
  c.FinalizeAll();
  InvertedIndex index = InvertedIndex::Build(c);
  index.AddAlias("synonym", id.value());
  const auto& hits = index.Lookup("synonym");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].table, id.value());
  // Re-adding keeps one entry with the max score.
  index.AddAlias("synonym", id.value(), 0.5);
  EXPECT_EQ(index.Lookup("synonym").size(), 1u);
  EXPECT_DOUBLE_EQ(index.Lookup("synonym")[0].score, 1.0);
}

TEST(InvertedIndexTest, AliasRegistrationIsCaseInsensitive) {
  Catalog c;
  auto id = c.AddTable(ScoredSchema());
  ASSERT_TRUE(id.ok());
  c.FinalizeAll();
  InvertedIndex index = InvertedIndex::Build(c);
  // Case variants of one alias must collapse into a single per-term
  // match list with a single deduplicated entry — not parallel lists
  // that inflate candidate-generator statistics.
  index.AddAlias("Synonym", id.value(), 0.7);
  index.AddAlias("synonym", id.value(), 0.4);
  index.AddAlias("SYNONYM", id.value(), 0.6);
  const auto& hits = index.Lookup("synonym");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].table, id.value());
  EXPECT_EQ(hits[0].column, -1);
  EXPECT_DOUBLE_EQ(hits[0].score, 0.7);
  // All case variants resolve to the same list.
  EXPECT_EQ(index.Lookup("Synonym").size(), 1u);
  EXPECT_EQ(index.Lookup("SYNONYM").size(), 1u);
}

}  // namespace
}  // namespace qsys
