// Unit tests for the epoch-partitioned join hash table (§6.2): arrival
// order, lazy per-column indexes, epoch filtering, replay prefixes.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <utility>

#include "src/exec/join_hash_table.h"

namespace qsys {
namespace {

class JoinHashTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema schema("t", {{"id", FieldType::kInt},
                             {"grp", FieldType::kInt},
                             {"score", FieldType::kDouble}});
    schema.set_score_field(2);
    tid_ = catalog_.AddTable(std::move(schema)).value();
    Table& t = catalog_.table(tid_);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(t.AddRow({Value(int64_t{i}), Value(int64_t{i % 2}),
                            Value(1.0 - 0.1 * i)})
                      .ok());
    }
    catalog_.FinalizeAll();
  }

  CompositeTuple Tuple(RowId row) {
    return CompositeTuple::ForBase(tid_, row,
                                   catalog_.table(tid_).RowScore(row));
  }

  Catalog catalog_;
  TableId tid_;
};

TEST_F(JoinHashTableTest, InsertAndProbeByColumn) {
  JoinHashTable table(&catalog_);
  for (RowId r = 0; r < 8; ++r) table.Insert(0, Tuple(r));
  EXPECT_EQ(table.num_entries(), 8);
  int hits = 0;
  table.Probe(0, /*col=*/1, Value(int64_t{0}), JoinHashTable::kAllEpochs,
              [&](const CompositeTuple& t) {
                EXPECT_EQ(t.ref(0).row % 2, 0u);
                ++hits;
              });
  EXPECT_EQ(hits, 4);
}

TEST_F(JoinHashTableTest, IndexMaintainedAcrossInserts) {
  JoinHashTable table(&catalog_);
  table.Insert(0, Tuple(0));
  // Build the index early, then keep inserting: index must stay fresh.
  int hits = 0;
  table.Probe(0, 1, Value(int64_t{0}), JoinHashTable::kAllEpochs,
              [&](const CompositeTuple&) { ++hits; });
  EXPECT_EQ(hits, 1);
  table.Insert(0, Tuple(2));
  table.Insert(0, Tuple(4));
  hits = 0;
  table.Probe(0, 1, Value(int64_t{0}), JoinHashTable::kAllEpochs,
              [&](const CompositeTuple&) { ++hits; });
  EXPECT_EQ(hits, 3);
}

TEST_F(JoinHashTableTest, EpochFiltering) {
  JoinHashTable table(&catalog_);
  table.Insert(0, Tuple(0));
  table.Insert(0, Tuple(2));
  table.Insert(1, Tuple(4));
  table.Insert(2, Tuple(6));
  int pre1 = 0;
  table.Probe(0, 1, Value(int64_t{0}), /*max_epoch_exclusive=*/1,
              [&](const CompositeTuple&) { ++pre1; });
  EXPECT_EQ(pre1, 2);
  int pre2 = 0;
  table.Probe(0, 1, Value(int64_t{0}), 2,
              [&](const CompositeTuple&) { ++pre2; });
  EXPECT_EQ(pre2, 3);
}

TEST_F(JoinHashTableTest, CountBeforeBinarySearch) {
  JoinHashTable table(&catalog_);
  table.Insert(0, Tuple(0));
  table.Insert(0, Tuple(1));
  table.Insert(3, Tuple(2));
  EXPECT_EQ(table.CountBefore(0), 0);
  EXPECT_EQ(table.CountBefore(1), 2);
  EXPECT_EQ(table.CountBefore(3), 2);
  EXPECT_EQ(table.CountBefore(4), 3);
}

TEST_F(JoinHashTableTest, ArrivalOrderPreserved) {
  JoinHashTable table(&catalog_);
  for (RowId r = 0; r < 5; ++r) table.Insert(0, Tuple(r));
  for (int64_t i = 0; i < table.num_entries(); ++i) {
    EXPECT_EQ(table.entry(i).ref(0).row, static_cast<RowId>(i));
  }
}

TEST_F(JoinHashTableTest, ClearDropsEverything) {
  JoinHashTable table(&catalog_);
  table.Insert(0, Tuple(0));
  EXPECT_GT(table.SizeBytes(), 0);
  table.Clear();
  EXPECT_EQ(table.num_entries(), 0);
  int hits = 0;
  table.Probe(0, 1, Value(int64_t{0}), JoinHashTable::kAllEpochs,
              [&](const CompositeTuple&) { ++hits; });
  EXPECT_EQ(hits, 0);
}

TEST_F(JoinHashTableTest, RunningSizeMatchesRecount) {
  // The state manager sums SizeBytes() over every table copy at each
  // budget check, so the table keeps it as a running count. Recount it
  // from scratch here: per entry its tuple's footprint + 16, per built
  // index 64 plus 56 per distinct key.
  JoinHashTable table(&catalog_);
  std::set<int> indexed_cols;  // slot 0: every tuple is single-slot
  auto recount = [&] {
    int64_t bytes = 0;
    for (int64_t i = 0; i < table.num_entries(); ++i) {
      bytes += table.entry(i).SizeBytes() + 16;
    }
    for (int col : indexed_cols) {
      std::unordered_set<Value, ValueHash> keys;
      for (int64_t i = 0; i < table.num_entries(); ++i) {
        const BaseRef& ref = table.entry(i).ref(0);
        keys.insert(catalog_.GetValue(ref.table, ref.row, col));
      }
      bytes += 64 + 56 * static_cast<int64_t>(keys.size());
    }
    return bytes;
  };
  auto build_index = [&](int col) {
    table.Probe(0, col, Value(int64_t{0}), JoinHashTable::kAllEpochs,
                [](const CompositeTuple&) {});
    indexed_cols.insert(col);
  };

  EXPECT_EQ(table.SizeBytes(), 0);
  for (RowId r = 0; r < 4; ++r) table.Insert(0, Tuple(r));
  EXPECT_EQ(table.SizeBytes(), recount());
  EXPECT_FALSE(table.Insert(1, Tuple(2)));  // duplicate identity: dropped
  EXPECT_EQ(table.SizeBytes(), recount());
  build_index(/*grp=*/1);  // two distinct keys over four entries
  EXPECT_EQ(table.SizeBytes(), recount());
  for (RowId r = 4; r < 8; ++r) table.Insert(1, Tuple(r));  // maintained
  EXPECT_EQ(table.SizeBytes(), recount());
  build_index(/*id=*/0);
  build_index(/*id=*/0);  // already built: no new overhead
  EXPECT_EQ(table.SizeBytes(), recount());
  table.Clear();
  indexed_cols.clear();
  EXPECT_EQ(table.SizeBytes(), 0);
  table.Insert(2, Tuple(5));
  EXPECT_EQ(table.SizeBytes(), recount());
}

TEST_F(JoinHashTableTest, CompositeSumTracksScores) {
  CompositeTuple t = CompositeTuple::WithSlots(2);
  t.set_ref(0, {tid_, 0, 0.9});
  t.set_ref(1, {tid_, 3, 0.7});
  t.RecomputeSum();
  EXPECT_DOUBLE_EQ(t.sum_scores(), 1.6);
  EXPECT_EQ(t.num_refs(), 2);
  EXPECT_FALSE(t.ToString().empty());
  EXPECT_EQ(t.IdentityHash(),
            [&] {
              CompositeTuple u = CompositeTuple::WithSlots(2);
              u.set_ref(0, {tid_, 0, 0.9});
              u.set_ref(1, {tid_, 3, 0.7});
              return u.IdentityHash();
            }());
}

}  // namespace
}  // namespace qsys
