// Unit tests for the query-state-manager layer: batching, clustering,
// eviction policies, and the state registry.

#include <gtest/gtest.h>

#include "src/qs/batcher.h"
#include "src/qs/cluster.h"
#include "src/qs/state_manager.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

// ---- batcher ----

UserQuery UqAt(int id, VirtualTime t) {
  UserQuery q;
  q.id = id;
  q.submit_time_us = t;
  return q;
}

TEST(BatcherTest, FlushesWhenFull) {
  QueryBatcher batcher(/*batch_size=*/2, /*window_us=*/1'000'000);
  batcher.Add(UqAt(1, 100));
  EXPECT_FALSE(batcher.ReadyAt(100));
  batcher.Add(UqAt(2, 200));
  EXPECT_TRUE(batcher.ReadyAt(200));  // full
  std::vector<UserQuery> out = batcher.Flush();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1);
  EXPECT_FALSE(batcher.HasPending());
}

TEST(BatcherTest, FlushesOnWindowTimeout) {
  QueryBatcher batcher(5, 1'000'000);
  batcher.Add(UqAt(1, 100));
  EXPECT_EQ(batcher.NextDeadline(), 1'000'100);
  EXPECT_FALSE(batcher.ReadyAt(500'000));
  EXPECT_TRUE(batcher.ReadyAt(1'000'100));
}

TEST(BatcherTest, FlushTakesAtMostBatchSize) {
  QueryBatcher batcher(2, 100);
  for (int i = 0; i < 5; ++i) batcher.Add(UqAt(i, i * 10));
  EXPECT_EQ(batcher.Flush().size(), 2u);
  EXPECT_EQ(batcher.pending_count(), 3);
  EXPECT_EQ(batcher.LatestSubmit(), 40);
}

// ---- clustering ----

UserQuery UqOverTables(int id, std::vector<TableId> tables) {
  UserQuery q;
  q.id = id;
  ConjunctiveQuery cq;
  for (TableId t : tables) {
    Atom a;
    a.table = t;
    cq.expr.AddAtom(a);
  }
  cq.expr.Normalize();
  q.cqs.push_back(std::move(cq));
  return q;
}

TEST(ClusterTest, JaccardBasics) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2}, {3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
}

TEST(ClusterTest, SourceTablesOfUnionsCqs) {
  UserQuery q = UqOverTables(1, {3, 5});
  ConjunctiveQuery extra;
  Atom a;
  a.table = 7;
  extra.expr.AddAtom(a);
  extra.expr.Normalize();
  q.cqs.push_back(extra);
  std::set<TableId> tables = SourceTablesOf(q);
  EXPECT_EQ(tables, (std::set<TableId>{3, 5, 7}));
}

TEST(ClusterTest, HotSourceGroupsUsers) {
  // Queries 0,1,2 all use table 1 (hot); query 3 touches only table 9.
  std::vector<UserQuery> qs = {
      UqOverTables(1, {1, 2}), UqOverTables(2, {1, 3}),
      UqOverTables(3, {1, 4}), UqOverTables(4, {9})};
  std::vector<const UserQuery*> ptrs;
  for (const UserQuery& q : qs) ptrs.push_back(&q);
  ClusterOptions options;
  options.tm = 2;   // need > 2 users to seed
  options.tc = 0.5;
  std::vector<std::vector<int>> clusters =
      ClusterUserQueries(ptrs, options);
  // Expect: {0,1,2} together (hot table 1), {3} alone.
  ASSERT_EQ(clusters.size(), 2u);
  std::set<int> big(clusters[0].begin(), clusters[0].end());
  std::set<int> small(clusters[1].begin(), clusters[1].end());
  if (big.size() < small.size()) std::swap(big, small);
  EXPECT_EQ(big, (std::set<int>{0, 1, 2}));
  EXPECT_EQ(small, (std::set<int>{3}));
}

TEST(ClusterTest, EveryQueryAssignedExactlyOnce) {
  std::vector<UserQuery> qs;
  for (int i = 0; i < 8; ++i) {
    qs.push_back(UqOverTables(i + 1, {static_cast<TableId>(i % 3),
                                      static_cast<TableId>(3 + i % 2)}));
  }
  std::vector<const UserQuery*> ptrs;
  for (const UserQuery& q : qs) ptrs.push_back(&q);
  std::vector<std::vector<int>> clusters =
      ClusterUserQueries(ptrs, ClusterOptions{});
  std::set<int> seen;
  for (const auto& c : clusters) {
    for (int idx : c) EXPECT_TRUE(seen.insert(idx).second);
  }
  EXPECT_EQ(seen.size(), qs.size());
}

// ---- eviction ----

CacheItem Item(const std::string& key, int64_t size, VirtualTime used,
               double recompute = 0.0) {
  CacheItem it;
  it.key = key;
  it.size_bytes = size;
  it.last_used_us = used;
  it.recompute_cost = recompute;
  return it;
}

TEST(EvictionTest, LruSizePrefersOldThenLarge) {
  std::vector<CacheItem> items = {Item("new_big", 100, 50),
                                  Item("old_small", 10, 10),
                                  Item("old_big", 100, 10)};
  std::vector<size_t> victims =
      ChooseVictims(items, EvictionPolicy::kLruSize, 100);
  ASSERT_GE(victims.size(), 1u);
  EXPECT_EQ(items[victims[0]].key, "old_big");  // oldest, larger first
}

TEST(EvictionTest, SizeOnlyPrefersLargest) {
  std::vector<CacheItem> items = {Item("a", 10, 1), Item("b", 500, 99),
                                  Item("c", 50, 5)};
  std::vector<size_t> victims =
      ChooseVictims(items, EvictionPolicy::kSizeOnly, 400);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(items[victims[0]].key, "b");
}

TEST(EvictionTest, RecomputeCostPrefersCheapest) {
  std::vector<CacheItem> items = {Item("pricey", 100, 1, 1000.0),
                                  Item("cheap", 100, 1, 1.0)};
  std::vector<size_t> victims =
      ChooseVictims(items, EvictionPolicy::kRecomputeCost, 50);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(items[victims[0]].key, "cheap");
}

TEST(EvictionTest, SkipsPinnedAndReferenced) {
  std::vector<CacheItem> items = {Item("pinned", 100, 1),
                                  Item("live", 100, 1),
                                  Item("free", 100, 1)};
  items[0].referenced = true;
  items[1].referenced = true;
  std::vector<size_t> victims =
      ChooseVictims(items, EvictionPolicy::kLru, 1000);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(items[victims[0]].key, "free");
}

TEST(EvictionTest, StopsOnceEnoughFreed) {
  std::vector<CacheItem> items = {Item("a", 60, 1), Item("b", 60, 2),
                                  Item("c", 60, 3)};
  std::vector<size_t> victims =
      ChooseVictims(items, EvictionPolicy::kLru, 100);
  EXPECT_EQ(victims.size(), 2u);
}

TEST(EvictionTest, PolicyNames) {
  EXPECT_STREQ(EvictionPolicyName(EvictionPolicy::kLruSize), "lru+size");
  EXPECT_STREQ(EvictionPolicyName(EvictionPolicy::kRecomputeCost),
               "recompute-cost");
}

// ---- state manager ----

TEST(StateManagerTest, RegistryLookupIsTagScoped) {
  Catalog catalog;
  TableSchema s("t", {{"id", FieldType::kInt}});
  catalog.AddTable(std::move(s)).value();
  catalog.FinalizeAll();
  SourceManager sources(&catalog);
  StateManager manager(&sources, /*budget=*/1 << 20,
                       EvictionPolicy::kLruSize);
  JoinHashTable table(&catalog);
  manager.RegisterModuleTable(0, "sigA", &table, nullptr, 100);
  EXPECT_EQ(manager.FullestModuleTable(0, "sigA"), &table);
  EXPECT_EQ(manager.FullestModuleTable(1, "sigA"), nullptr);  // tag scoped
  EXPECT_EQ(manager.FullestModuleTable(0, "sigB"), nullptr);
}

TEST(StateManagerTest, RegistryListsEveryCopy) {
  Catalog catalog;
  TableSchema s("t", {{"id", FieldType::kInt},
                      {"score", FieldType::kDouble}});
  s.set_score_field(1);
  TableId tid = catalog.AddTable(std::move(s)).value();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(catalog.table(tid)
                    .AddRow({Value(int64_t{i}), Value(0.5)})
                    .ok());
  }
  catalog.FinalizeAll();
  SourceManager sources(&catalog);
  StateManager manager(&sources, /*budget=*/1 << 20,
                       EvictionPolicy::kLruSize);
  // Three consumer copies of one stream's prefix, drifted apart.
  JoinHashTable shorter(&catalog), fuller(&catalog), tied(&catalog);
  for (RowId i = 0; i < 48; ++i) {
    if (i < 16) shorter.Insert(0, CompositeTuple::ForBase(tid, i, 0.5));
    fuller.Insert(0, CompositeTuple::ForBase(tid, i, 0.5));
    tied.Insert(0, CompositeTuple::ForBase(tid, i, 0.5));
  }
  manager.RegisterModuleTable(0, "sig", &shorter, nullptr, 1);
  manager.RegisterModuleTable(0, "sig", &fuller, nullptr, 2);
  EXPECT_EQ(manager.TotalCacheBytes(),
            shorter.SizeBytes() + fuller.SizeBytes());
  EXPECT_EQ(manager.FullestModuleTable(0, "sig"), &fuller);

  // Equally full: the oldest registration wins, and registering a
  // listed copy again keeps its place.
  manager.RegisterModuleTable(0, "sig", &tied, nullptr, 3);
  manager.RegisterModuleTable(0, "sig", &fuller, nullptr, 4);
  EXPECT_EQ(manager.FullestModuleTable(0, "sig"), &fuller);
  EXPECT_EQ(manager.TotalCacheBytes(), shorter.SizeBytes() +
                                           fuller.SizeBytes() +
                                           tied.SizeBytes());
}

TEST(StateManagerTest, EnforceBudgetEvictsUnreferencedTables) {
  Catalog catalog;
  TableSchema s("t", {{"id", FieldType::kInt},
                      {"score", FieldType::kDouble}});
  s.set_score_field(1);
  TableId tid = catalog.AddTable(std::move(s)).value();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(catalog.table(tid)
                    .AddRow({Value(int64_t{i}), Value(0.5)})
                    .ok());
  }
  catalog.FinalizeAll();
  SourceManager sources(&catalog);
  StateManager manager(&sources, /*budget=*/1, EvictionPolicy::kLruSize);
  JoinHashTable table(&catalog);
  for (RowId i = 0; i < 64; ++i) {
    table.Insert(0, CompositeTuple::ForBase(tid, i, 0.5));
  }
  manager.RegisterModuleTable(0, "sig", &table, /*owner=*/nullptr, 5);
  EXPECT_GT(manager.TotalCacheBytes(), 1);
  int evicted = manager.EnforceBudget(10);
  EXPECT_GE(evicted, 1);
  EXPECT_EQ(table.num_entries(), 0);  // cleared
  EXPECT_GE(manager.evictions(), 1);
}

}  // namespace
}  // namespace qsys
