// Tests for the disk-spill buffer-manager subsystem (src/buffer/):
// page/segment storage, frame replacement, spill serialization
// roundtrips (bit-identical hash tables and probe caches), the state
// manager's demote-to-disk path, and end-to-end equivalence of a
// tight-budget spill-enabled run with a never-evicted run.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/buffer/buffer_manager.h"
#include "src/buffer/spill_manager.h"
#include "src/qs/state_manager.h"
#include "src/workload/runner.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

std::string TempSpillDir(const std::string& name) {
  return ::testing::TempDir() + "qsys_buffer_test_" + name;
}

// ---- segment file ----

TEST(SegmentFileTest, PageRoundtripAndRecycling) {
  auto file = SegmentFile::Create(TempSpillDir("segment") + ".seg");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  SegmentFile& seg = *file.value();

  std::vector<uint8_t> a(kPageSize, 0xAB), b(kPageSize, 0xCD);
  uint64_t p0 = seg.AllocatePage();
  uint64_t p1 = seg.AllocatePage();
  EXPECT_NE(p0, p1);
  ASSERT_TRUE(seg.WritePage(p0, a.data()).ok());
  ASSERT_TRUE(seg.WritePage(p1, b.data()).ok());

  std::vector<uint8_t> out(kPageSize, 0);
  ASSERT_TRUE(seg.ReadPage(p0, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), a.data(), kPageSize), 0);
  ASSERT_TRUE(seg.ReadPage(p1, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), b.data(), kPageSize), 0);

  EXPECT_EQ(seg.live_pages(), 2);
  seg.FreePage(p0);
  EXPECT_EQ(seg.live_pages(), 1);
  EXPECT_EQ(seg.AllocatePage(), p0);  // recycled before extending
}

// ---- buffer manager ----

TEST(BufferManagerTest, WritesBackAndFaultsUnderFramePressure) {
  auto file = SegmentFile::Create(TempSpillDir("pool") + ".seg");
  ASSERT_TRUE(file.ok());
  BufferManager pool(/*frame_count=*/2);
  pool.Attach(file.value().get());

  constexpr int kPages = 5;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    std::memset(page.value().frame, 0x10 + i, kPageSize);
    pool.Unpin(page.value().id, /*dirty=*/true);
    ids.push_back(page.value().id);
  }
  // Five pages through two frames: evictions must have written back.
  EXPECT_GT(pool.pages_written(), 0);

  for (int i = 0; i < kPages; ++i) {
    auto frame = pool.Pin(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    for (int64_t b = 0; b < kPageSize; ++b) {
      ASSERT_EQ(frame.value()[b], 0x10 + i) << "page " << i;
    }
    pool.Unpin(ids[static_cast<size_t>(i)], /*dirty=*/false);
  }
  EXPECT_GT(pool.pages_read(), 0);
}

TEST(BufferManagerTest, ExhaustedWhenEveryFrameIsPinned) {
  auto file = SegmentFile::Create(TempSpillDir("pinned") + ".seg");
  ASSERT_TRUE(file.ok());
  BufferManager pool(/*frame_count=*/2);
  pool.Attach(file.value().get());

  auto p0 = pool.NewPage();
  auto p1 = pool.NewPage();  // both stay pinned
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  auto p2 = pool.NewPage();
  EXPECT_FALSE(p2.ok());
  EXPECT_EQ(p2.status().code(), StatusCode::kResourceExhausted);

  pool.Unpin(p0.value().id, /*dirty=*/true);
  auto p3 = pool.NewPage();  // p0's frame is reclaimable now
  EXPECT_TRUE(p3.ok());
}

// ---- spill serialization roundtrips ----

/// One-table catalog with int keys, string names and scores, plus a
/// hash-indexable key column for probe sources.
class SpillRoundtripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema s("t", {{"id", FieldType::kInt},
                        {"name", FieldType::kString},
                        {"score", FieldType::kDouble}});
    s.set_score_field(2);
    tid_ = catalog_.AddTable(std::move(s)).value();
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(catalog_.table(tid_)
                      .AddRow({Value(int64_t{i % 7}),
                               Value("name" + std::to_string(i)),
                               Value(1.0 / (i + 1))})
                      .ok());
    }
    catalog_.FinalizeAll();
  }

  Catalog catalog_;
  TableId tid_ = kInvalidTable;
};

TEST_F(SpillRoundtripTest, TableRestoresBitIdentical) {
  auto spill = SpillManager::Open(TempSpillDir("table_rt"), 4);
  ASSERT_TRUE(spill.ok()) << spill.status().ToString();

  JoinHashTable original(&catalog_);
  for (RowId i = 0; i < 32; ++i) {
    // Two-slot composites with distinct scores; epochs step every 8
    // arrivals so CountBefore has real partitions.
    CompositeTuple t = CompositeTuple::WithSlots(2);
    t.set_ref(0, {tid_, i, 1.0 / (i + 1)});
    t.set_ref(1, {tid_, (i * 3) % 32, 0.25 + 0.5 / (i + 2)});
    t.RecomputeSum();
    original.Insert(static_cast<int>(i) / 8, std::move(t));
  }
  ASSERT_TRUE(spill.value()->SpillTable("k", original).ok());

  JoinHashTable restored(&catalog_);
  auto outcome = spill.value()->RestoreTable("k", &restored);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().items, original.num_entries());
  EXPECT_FALSE(spill.value()->HasSpill("k"));  // restore drops the copy

  // Arrival order, epoch tags, refs and scores are all bit-identical.
  ASSERT_EQ(restored.num_entries(), original.num_entries());
  for (int64_t i = 0; i < original.num_entries(); ++i) {
    const CompositeTuple& a = original.entry(i);
    const CompositeTuple& b = restored.entry(i);
    EXPECT_EQ(original.entry_epoch(i), restored.entry_epoch(i));
    ASSERT_EQ(a.num_refs(), b.num_refs());
    for (int s = 0; s < a.num_refs(); ++s) {
      EXPECT_EQ(a.ref(s).table, b.ref(s).table);
      EXPECT_EQ(a.ref(s).row, b.ref(s).row);
      EXPECT_EQ(std::memcmp(&a.ref(s).score, &b.ref(s).score,
                            sizeof(double)),
                0);
    }
    double sum_a = a.sum_scores(), sum_b = b.sum_scores();
    EXPECT_EQ(std::memcmp(&sum_a, &sum_b, sizeof(double)), 0)
        << "sum_scores not bit-identical at entry " << i;
    EXPECT_EQ(a.IdentityHash(), b.IdentityHash());
  }
  // Epoch partitions are preserved for recovery (Algorithm 2).
  for (int e = 0; e <= 4; ++e) {
    EXPECT_EQ(original.CountBefore(e), restored.CountBefore(e));
  }

  // Probes over a rebuilt index return identical join candidates.
  for (int64_t key = 0; key < 7; ++key) {
    std::vector<uint64_t> want, got;
    original.Probe(0, 0, Value(key), JoinHashTable::kAllEpochs,
                   [&](const CompositeTuple& t) {
                     want.push_back(t.IdentityHash());
                   });
    restored.Probe(0, 0, Value(key), JoinHashTable::kAllEpochs,
                   [&](const CompositeTuple& t) {
                     got.push_back(t.IdentityHash());
                   });
    EXPECT_EQ(want, got) << "probe key " << key;
  }
}

TEST_F(SpillRoundtripTest, ProbeCacheRestoresAllValueTypes) {
  auto spill = SpillManager::Open(TempSpillDir("probe_rt"), 4);
  ASSERT_TRUE(spill.ok());

  Atom atom;
  atom.table = tid_;
  ProbeSource probe(atom, /*key_column=*/0, catalog_);
  ProbeSource::CacheMap cache;
  cache[Value(int64_t{42})] = {{tid_, 1, 0.5}, {tid_, 2, 0.25}};
  cache[Value(3.5)] = {{tid_, 3, 0.125}};
  cache[Value(std::string("protein membrane"))] = {};
  cache[Value()] = {{tid_, 7, 1.0}};
  probe.ImportCache(cache);

  ASSERT_TRUE(spill.value()->SpillProbeCache("p", probe).ok());
  probe.EvictCache();
  EXPECT_TRUE(probe.cache().empty());

  auto outcome = spill.value()->RestoreProbeCache("p", &probe);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().items, 4);

  const ProbeSource::CacheMap& got = probe.cache();
  ASSERT_EQ(got.size(), cache.size());
  for (const auto& [key, answers] : cache) {
    auto it = got.find(key);
    ASSERT_NE(it, got.end()) << key.ToString();
    ASSERT_EQ(it->second.size(), answers.size());
    for (size_t i = 0; i < answers.size(); ++i) {
      EXPECT_EQ(it->second[i].table, answers[i].table);
      EXPECT_EQ(it->second[i].row, answers[i].row);
      EXPECT_EQ(std::memcmp(&it->second[i].score, &answers[i].score,
                            sizeof(double)),
                0);
    }
  }
}

TEST_F(SpillRoundtripTest, NewerSpillSupersedesOlder) {
  auto spill = SpillManager::Open(TempSpillDir("supersede"), 4);
  ASSERT_TRUE(spill.ok());

  JoinHashTable small(&catalog_), big(&catalog_);
  small.Insert(0, CompositeTuple::ForBase(tid_, 0, 1.0));
  for (RowId i = 0; i < 10; ++i) {
    big.Insert(0, CompositeTuple::ForBase(tid_, i, 0.5));
  }
  ASSERT_TRUE(spill.value()->SpillTable("k", small).ok());
  ASSERT_TRUE(spill.value()->SpillTable("k", big).ok());
  EXPECT_EQ(spill.value()->spilled_item_count(), 1);

  JoinHashTable restored(&catalog_);
  auto outcome = spill.value()->RestoreTable("k", &restored);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(restored.num_entries(), 10);  // the newer spill won
}

// ---- the write path ----

/// A page reaches disk only when the pool recycles its frame.
class SpillWritePathTest : public SpillRoundtripTest {};

TEST_F(SpillWritePathTest, PageRestoredWhileResidentIsNeverWritten) {
  auto spill = SpillManager::Open(TempSpillDir("resident"), 8);
  ASSERT_TRUE(spill.ok()) << spill.status().ToString();

  JoinHashTable table(&catalog_);
  for (RowId i = 0; i < 32; ++i) {
    CompositeTuple t = CompositeTuple::WithSlots(2);
    t.set_ref(0, {tid_, i, 1.0 / (i + 1)});
    t.set_ref(1, {tid_, (i * 3) % 32, 0.25});
    t.RecomputeSum();
    table.Insert(static_cast<int>(i) * 3 / 32, std::move(t));
  }
  ASSERT_TRUE(spill.value()->SpillTable("k", table).ok());

  JoinHashTable restored(&catalog_);
  auto outcome = spill.value()->RestoreTable("k", &restored);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // One page in an 8-frame pool: it never left its frame, so the
  // restore read nothing and freeing it wrote nothing.
  const SpillStats stats = spill.value()->stats();
  EXPECT_EQ(stats.pages_written, 0);
  EXPECT_EQ(stats.pages_read, 0);
  EXPECT_EQ(stats.bytes_on_disk, 0);

  ASSERT_EQ(restored.num_entries(), table.num_entries());
  for (int64_t i = 0; i < table.num_entries(); ++i) {
    EXPECT_EQ(restored.entry_epoch(i), table.entry_epoch(i));
    const CompositeTuple& a = table.entry(i);
    const CompositeTuple& b = restored.entry(i);
    ASSERT_EQ(a.num_refs(), b.num_refs());
    for (int s = 0; s < a.num_refs(); ++s) {
      EXPECT_EQ(a.ref(s).table, b.ref(s).table);
      EXPECT_EQ(a.ref(s).row, b.ref(s).row);
      EXPECT_EQ(std::memcmp(&a.ref(s).score, &b.ref(s).score,
                            sizeof(double)),
                0);
    }
  }
}

TEST_F(SpillWritePathTest, BytesOnDiskCountsOnlyWrittenPages) {
  auto spill = SpillManager::Open(TempSpillDir("on_disk"), 8);
  ASSERT_TRUE(spill.ok()) << spill.status().ToString();
  // Distinct three-slot composites over the 32-row table.
  auto make_table = [&](int entries) {
    JoinHashTable table(&catalog_);
    for (int i = 0; i < entries; ++i) {
      CompositeTuple t = CompositeTuple::WithSlots(3);
      t.set_ref(0, {tid_, static_cast<RowId>(i % 32), 1.0 / (i + 1)});
      t.set_ref(1, {tid_, static_cast<RowId>(i / 32 % 32), 0.25});
      t.set_ref(2, {tid_, static_cast<RowId>(i / 1024), 0.5});
      t.RecomputeSum();
      EXPECT_TRUE(table.Insert(0, std::move(t)));
    }
    return table;
  };
  const std::string segment = spill.value()->dir() + "/spill.seg";
  auto file_bytes = [&segment]() -> int64_t {
    struct stat st;
    return ::stat(segment.c_str(), &st) == 0 ? st.st_size : -1;
  };

  // A 32-entry table takes one page, which stays in its frame: the
  // segment file is empty and the gauge reports no bytes on disk.
  ASSERT_TRUE(spill.value()->SpillTable("small", make_table(32)).ok());
  EXPECT_EQ(file_bytes(), 0);
  EXPECT_EQ(spill.value()->stats().pages_written, 0);
  EXPECT_EQ(spill.value()->stats().bytes_on_disk, 0);

  // A table larger than the pool recycles frames, writing their pages.
  ASSERT_TRUE(spill.value()->SpillTable("big", make_table(4096)).ok());
  const SpillStats stats = spill.value()->stats();
  EXPECT_GT(stats.pages_written, 0);
  EXPECT_EQ(stats.bytes_on_disk, stats.pages_written * kPageSize);
  EXPECT_GE(file_bytes(), stats.bytes_on_disk);

  // Dropping both tables frees every page, written or not.
  spill.value()->Drop("small");
  spill.value()->Drop("big");
  EXPECT_EQ(spill.value()->stats().bytes_on_disk, 0);
}

// ---- state manager demotion ----

TEST_F(SpillRoundtripTest, EnforceBudgetDemotesInsteadOfDestroys) {
  auto spill = SpillManager::Open(TempSpillDir("demote"), 4);
  ASSERT_TRUE(spill.ok());
  DelayParams delays;
  SourceManager sources(&catalog_);
  StateManager manager(&sources, /*budget=*/1, EvictionPolicy::kLruSize);
  manager.AttachSpill(spill.value().get(), &delays);

  JoinHashTable table(&catalog_);
  for (RowId i = 0; i < 64; ++i) {
    table.Insert(static_cast<int>(i) / 16,
                 CompositeTuple::ForBase(tid_, i % 32, 0.5));
  }
  const int64_t entries = table.num_entries();
  manager.RegisterModuleTable(0, "sig", &table, /*owner=*/nullptr, 5);

  int evicted = manager.EnforceBudget(10);
  EXPECT_GE(evicted, 1);
  EXPECT_EQ(table.num_entries(), 0);  // memory freed as before
  EXPECT_EQ(manager.spills(), 1);     // ...but the state was demoted
  EXPECT_EQ(spill.value()->SpilledItems("0/sig"), entries);
  EXPECT_EQ(spill.value()->SpilledItems("1/sig"), 0);  // tag-scoped

  JoinHashTable faulted(&catalog_);
  StateManager::RestoreOutcome r =
      manager.RestoreSpilledTable(0, "sig", &faulted);
  EXPECT_EQ(r.entries, entries);
  EXPECT_GT(r.bytes, 0);
  EXPECT_EQ(faulted.num_entries(), entries);
  EXPECT_EQ(manager.spill_restores(), 1);
  EXPECT_EQ(spill.value()->SpilledItems("0/sig"), 0);

  // The restore consumed the disk copy: registering the restored table
  // leaves nothing parked to shadow it.
  manager.RegisterModuleTable(0, "sig", &faulted, nullptr, 20);
  EXPECT_FALSE(spill.value()->HasSpill("0/sig"));
}

TEST_F(SpillRoundtripTest, EvictionDemotesOnlyUncoveredCopies) {
  // One frame: a demotion writes every page but its last to disk.
  auto spill = SpillManager::Open(TempSpillDir("covered"), 1);
  ASSERT_TRUE(spill.ok()) << spill.status().ToString();
  DelayParams delays;
  SourceManager sources(&catalog_);
  StateManager manager(&sources, /*budget=*/1 << 20,
                       EvictionPolicy::kLruSize);
  manager.AttachSpill(spill.value().get(), &delays);

  // Prefixes of one arrival sequence of distinct two-slot composites
  // (~40 payload bytes each, so 1,024 entries span three pages).
  auto fill = [&](JoinHashTable* table, int n) {
    for (int i = 0; i < n; ++i) {
      const RowId a = static_cast<RowId>(i / 32);
      CompositeTuple t = CompositeTuple::WithSlots(2);
      t.set_ref(0, {tid_, a, 1.0 / (a + 1)});
      t.set_ref(1, {tid_, static_cast<RowId>(i % 32), 0.25});
      t.RecomputeSum();
      table->Insert(i / 256, std::move(t));
    }
  };
  JoinHashTable shorter(&catalog_), fullest(&catalog_);
  fill(&shorter, 512);
  fill(&fullest, 1024);
  manager.RegisterModuleTable(0, "sig", &shorter, nullptr, 5);
  manager.RegisterModuleTable(0, "sig", &fullest, nullptr, 6);
  EXPECT_EQ(manager.TotalCacheBytes(),
            shorter.SizeBytes() + fullest.SizeBytes());
  EXPECT_EQ(manager.FullestModuleTable(0, "sig"), &fullest);

  // The budget fits only the fullest copy, so LRU evicts the older,
  // shorter one. The fullest copy covers it: cleared, no I/O.
  manager.set_memory_budget_bytes(fullest.SizeBytes());
  EXPECT_EQ(manager.evictions(), 1);
  EXPECT_EQ(shorter.num_entries(), 0);
  EXPECT_EQ(fullest.num_entries(), 1024);
  EXPECT_EQ(manager.spills(), 0);
  EXPECT_EQ(spill.value()->stats().items_spilled, 0);
  EXPECT_EQ(spill.value()->stats().pages_written, 0);

  // Nothing else holds the fullest copy's entries: it is demoted.
  manager.set_memory_budget_bytes(1);
  EXPECT_EQ(manager.evictions(), 2);
  EXPECT_EQ(fullest.num_entries(), 0);
  EXPECT_EQ(manager.spills(), 1);
  EXPECT_EQ(spill.value()->SpilledItems("0/sig"), 1024);
  const SpillStats demoted = spill.value()->stats();
  EXPECT_EQ(demoted.items_spilled, 1);
  EXPECT_GT(demoted.pages_written, 0);

  // A refilled copy the disk copy covers is cleared without I/O too.
  fill(&shorter, 512);
  EXPECT_EQ(manager.EnforceBudget(7), 1);
  EXPECT_EQ(shorter.num_entries(), 0);
  EXPECT_EQ(spill.value()->stats().items_spilled, demoted.items_spilled);
  EXPECT_EQ(spill.value()->stats().pages_written, demoted.pages_written);
  EXPECT_EQ(spill.value()->SpilledItems("0/sig"), 1024);
}

TEST_F(SpillRoundtripTest, SetBudgetEnforcesImmediately) {
  SourceManager sources(&catalog_);
  StateManager manager(&sources, /*budget=*/1 << 20,
                       EvictionPolicy::kLruSize);
  JoinHashTable table(&catalog_);
  for (RowId i = 0; i < 64; ++i) {
    table.Insert(0, CompositeTuple::ForBase(tid_, i, 0.5));
  }
  ASSERT_EQ(table.num_entries(), 64);
  manager.RegisterModuleTable(0, "sig", &table, nullptr, 5);
  EXPECT_EQ(manager.evictions(), 0);

  // Lowering the budget below usage must take effect now, not at the
  // next EnforceBudget call site.
  manager.set_memory_budget_bytes(1);
  EXPECT_GE(manager.evictions(), 1);
  EXPECT_EQ(table.num_entries(), 0);
  EXPECT_LE(manager.TotalCacheBytes(), 1);

  // Raising it is a no-op.
  int64_t evictions_before = manager.evictions();
  manager.set_memory_budget_bytes(1 << 20);
  EXPECT_EQ(manager.evictions(), evictions_before);
}

// ---- end-to-end equivalence ----

/// Runs the GUS workload through a QSystem and returns, per user
/// query, the sorted (score-bits, identity) multiset of its top-k plus
/// the outcome counters.
struct E2eRun {
  std::map<int, std::vector<std::pair<uint64_t, uint64_t>>> results;
  int64_t spills = 0;
  int64_t restores = 0;
  int64_t evictions = 0;
  ExecStats stats;
};

E2eRun RunGusWorkload(QConfig config) {
  QSystem sys(config);
  GusOptions gus;
  gus.seed = 1;
  EXPECT_TRUE(BuildGusDataset(sys, gus).ok());
  WorkloadOptions wl;
  wl.num_queries = 15;
  wl.seed = 7;
  std::vector<WorkloadQuery> queries =
      GenerateBioWorkload(BioVocabulary(), wl);
  std::vector<int> uq_ids;
  for (const WorkloadQuery& q : queries) {
    auto posed = sys.Pose(q.keywords, q.user_id, q.pose_time_us,
                          &q.options);
    EXPECT_TRUE(posed.ok());
    if (posed.ok()) uq_ids.push_back(posed.value());
  }
  EXPECT_TRUE(sys.Run().ok());

  E2eRun run;
  for (int uq : uq_ids) {
    const std::vector<ResultTuple>* results = sys.ResultsFor(uq);
    if (results == nullptr) continue;
    std::vector<std::pair<uint64_t, uint64_t>>& out = run.results[uq];
    for (const ResultTuple& r : *results) {
      uint64_t score_bits;
      std::memcpy(&score_bits, &r.score, sizeof(score_bits));
      out.emplace_back(score_bits, r.tuple.IdentityHash());
    }
    std::sort(out.begin(), out.end());
  }
  run.spills = sys.state_manager().spills();
  run.restores = sys.state_manager().spill_restores();
  run.evictions = sys.state_manager().evictions();
  run.stats = sys.aggregate_stats();
  return run;
}

QConfig GusE2eConfig() {
  QConfig config;
  config.sharing = SharingConfig::kAtcFull;
  config.k = 50;
  config.batch_size = 5;
  config.max_rounds = 200'000'000;
  return config;
}

TEST(SpillEquivalenceTest, TightBudgetWithSpillMatchesUnlimitedRun) {
  E2eRun unlimited = RunGusWorkload(GusE2eConfig());
  ASSERT_FALSE(unlimited.results.empty());
  EXPECT_EQ(unlimited.evictions, 0);

  QConfig tight = GusE2eConfig();
  tight.memory_budget_bytes = 64 << 10;
  tight.spill_dir = TempSpillDir("e2e");
  tight.spill_pool_frames = 8;
  E2eRun spilled = RunGusWorkload(tight);

  // The pressure was real and the spill tier absorbed it.
  EXPECT_GT(spilled.evictions, 0);
  EXPECT_GT(spilled.spills, 0);
  EXPECT_GT(spilled.restores, 0);

  // Restored state must yield byte-equivalent top-k answers: same
  // queries, same result multisets (score double bits + base-tuple
  // identity), as if nothing had ever been evicted.
  ASSERT_EQ(spilled.results.size(), unlimited.results.size());
  for (const auto& [uq, want] : unlimited.results) {
    auto it = spilled.results.find(uq);
    ASSERT_NE(it, spilled.results.end()) << "uq " << uq;
    EXPECT_EQ(it->second, want) << "results diverged for uq " << uq;
  }
}

}  // namespace
}  // namespace qsys
