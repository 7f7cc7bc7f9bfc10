// Spill-tier fault injection: every injected I/O fault class must
// degrade — never abort, never lose an answer, never silently truncate
// a restored table. The seam is SegmentFile's SegmentFaultInjector
// (src/buffer/fault_injection.h); the contracts under test are the
// spill tier's wrappers (bounded read retries, staged restore decode,
// fault counting) and StateManager's eviction fallback (a victim whose
// demotion fails stays in memory).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/buffer/fault_injection.h"
#include "src/buffer/spill_manager.h"
#include "src/qs/state_manager.h"

namespace qsys {
namespace {

using Op = SegmentFaultInjector::Op;

// ---- the injector itself ----

TEST(SpillFaultTest, InjectorDeterministicAndBounded) {
  FaultPlan plan;
  plan.seed = 42;
  plan.write_error_p = 0.5;
  plan.write_short_p = 0.2;
  plan.read_error_p = 0.3;
  plan.max_consecutive_errors = 2;
  SeededFaultInjector a(plan);
  SeededFaultInjector b(plan);
  int consecutive_write_errors = 0;
  for (int i = 0; i < 500; ++i) {
    const Op op = static_cast<Op>(i % 3);
    SegmentFaultInjector::Fault fa = a.Next(op);
    SegmentFaultInjector::Fault fb = b.Next(op);
    // Same plan, same call sequence: the same fault schedule.
    EXPECT_EQ(fa.err, fb.err) << "call " << i;
    EXPECT_EQ(fa.short_io, fb.short_io) << "call " << i;
    if (op == Op::kWrite) {
      consecutive_write_errors = fa.err != 0
                                     ? consecutive_write_errors + 1
                                     : 0;
      // The transiency bound the spill tier's retry budget relies on.
      EXPECT_LE(consecutive_write_errors, plan.max_consecutive_errors);
    }
  }
  EXPECT_EQ(a.injected_total(), b.injected_total());
  EXPECT_GT(a.injected(Op::kWrite), 0);
  EXPECT_GT(a.short_ios(), 0);
}

// ---- spill-tier degradation per fault class ----

/// Shared scaffolding: a finalized catalog, a populated hash table,
/// and a SpillManager over a scratch dir with a configurable injector.
class SpillFaultFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/qsys_fault_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    TableSchema schema("t", {{"id", FieldType::kInt},
                             {"score", FieldType::kDouble}});
    schema.set_score_field(1);
    tid_ = catalog_.AddTable(std::move(schema)).value();
    for (int i = 0; i < 4096; ++i) {
      ASSERT_TRUE(catalog_.table(tid_)
                      .AddRow({Value(int64_t{i}), Value(1.0 / (i + 1))})
                      .ok());
    }
    catalog_.FinalizeAll();
  }

  void TearDown() override {
    spill_.reset();
    ::rmdir(dir_.c_str());
  }

  /// Opens the spill manager with `frames` pool frames and installs an
  /// injector built from `plan`.
  void OpenSpill(const FaultPlan& plan, int frames = 8) {
    auto opened = SpillManager::Open(dir_, frames);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    spill_ = std::move(opened).value();
    injector_ = std::make_unique<SeededFaultInjector>(plan);
    spill_->set_fault_injector(injector_.get());
  }

  /// A hash table with `n` composite entries, each with a distinct base
  /// identity (Insert dedups identities, and a deduped table could fit
  /// the whole payload in pool frames and never touch disk). Two refs
  /// per entry: ~40 payload bytes, so 2048 entries span ~6 pages — well
  /// past a 4-frame pool, forcing real evictions and disk reads. A page
  /// is written only when its frame is recycled, so a table that fits
  /// the pool does no I/O at all. Epochs rise 0, 1, 2 over the arrival
  /// order (Insert requires them nondecreasing).
  JoinHashTable MakeTable(int n) {
    JoinHashTable table(&catalog_);
    for (RowId i = 0; i < static_cast<RowId>(n); ++i) {
      CompositeTuple t = CompositeTuple::WithSlots(2);
      t.set_ref(0, {tid_, i, 1.0 / (i + 1)});
      t.set_ref(1, {tid_, (i * 3 + 1) % 4096, 0.25});
      t.RecomputeSum();
      table.Insert(/*epoch=*/3 * static_cast<int>(i) / n, std::move(t));
    }
    return table;
  }

  static void ExpectSameEntries(const JoinHashTable& got,
                                const JoinHashTable& want) {
    ASSERT_EQ(got.num_entries(), want.num_entries());
    for (int64_t i = 0; i < want.num_entries(); ++i) {
      EXPECT_EQ(got.entry_epoch(i), want.entry_epoch(i));
      ASSERT_EQ(got.entry(i).num_refs(), want.entry(i).num_refs());
      for (int s = 0; s < want.entry(i).num_refs(); ++s) {
        EXPECT_EQ(got.entry(i).ref(s).table, want.entry(i).ref(s).table);
        EXPECT_EQ(got.entry(i).ref(s).row, want.entry(i).ref(s).row);
        EXPECT_EQ(got.entry(i).ref(s).score, want.entry(i).ref(s).score);
      }
    }
  }

  Catalog catalog_;
  TableId tid_ = 0;
  std::string dir_;
  std::unique_ptr<SpillManager> spill_;
  std::unique_ptr<SeededFaultInjector> injector_;
};

TEST_F(SpillFaultFixture, OpenFailureSurfacesAsStatus) {
  FaultPlan plan;
  plan.open_fail_p = 1.0;
  plan.max_consecutive_errors = 1 << 30;  // permanent
  OpenSpill(plan);
  JoinHashTable table = MakeTable(64);
  Status s = spill_->SpillTable("victim", table);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("injected"), std::string::npos)
      << s.ToString();
  // Degradation accounting, and nothing half-written to restore from.
  EXPECT_GE(spill_->faults(), 1);
  EXPECT_FALSE(spill_->HasSpill("victim"));
  // The in-memory table is untouched — the caller keeps serving it.
  EXPECT_EQ(table.num_entries(), 64);
}

TEST_F(SpillFaultFixture, ShortTransfersAbsorbedByIoLoops) {
  FaultPlan plan;
  plan.seed = 7;
  plan.write_short_p = 1.0;
  plan.read_short_p = 1.0;
  OpenSpill(plan, /*frames=*/4);
  // ~10 pages through 4 frames: the demotion writes and the restore
  // reads, so both I/O loops see short transfers.
  JoinHashTable table = MakeTable(4096);
  ASSERT_TRUE(spill_->SpillTable("shorty", table).ok());
  JoinHashTable restored(&catalog_);
  auto outcome = spill_->RestoreTable("shorty", &restored);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ExpectSameEntries(restored, table);
  // Shorts happened (every transfer halved at least once) but none of
  // them is a fault: the pread/pwrite loops absorb partial transfers.
  EXPECT_GT(injector_->short_ios(), 0);
  EXPECT_EQ(spill_->faults(), 0);
}

TEST_F(SpillFaultFixture, TransientWriteErrorsNeverLoseData) {
  OpenSpill(FaultPlan{}, /*frames=*/4);
  // Two pages that fit the pool: their frames stay resident and dirty.
  JoinHashTable table = MakeTable(512);
  ASSERT_TRUE(spill_->SpillTable("stormy", table).ok());

  FaultPlan plan;
  plan.seed = 11;
  plan.write_error_p = 0.9;  // ENOSPC storms, bounded at 2 consecutive
  auto storm = std::make_unique<SeededFaultInjector>(plan);
  spill_->set_fault_injector(storm.get());
  injector_ = std::move(storm);

  // ~10 pages must recycle the first table's dirty frames, and the
  // storm fails the write-back that would free one on every retry.
  // That fails only this demotion: the victim stays whole, with no
  // handle.
  JoinHashTable big = MakeTable(4096);
  EXPECT_FALSE(spill_->SpillTable("big", big).ok());
  EXPECT_FALSE(spill_->HasSpill("big"));
  EXPECT_EQ(big.num_entries(), 4096);
  EXPECT_GT(injector_->injected(Op::kWrite), 0);
  EXPECT_GT(spill_->faults(), 0);  // the survived ENOSPC hit

  // The page whose write failed stayed dirty in its frame.
  JoinHashTable restored(&catalog_);
  auto outcome = spill_->RestoreTable("stormy", &restored);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ExpectSameEntries(restored, table);
}

TEST_F(SpillFaultFixture, TransientWriteFaultsRetriedDuringDemotion) {
  FaultPlan plan;
  plan.seed = 5;
  plan.write_error_p = 0.3;
  plan.max_consecutive_errors = 2;  // below the retry budget of 4
  OpenSpill(plan, /*frames=*/4);
  // ~6- and ~10-page victims through 4 frames: every demotion recycles
  // dirty frames, and a failed write-back is retried, not fatal.
  const JoinHashTable six_pages = MakeTable(2048);
  const JoinHashTable ten_pages = MakeTable(4096);
  for (int i = 0; i < 40; ++i) {
    const Status s = spill_->SpillTable("victim" + std::to_string(i % 4),
                                        i % 2 == 0 ? six_pages : ten_pages);
    ASSERT_TRUE(s.ok()) << "demotion " << i << ": " << s.ToString();
  }
  EXPECT_GT(injector_->injected(Op::kWrite), 0);
  EXPECT_GT(spill_->stats().read_retry_waits, 0);
  // The retried pages hold what was written: the last copies restore.
  for (int k = 0; k < 4; ++k) {
    JoinHashTable restored(&catalog_);
    auto outcome =
        spill_->RestoreTable("victim" + std::to_string(k), &restored);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ExpectSameEntries(restored, k % 2 == 0 ? six_pages : ten_pages);
  }
}

TEST_F(SpillFaultFixture, TransientReadFaultsRetriedDuringRestore) {
  FaultPlan plan;
  plan.seed = 13;
  plan.read_error_p = 0.6;  // bounded at 2 consecutive, retry budget 4
  OpenSpill(plan, /*frames=*/4);
  // ~10 pages against a 4-frame pool: most pages fall out during the
  // demotion itself, so the restore pulls them back through the faulty
  // pread path.
  JoinHashTable table = MakeTable(4096);
  ASSERT_TRUE(spill_->SpillTable("flaky-disk", table).ok());
  JoinHashTable restored(&catalog_);
  auto outcome = spill_->RestoreTable("flaky-disk", &restored);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ExpectSameEntries(restored, table);
  EXPECT_EQ(outcome.value().items, table.num_entries());
  EXPECT_GT(spill_->faults(), 0);  // each retried pread counted
}

TEST_F(SpillFaultFixture, PersistentReadFailureLeavesDestUntouched) {
  FaultPlan plan;
  plan.seed = 17;
  plan.read_error_p = 1.0;
  plan.max_consecutive_errors = 1 << 30;  // permanent, beats any retry
  OpenSpill(plan, /*frames=*/4);
  JoinHashTable table = MakeTable(2048);
  ASSERT_TRUE(spill_->SpillTable("dead-disk", table).ok());
  JoinHashTable restored(&catalog_);
  auto outcome = spill_->RestoreTable("dead-disk", &restored);
  ASSERT_FALSE(outcome.ok());
  // Never a silent truncation: the staged decode inserted nothing.
  EXPECT_EQ(restored.num_entries(), 0);
  // The handle survives the failed restore — whether to discard the
  // copy is the caller's policy decision, not the I/O layer's.
  EXPECT_TRUE(spill_->HasSpill("dead-disk"));
  EXPECT_GT(spill_->faults(), 0);
}

TEST_F(SpillFaultFixture, SameCallsSameFaults) {
  // Spill I/O runs on the calling thread, so one call sequence makes
  // one sequence of segment calls, and a seeded injector fires the same
  // faults at the same calls every time.
  FaultPlan plan;
  plan.seed = 23;
  plan.write_error_p = 0.1;
  plan.write_short_p = 0.2;
  plan.read_error_p = 0.3;
  plan.read_short_p = 0.2;
  const JoinHashTable large = MakeTable(4096);
  const JoinHashTable medium = MakeTable(2048);

  struct Run {
    std::vector<StatusCode> codes;
    std::vector<int64_t> entries;
  };
  auto drive = [&](SpillManager& spill) {
    Run run;
    auto restore = [&](const std::string& key) {
      JoinHashTable dest(&catalog_);
      run.codes.push_back(spill.RestoreTable(key, &dest).status().code());
      run.entries.push_back(dest.num_entries());
    };
    run.codes.push_back(spill.SpillTable("a", large).code());
    run.codes.push_back(spill.SpillTable("b", medium).code());
    restore("a");
    run.codes.push_back(spill.SpillTable("c", large).code());
    restore("b");
    restore("c");
    return run;
  };

  OpenSpill(plan, /*frames=*/4);
  const Run first = drive(*spill_);

  auto opened = SpillManager::Open(dir_, /*frame_count=*/4);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  SeededFaultInjector twin_injector(plan);
  std::unique_ptr<SpillManager> twin = std::move(opened).value();
  twin->set_fault_injector(&twin_injector);
  const Run second = drive(*twin);

  EXPECT_EQ(first.codes, second.codes);
  EXPECT_EQ(first.entries, second.entries);
  const SpillStats a = spill_->stats();
  const SpillStats b = twin->stats();
  EXPECT_EQ(a.pages_written, b.pages_written);
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.items_spilled, b.items_spilled);
  EXPECT_EQ(a.items_restored, b.items_restored);
  EXPECT_EQ(a.bytes_on_disk, b.bytes_on_disk);
  EXPECT_EQ(a.spill_faults, b.spill_faults);
  EXPECT_EQ(a.read_retry_waits, b.read_retry_waits);
  for (Op op : {Op::kOpen, Op::kWrite, Op::kRead}) {
    EXPECT_EQ(injector_->injected(op), twin_injector.injected(op));
  }
  EXPECT_EQ(injector_->short_ios(), twin_injector.short_ios());
  // Faults fired on writes and reads, and a restore came back, so the
  // comparison covered failed and successful I/O alike.
  EXPECT_GT(injector_->injected(Op::kWrite), 0);
  EXPECT_GT(injector_->injected(Op::kRead), 0);
  EXPECT_GT(a.items_restored, 0);
}

// ---- the eviction fallback ----

TEST_F(SpillFaultFixture, EnforceBudgetKeepsVictimWhenSpillFails) {
  FaultPlan plan;
  plan.open_fail_p = 1.0;  // every demotion attempt fails outright
  plan.max_consecutive_errors = 1 << 30;
  OpenSpill(plan);
  SourceManager sources(&catalog_);
  StateManager manager(&sources, /*budget=*/1, EvictionPolicy::kLruSize);
  manager.AttachSpill(spill_.get(), /*delays=*/nullptr);
  JoinHashTable table = MakeTable(64);
  manager.RegisterModuleTable(0, "sig", &table, /*owner=*/nullptr, 5);
  ASSERT_GT(manager.TotalCacheBytes(), 1);
  int evicted = manager.EnforceBudget(10);
  // Demotion was the plan (the table is the only victim and spilling it
  // beats recomputing), the spill I/O failed, and a destroyed table
  // would lose stream arrivals forever — so the victim stays, whole.
  EXPECT_EQ(evicted, 0);
  EXPECT_EQ(table.num_entries(), 64);
  EXPECT_EQ(manager.FullestModuleTable(0, "sig"), &table);
  EXPECT_GE(spill_->faults(), 1);
  // The next pass retries (and keeps the table again): a soft overrun,
  // never an answer change.
  EXPECT_EQ(manager.EnforceBudget(20), 0);
  EXPECT_EQ(table.num_entries(), 64);
}

}  // namespace
}  // namespace qsys
