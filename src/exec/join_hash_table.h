// Epoch-partitioned join hash tables (the m-join access modules).
//
// Besides ordinary symmetric-hash-join duty, these tables implement the
// two structural tricks of §6.2 of the paper:
//   * entries are threaded in *arrival order* (which equals score order,
//     since streams deliver in nonincreasing score order) — the "linked
//     list" that lets a late-arriving query replay earlier state; and
//   * entries are tagged with the *epoch* (logical batch timestamp) at
//     which they arrived, so a recovery query CQᵉ can join exactly the
//     tuples that preceded it, duplicate-free.

#ifndef QSYS_EXEC_JOIN_HASH_TABLE_H_
#define QSYS_EXEC_JOIN_HASH_TABLE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/value.h"
#include "src/exec/composite.h"
#include "src/storage/catalog.h"

namespace qsys {

/// \brief Hash storage for one m-join access module. Stores composites in
/// the coordinate space of the module's *input* expression; key indexes
/// on any (slot, column) pair are built lazily and maintained on insert.
class JoinHashTable {
 public:
  explicit JoinHashTable(const Catalog* catalog) : catalog_(catalog) {}

  /// Appends a composite arriving at logical time `epoch`. Epochs must be
  /// nondecreasing across calls (arrival order). A composite whose base
  /// identity is already stored is dropped: a module table holds each
  /// logical tuple at most once. (Re-arrivals happen when plans change
  /// module structure across batches — an atom probed by one batch's
  /// plan may be *streamed* by the next, re-delivering rows whose join
  /// results were already derived and backfilled; without the identity
  /// guard those combos would be produced twice.) Returns whether the
  /// composite was stored (false = duplicate, dropped).
  bool Insert(int epoch, CompositeTuple tuple);

  /// Invokes `fn` for each stored composite whose (slot, col) value
  /// equals `key` and whose epoch is < `max_epoch_exclusive` (pass
  /// kAllEpochs for no filtering).
  void Probe(int slot, int col, const Value& key, int max_epoch_exclusive,
             const std::function<void(const CompositeTuple&)>& fn) const;

  static constexpr int kAllEpochs = std::numeric_limits<int>::max();

  /// All entries in arrival order (== nonincreasing score order for
  /// stream-fed modules).
  int64_t num_entries() const {
    return static_cast<int64_t>(entries_.size());
  }
  const CompositeTuple& entry(int64_t i) const { return entries_[i].tuple; }
  int entry_epoch(int64_t i) const { return entries_[i].epoch; }

  /// Number of leading entries with epoch < e (the replayable prefix for
  /// a recovery query registered at epoch e).
  int64_t CountBefore(int epoch) const;

  /// Approximate footprint for cache accounting: a running count kept
  /// by Insert, index builds and Clear, so reading it is O(1) however
  /// many tables the state manager sums.
  int64_t SizeBytes() const { return size_bytes_; }

  /// Drops all state (eviction). Indexes are rebuilt on demand.
  void Clear();

  // ---- borrow pinning ----
  //
  // Recovery queries (§6.2, Algorithm 2) mount this table as a frozen
  // module and replay its prefix, even when its owning operator is
  // already inactive. While borrowed, the table must not be evicted:
  // the state manager treats borrowers as references.

  void AddBorrower() { ++borrowers_; }
  void ReleaseBorrower() {
    if (borrowers_ > 0) --borrowers_;
  }
  int borrowers() const { return borrowers_; }

 private:
  struct Entry {
    CompositeTuple tuple;
    int epoch;
  };
  using KeyIndex = std::unordered_map<Value, std::vector<int64_t>, ValueHash>;

  const KeyIndex& GetOrBuildIndex(int slot, int col) const;

  const Catalog* catalog_;
  std::vector<Entry> entries_;
  /// IdentityHash of every stored entry (insert dedup).
  std::unordered_set<uint64_t> identities_;
  mutable std::map<std::pair<int, int>, KeyIndex> indexes_;
  /// SizeBytes(): per entry its tuple's footprint + 16 (epoch/overhead
  /// and its identity-set slot); per built index 64, plus 56 per
  /// distinct key. Mutable because indexes are built lazily on probe.
  mutable int64_t size_bytes_ = 0;
  int borrowers_ = 0;
};

}  // namespace qsys

#endif  // QSYS_EXEC_JOIN_HASH_TABLE_H_
