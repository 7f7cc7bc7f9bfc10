// Random access sources: remote relations probed by join key (§3).
//
// Some Web sources cannot be streamed (no scoring attribute, or form-
// based access); the middleware instead probes them with specific join
// key values (a two-way semijoin). Probes cost a network round trip;
// answers are cached middleware-side so repeated probes — common once
// subexpressions are shared across queries — are free (§7.1).

#ifndef QSYS_SOURCE_PROBE_SOURCE_H_
#define QSYS_SOURCE_PROBE_SOURCE_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "src/exec/composite.h"
#include "src/exec/exec_context.h"
#include "src/query/expr.h"

namespace qsys {

/// \brief Probe access to one relation through one key column, with the
/// atom's selections applied source-side and a middleware answer cache.
class ProbeSource {
 public:
  /// `atom` fixes the relation + selections; `key_column` the probed
  /// column.
  ProbeSource(Atom atom, int key_column, const Catalog& catalog);

  const Atom& atom() const { return atom_; }
  int key_column() const { return key_column_; }

  /// Matching base tuples for `key`. Charges one probe delay on cache
  /// miss, nothing on hit.
  const std::vector<BaseRef>& Probe(const Value& key, ExecContext& ctx);

  /// Maximum base score any answer can carry.
  double max_score() const { return max_score_; }

  int64_t probes_issued() const { return probes_issued_; }
  int64_t cache_hits() const { return cache_hits_; }

  /// Cache footprint for the state manager's memory accounting.
  int64_t CacheSizeBytes() const;

  /// Drops the cache (eviction under memory pressure).
  void EvictCache();

  // ---- disk-spill tier hooks (src/buffer/) ----

  using CacheMap = std::unordered_map<Value, std::vector<BaseRef>, ValueHash>;

  /// The answer cache, exposed for spill serialization.
  const CacheMap& cache() const { return cache_; }

  /// Replaces the cache wholesale (spill restore). Does not charge
  /// anything: the caller accounts for the disk read.
  void ImportCache(CacheMap cache) { cache_ = std::move(cache); }

  /// One-shot fault handler consulted on the first cache miss after the
  /// cache was spilled to disk: it restores the cache (charging spill
  /// read time to `ctx`) and returns true if anything came back. The
  /// state manager installs it when demoting this cache; it is
  /// consumed on first use so steady-state probing stays hook-free.
  using SpillFaultFn = std::function<bool(ProbeSource*, ExecContext&)>;
  void set_spill_fault(SpillFaultFn fn) { spill_fault_ = std::move(fn); }

  int id() const { return id_; }
  void set_id(int id) { id_ = id; }

 private:
  Atom atom_;
  int key_column_;
  double max_score_;
  CacheMap cache_;
  SpillFaultFn spill_fault_;
  int64_t probes_issued_ = 0;
  int64_t cache_hits_ = 0;
  int id_ = -1;
};

}  // namespace qsys

#endif  // QSYS_SOURCE_PROBE_SOURCE_H_
