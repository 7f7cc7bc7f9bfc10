// Cache-replacement policies for retained query state (§6.3).
//
// Two kinds of objects are cacheable: the hash tables in which m-join
// modules buffer the tuples of query subexpressions, and the answer
// caches of remote probe sources. (The paper also lists ranking queues;
// here a rank-merge's queue lives and dies with its query, so it is
// never offered to the policy.) Items unreferenced by running or
// pending queries may be evicted under memory pressure. The paper found
// LRU with size as a tie-breaker to work best; the alternatives are kept
// for the ablation bench.

#ifndef QSYS_QS_EVICTION_H_
#define QSYS_QS_EVICTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/virtual_clock.h"

namespace qsys {

/// Which replacement policy the state manager applies.
enum class EvictionPolicy {
  /// Least-recently-used, size as tie-breaker (the paper's choice).
  kLruSize,
  /// Pure least-recently-used.
  kLru,
  /// Largest items first.
  kSizeOnly,
  /// Cheapest-to-recompute first.
  kRecomputeCost,
};

const char* EvictionPolicyName(EvictionPolicy p);

/// \brief One evictable object, as seen by the policy.
struct CacheItem {
  enum class Kind { kHashTable, kProbeCache };
  Kind kind = Kind::kHashTable;
  /// Identity for the owner to act on (expression signature etc.).
  std::string key;
  int64_t size_bytes = 0;
  VirtualTime last_used_us = 0;
  /// Estimated cost (virtual us) to rebuild the item if needed again.
  double recompute_cost = 0.0;
  /// Items still referenced by active queries are never chosen.
  bool referenced = false;
};

/// Selects victims (indexes into `items`) until at least `need_bytes`
/// would be freed, per `policy`, skipping referenced items.
/// Returns the chosen indexes in eviction order.
std::vector<size_t> ChooseVictims(const std::vector<CacheItem>& items,
                                  EvictionPolicy policy,
                                  int64_t need_bytes);

}  // namespace qsys

#endif  // QSYS_QS_EVICTION_H_
