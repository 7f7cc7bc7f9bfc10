// Query routing for the sharded serving layer (see docs/ARCHITECTURE.md,
// "Sharded serving").
//
// The router decides, for each incoming keyword query, which of the N
// independent Engines behind one QueryService executes it. Routing is a
// pure function of the keyword text (plus an optional table-footprint
// probe), so it is deterministic, lock-free, and — crucially for the
// sharing machinery — *stable*: the same logical query always lands on
// the same shard, where its retained state from earlier submissions
// lives. Related systems motivate the two affinity policies: Mragyati
// routes keyword queries to partitions by the relations they mention;
// EMBANKS partitions the search space and merges ranked results at a
// thin coordinator. Our ATC-CL clustering path (src/qs/cluster.h) plays
// the same role *within* an engine; the router extends it *across*
// engines.

#ifndef QSYS_SHARD_SHARD_ROUTER_H_
#define QSYS_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/storage/schema.h"

namespace qsys {

/// \brief Deterministic keyword-query -> shard routing policy.
///
/// Thread-safe after construction: Route() only reads immutable state
/// and calls the (immutable, caller-supplied) footprint probe.
class ShardRouter {
 public:
  /// Resolves the source relations a single keyword term matches —
  /// typically backed by the shared dataset's InvertedIndex, which is
  /// immutable after FinalizeCatalog() and therefore safe to probe from
  /// any thread. Empty result = term matches nothing.
  using FootprintFn =
      std::function<std::vector<TableId>(const std::string& term)>;

  /// A router over `num_shards` shards (clamped to >= 1) under the
  /// given affinity policy.
  ShardRouter(int num_shards, ShardAffinity affinity);

  /// Installs the table-footprint probe used by
  /// ShardAffinity::kTableAffinity. Without one, table affinity
  /// degrades to the signature hash. Call before serving starts.
  void set_footprint_fn(FootprintFn fn) { footprint_ = std::move(fn); }

  /// The shard (in [0, num_shards)) that should execute `keywords`.
  /// kScatterCqs queries are split by the service, not routed here;
  /// for them Route() returns the signature-hash shard (the shard the
  /// scatter is attributed to in the route counters).
  int Route(const std::string& keywords) const;

  int num_shards() const { return num_shards_; }
  ShardAffinity affinity() const { return affinity_; }

  /// Canonical form of a keyword query: terms lowercased, tokenized,
  /// sorted, and deduplicated, joined with a separator. "Gene membrane"
  /// and "membrane GENE gene" share one canonical key, so repeats
  /// co-locate no matter how the user typed them.
  static std::string CanonicalKey(const std::string& keywords);

  /// 64-bit FNV-1a hash of CanonicalKey() — the canonical query
  /// signature that kSignatureHash routes on.
  static uint64_t CanonicalSignature(const std::string& keywords);

 private:
  int SignatureShard(const std::string& keywords) const;
  int TableAffinityShard(const std::string& keywords) const;

  int num_shards_;
  ShardAffinity affinity_;
  FootprintFn footprint_;
};

}  // namespace qsys

#endif  // QSYS_SHARD_SHARD_ROUTER_H_
