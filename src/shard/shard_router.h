// Query routing for the sharded serving layer (see docs/ARCHITECTURE.md,
// "Sharded serving").
//
// The router decides, for each incoming keyword query, which of the N
// independent Engines behind one QueryService executes it. Routing is a
// pure function of the keyword text's canonical signature, so it is
// deterministic, lock-free, and — crucially for the sharing machinery —
// *stable*: the same logical query always lands on the same shard,
// where its retained state from earlier submissions lives. A query is
// never split: all of its conjunctive queries run in one plan graph,
// where they share subexpressions with each other and with the other
// queries on that shard.

#ifndef QSYS_SHARD_SHARD_ROUTER_H_
#define QSYS_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <string>

namespace qsys {

/// \brief Deterministic keyword-query -> shard routing.
///
/// Thread-safe after construction: Route() only reads immutable state.
class ShardRouter {
 public:
  /// A router over `num_shards` shards (clamped to >= 1).
  explicit ShardRouter(int num_shards);

  /// The shard (in [0, num_shards)) that should execute `keywords`:
  /// the mixed canonical signature modulo the shard count.
  int Route(const std::string& keywords) const;

  int num_shards() const { return num_shards_; }

  /// Canonical form of a keyword query: terms lowercased, tokenized,
  /// sorted, and deduplicated, joined with a separator. "Gene membrane"
  /// and "membrane GENE gene" share one canonical key, so repeats
  /// co-locate no matter how the user typed them.
  static std::string CanonicalKey(const std::string& keywords);

  /// 64-bit FNV-1a hash of CanonicalKey() — the canonical query
  /// signature that Route() routes on.
  static uint64_t CanonicalSignature(const std::string& keywords);

 private:
  int num_shards_;
};

}  // namespace qsys

#endif  // QSYS_SHARD_SHARD_ROUTER_H_
