#include "src/shard/shard_router.h"

#include <algorithm>

#include "src/storage/inverted_index.h"
#include "src/storage/partition.h"

namespace qsys {

ShardRouter::ShardRouter(int num_shards)
    : num_shards_(std::max(1, num_shards)) {}

std::string ShardRouter::CanonicalKey(const std::string& keywords) {
  std::vector<std::string> terms = TokenizeKeywords(keywords);
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::string key;
  for (const std::string& t : terms) {
    if (!key.empty()) key.push_back('\x1f');
    key += t;
  }
  return key;
}

uint64_t ShardRouter::CanonicalSignature(const std::string& keywords) {
  return Fnv1a64(CanonicalKey(keywords));
}

int ShardRouter::Route(const std::string& keywords) const {
  if (num_shards_ == 1) return 0;
  // FNV-1a's low bit is the parity of the input bytes, so a bare
  // mod-2 would route by text parity (nearly every lowercase query on
  // one shard). Finalize before reducing.
  return static_cast<int>(MixBits64(CanonicalSignature(keywords)) %
                          static_cast<uint64_t>(num_shards_));
}

}  // namespace qsys
