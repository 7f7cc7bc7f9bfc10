#include "src/qs/eviction.h"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace qsys {

const char* EvictionPolicyName(EvictionPolicy p) {
  switch (p) {
    case EvictionPolicy::kLruSize:
      return "lru+size";
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kSizeOnly:
      return "size";
    case EvictionPolicy::kRecomputeCost:
      return "recompute-cost";
  }
  return "?";
}

std::vector<size_t> ChooseVictims(const std::vector<CacheItem>& items,
                                  EvictionPolicy policy,
                                  int64_t need_bytes) {
  std::vector<size_t> order;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].referenced) continue;
    order.push_back(i);
  }
  auto by = [&](auto key_fn) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return key_fn(items[a]) < key_fn(items[b]);
    });
  };
  switch (policy) {
    case EvictionPolicy::kLruSize:
      // Oldest first; among equally old, largest first.
      by([](const CacheItem& it) {
        return std::make_tuple(it.last_used_us, -it.size_bytes);
      });
      break;
    case EvictionPolicy::kLru:
      by([](const CacheItem& it) {
        return std::make_tuple(it.last_used_us, int64_t{0});
      });
      break;
    case EvictionPolicy::kSizeOnly:
      by([](const CacheItem& it) {
        return std::make_tuple(-it.size_bytes, it.last_used_us);
      });
      break;
    case EvictionPolicy::kRecomputeCost:
      by([](const CacheItem& it) {
        return std::make_tuple(it.recompute_cost,
                               static_cast<double>(it.last_used_us));
      });
      break;
  }
  std::vector<size_t> victims;
  int64_t freed = 0;
  for (size_t idx : order) {
    if (freed >= need_bytes) break;
    victims.push_back(idx);
    freed += items[idx].size_bytes;
  }
  return victims;
}

}  // namespace qsys
