// Ordering tests for all four cache-replacement policies (§6.3),
// including their tie-breaking rules — the ablation bench sweeps these
// policies but only this suite pins down the exact victim orders.

#include <gtest/gtest.h>

#include <vector>

#include "src/qs/eviction.h"

namespace qsys {
namespace {

CacheItem Item(std::string key, int64_t size, VirtualTime last_used,
               double recompute) {
  CacheItem item;
  item.key = std::move(key);
  item.size_bytes = size;
  item.last_used_us = last_used;
  item.recompute_cost = recompute;
  return item;
}

/// Victim keys, in eviction order, with an effectively unbounded need
/// so every eligible item is ranked.
std::vector<std::string> OrderOf(const std::vector<CacheItem>& items,
                                 EvictionPolicy policy) {
  std::vector<std::string> keys;
  for (size_t idx : ChooseVictims(items, policy, int64_t{1} << 40)) {
    keys.push_back(items[idx].key);
  }
  return keys;
}

// Distinct ages, sizes and recompute costs, arranged so every policy
// produces a different order:
//   age   : a(10) < b(20) < c(30) < d(40)
//   size  : d(400) > a(300) > b(200) > c(100)
//   cost  : b(1) < d(2) < a(3) < c(4)
const std::vector<CacheItem> kDistinct = {
    Item("a", 300, 10, 3.0),
    Item("b", 200, 20, 1.0),
    Item("c", 100, 30, 4.0),
    Item("d", 400, 40, 2.0),
};

TEST(EvictionPolicyTest, LruSizeOrdersOldestFirst) {
  EXPECT_EQ(OrderOf(kDistinct, EvictionPolicy::kLruSize),
            (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(EvictionPolicyTest, LruOrdersOldestFirst) {
  EXPECT_EQ(OrderOf(kDistinct, EvictionPolicy::kLru),
            (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(EvictionPolicyTest, SizeOnlyOrdersLargestFirst) {
  EXPECT_EQ(OrderOf(kDistinct, EvictionPolicy::kSizeOnly),
            (std::vector<std::string>{"d", "a", "b", "c"}));
}

TEST(EvictionPolicyTest, RecomputeCostOrdersCheapestFirst) {
  EXPECT_EQ(OrderOf(kDistinct, EvictionPolicy::kRecomputeCost),
            (std::vector<std::string>{"b", "d", "a", "c"}));
}

// ---- tie-breaking ----

TEST(EvictionPolicyTest, LruSizeBreaksAgeTiesByLargestSize) {
  // Equal ages: the larger item goes first (frees more per eviction).
  std::vector<CacheItem> items = {
      Item("small", 100, 10, 0), Item("large", 300, 10, 0),
      Item("mid", 200, 10, 0),   Item("older", 50, 5, 0),
  };
  EXPECT_EQ(OrderOf(items, EvictionPolicy::kLruSize),
            (std::vector<std::string>{"older", "large", "mid", "small"}));
}

TEST(EvictionPolicyTest, PureLruKeepsArrivalOrderOnAgeTies) {
  // Equal ages: stable sort preserves the items' listed order,
  // regardless of size.
  std::vector<CacheItem> items = {
      Item("first", 100, 10, 0),
      Item("second", 900, 10, 0),
      Item("third", 500, 10, 0),
  };
  EXPECT_EQ(OrderOf(items, EvictionPolicy::kLru),
            (std::vector<std::string>{"first", "second", "third"}));
}

TEST(EvictionPolicyTest, SizeOnlyBreaksSizeTiesByAge) {
  std::vector<CacheItem> items = {
      Item("young", 200, 30, 0),
      Item("old", 200, 10, 0),
      Item("bigger", 300, 50, 0),
  };
  EXPECT_EQ(OrderOf(items, EvictionPolicy::kSizeOnly),
            (std::vector<std::string>{"bigger", "old", "young"}));
}

TEST(EvictionPolicyTest, RecomputeCostBreaksCostTiesByAge) {
  std::vector<CacheItem> items = {
      Item("young", 100, 30, 2.0),
      Item("old", 100, 10, 2.0),
      Item("cheaper", 100, 50, 1.0),
  };
  EXPECT_EQ(OrderOf(items, EvictionPolicy::kRecomputeCost),
            (std::vector<std::string>{"cheaper", "old", "young"}));
}

// ---- eligibility and need ----

TEST(EvictionPolicyTest, PinnedAndReferencedAreNeverChosen) {
  std::vector<CacheItem> items = kDistinct;
  items[0].referenced = true;  // a
  items[3].referenced = true;  // d
  for (EvictionPolicy policy :
       {EvictionPolicy::kLruSize, EvictionPolicy::kLru,
        EvictionPolicy::kSizeOnly, EvictionPolicy::kRecomputeCost}) {
    for (const std::string& key : OrderOf(items, policy)) {
      EXPECT_NE(key, "a");
      EXPECT_NE(key, "d");
    }
  }
}

TEST(EvictionPolicyTest, StopsOnceNeedIsCovered) {
  // LRU+size order is a(300), b(200), ...: 400 bytes of need are
  // covered after two victims.
  std::vector<size_t> victims =
      ChooseVictims(kDistinct, EvictionPolicy::kLruSize, 400);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(kDistinct[victims[0]].key, "a");
  EXPECT_EQ(kDistinct[victims[1]].key, "b");
}

}  // namespace
}  // namespace qsys
