#include "ert/indegree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace ert::core {
namespace {

TEST(IndegreeBudget, InitialTarget) {
  IndegreeBudget b(10, 0.8);
  EXPECT_EQ(b.initial_target(), 8);
  IndegreeBudget small(1, 0.5);
  EXPECT_EQ(small.initial_target(), 1);  // at least 1
}

TEST(IndegreeBudget, AcceptanceRule) {
  IndegreeBudget b(2, 1.0);
  EXPECT_TRUE(b.can_accept());
  b.on_inlink_added();
  EXPECT_TRUE(b.can_accept());
  b.on_inlink_added();
  EXPECT_FALSE(b.can_accept());  // d_inf - d == 0
  b.on_inlink_removed();
  EXPECT_TRUE(b.can_accept());
}

TEST(IndegreeBudget, WantsMoreUntilWatermark) {
  IndegreeBudget b(10, 0.8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(b.wants_more());
    b.on_inlink_added();
  }
  EXPECT_FALSE(b.wants_more());
}

TEST(IndegreeBudget, BoundAdjustment) {
  IndegreeBudget b(5, 0.8);
  b.raise_bound_by(3);
  EXPECT_EQ(b.max_indegree(), 8);
  b.lower_bound_by(10);
  EXPECT_EQ(b.max_indegree(), 1);  // never below 1
}

TEST(IndegreeBudget, RemoveBelowZeroClamped) {
  IndegreeBudget b(5, 0.8);
  b.on_inlink_removed();
  EXPECT_EQ(b.indegree(), 0);
}

TEST(IndegreeBudget, LostInlinksAreCountedOnlyWhenRemoved) {
  IndegreeBudget b(5, 0.8);
  b.on_inlink_added();
  b.on_inlink_lost();
  b.on_inlink_lost();  // nothing left to lose: neither moves
  EXPECT_EQ(b.indegree(), 0);
  EXPECT_EQ(b.lost_inlinks(), 1);
  EXPECT_EQ(b.max_indegree(), 5);
}

TEST(BackwardFingerList, AddRemoveContains) {
  FingerPool pool;
  BackwardFingerList l;
  EXPECT_FALSE(l.contains(pool, 1));
  l.add(pool, {1, 100, 0.5});
  EXPECT_TRUE(l.contains(pool, 1));
  l.add(pool, {2, 50, 0.1});
  EXPECT_EQ(l.size(), 2u);
  EXPECT_TRUE(l.contains(pool, 1));
  EXPECT_TRUE(l.remove(pool, 1));
  EXPECT_FALSE(l.remove(pool, 1));
  EXPECT_FALSE(l.contains(pool, 1));
}

TEST(BackwardFingerList, EvictionOrderLogicalThenPhysical) {
  FingerPool pool;
  BackwardFingerList l;
  l.add(pool, {1, 100, 0.1});
  l.add(pool, {2, 300, 0.2});
  l.add(pool, {3, 300, 0.9});  // same logical as 2, farther physically
  l.add(pool, {4, 50, 0.5});
  std::vector<std::uint32_t> scratch;
  std::vector<dht::NodeIndex> ev;
  l.pick_evictions(pool, 3, scratch, ev);
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0], 3u);  // longest logical, longest physical
  EXPECT_EQ(ev[1], 2u);
  EXPECT_EQ(ev[2], 1u);
}

TEST(BackwardFingerList, EvictionsClampToSize) {
  FingerPool pool;
  BackwardFingerList l;
  l.add(pool, {1, 10, 0.0});
  std::vector<std::uint32_t> scratch;
  std::vector<dht::NodeIndex> ev;
  l.pick_evictions(pool, 5, scratch, ev);
  EXPECT_EQ(ev.size(), 1u);
  l.pick_evictions(pool, 0, scratch, ev);
  EXPECT_EQ(ev.size(), 0u);
}

/// The shed order of Sec. 3.3 made total: longest logical distance, then
/// longest physical distance, then earliest position in the list. A stable
/// sort by the two distances states it directly.
std::vector<dht::NodeIndex> reference_evictions(
    std::span<const BackwardFinger> fingers, std::size_t k) {
  std::vector<BackwardFinger> v(fingers.begin(), fingers.end());
  std::stable_sort(v.begin(), v.end(),
                   [](const BackwardFinger& a, const BackwardFinger& b) {
                     if (a.logical_distance != b.logical_distance)
                       return a.logical_distance > b.logical_distance;
                     return a.physical_distance > b.physical_distance;
                   });
  std::vector<dht::NodeIndex> out;
  for (std::size_t p = 0; p < std::min(k, v.size()); ++p)
    out.push_back(v[p].node);
  return out;
}

TEST(BackwardFingerList, EvictionsMatchAStableSortReference) {
  Rng rng(29);
  FingerPool pool;
  std::vector<std::uint32_t> scratch;
  std::vector<dht::NodeIndex> ev;
  std::vector<dht::NodeIndex> ids(64);
  for (dht::NodeIndex n = 0; n < ids.size(); ++n) ids[n] = n;
  for (int trial = 0; trial < 300; ++trial) {
    // Shuffled node ids, so a tie broken by node index instead of list
    // position would show; three logical and two physical values force
    // ties in both keys.
    rng.shuffle(ids);
    const std::size_t size = 1 + rng.index(ids.size());
    BackwardFingerList l;
    for (std::size_t p = 0; p < size; ++p)
      l.add(pool, {ids[p], static_cast<std::uint64_t>(rng.index(3)),
                   0.25 * static_cast<double>(rng.index(2))});
    // Erasing shifts later fingers down a position.
    if (size > 2 && rng.index(2) == 0) l.remove(pool, ids[rng.index(size)]);
    const std::size_t n = l.size();
    for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}, n, n + 1}) {
      l.pick_evictions(pool, k, scratch, ev);
      EXPECT_EQ(ev, reference_evictions(l.fingers(pool), k))
          << "trial " << trial << " size " << n << " k " << k;
    }
    l.clear(pool);
  }
}

TEST(BackwardFingerList, Clear) {
  FingerPool pool;
  BackwardFingerList l;
  l.add(pool, {1, 1, 1});
  l.clear(pool);
  EXPECT_TRUE(l.empty());
}

}  // namespace
}  // namespace ert::core
