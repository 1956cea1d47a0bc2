#include "d1ht/overlay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "structure_audit.h"

namespace ert::d1ht {
namespace {

using dht::NodeIndex;

Overlay make(std::size_t n, std::uint64_t seed = 1,
             int max_indegree = 1 << 20) {
  D1htOptions opts;
  opts.bits = 16;
  Overlay o(opts);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    o.add_node_random(rng, 1.0, max_indegree, 0.8);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) o.build_table(i);
  return o;
}

NodeIndex route(const Overlay& o, NodeIndex src, std::uint64_t key,
                std::size_t max_hops, std::size_t* hops_out = nullptr) {
  dht::RouteScratch scratch;
  NodeIndex cur = src;
  std::size_t hops = 0;
  while (hops <= max_hops) {
    const dht::RouteStepInfo step = o.route_step(cur, key, scratch);
    if (step.arrived) {
      if (hops_out) *hops_out = hops;
      return cur;
    }
    EXPECT_FALSE(scratch.candidates.empty());
    cur = scratch.candidates.front();
    ++hops;
  }
  return dht::kNoNode;
}

/// Ring-successor ownership oracle: alive node with the minimal clockwise
/// distance from the key.
NodeIndex successor_ref(const Overlay& o, std::uint64_t key) {
  NodeIndex best = dht::kNoNode;
  std::uint64_t best_d = ~std::uint64_t{0};
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    if (!o.node(i).alive) continue;
    const std::uint64_t d =
        (o.node(i).id - key) & (o.ring_size() - 1);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

TEST(D1ht, BuildCreatesFullMesh) {
  Overlay o = make(120);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    const auto& n = o.node(i);
    ASSERT_EQ(n.table.entry(kFullTableEntry).size(), o.num_slots() - 1);
    for (NodeIndex j = 0; j < o.num_slots(); ++j) {
      if (j == i) continue;
      EXPECT_TRUE(
          n.table.entry(kFullTableEntry).contains(o.arena().cands, j));
    }
    EXPECT_GE(n.table.entry(kSuccessorEntry).size(), 1u);
  }
  EXPECT_TRUE(structure_ok(o));
}

TEST(D1ht, ResponsibleIsRingSuccessor) {
  Overlay o = make(150, 2);
  Rng rng(3);
  for (int t = 0; t < 500; ++t) {
    const std::uint64_t key = rng.bits() % o.ring_size();
    EXPECT_EQ(o.responsible(key), successor_ref(o, key));
  }
}

TEST(D1ht, EveryLookupResolvesInOneHop) {
  Overlay o = make(200, 4);
  Rng rng(5);
  for (int t = 0; t < 500; ++t) {
    const NodeIndex src = rng.index(o.num_slots());
    const std::uint64_t key = rng.bits() % o.ring_size();
    std::size_t hops = 0;
    ASSERT_EQ(route(o, src, key, 2, &hops), o.responsible(key));
    EXPECT_LE(hops, 1u);
  }
}

TEST(D1ht, JoinAfterBuildRestoresTheMesh) {
  Overlay o = make(80, 6);
  Rng rng(7);
  const NodeIndex j = o.add_node_random(rng, 1.0, 1 << 20, 0.8);
  o.build_table(j);
  EXPECT_TRUE(structure_ok(o));
  ASSERT_EQ(o.node(j).table.entry(kFullTableEntry).size(), o.num_slots() - 1);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    if (i == j) continue;
    EXPECT_TRUE(
        o.node(i).table.entry(kFullTableEntry).contains(o.arena().cands, j));
  }
  // The joiner serves one-hop lookups immediately.
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t key = rng.bits() % o.ring_size();
    std::size_t hops = 0;
    ASSERT_EQ(route(o, j, key, 2, &hops), o.responsible(key));
    EXPECT_LE(hops, 1u);
  }
}

TEST(D1ht, GracefulLeaveKeepsOneHopRouting) {
  Overlay o = make(120, 8);
  Rng rng(9);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      NodeIndex v = rng.index(o.num_slots());
      if (o.node(v).alive && o.alive_count() > 20) o.leave_graceful(v);
    }
    EXPECT_TRUE(structure_ok(o));
    // Nobody keeps a link to a departed node.
    for (NodeIndex i = 0; i < o.num_slots(); ++i) {
      if (!o.node(i).alive) continue;
      for (NodeIndex v = 0; v < o.num_slots(); ++v)
        if (!o.node(v).alive)
          EXPECT_FALSE(o.node(i).table.entry(kFullTableEntry)
                           .contains(o.arena().cands, v));
    }
    for (int t = 0; t < 60; ++t) {
      NodeIndex src = rng.index(o.num_slots());
      while (!o.node(src).alive) src = rng.index(o.num_slots());
      const std::uint64_t key = rng.bits() % o.ring_size();
      std::size_t hops = 0;
      ASSERT_EQ(route(o, src, key, 2, &hops), o.responsible(key));
      EXPECT_LE(hops, 1u);
    }
  }
}

TEST(D1ht, EligibilityIsTheSuccessorWindow) {
  Overlay o = make(200, 10);
  // Sort alive nodes by id to find ring positions.
  std::vector<NodeIndex> order;
  for (NodeIndex i = 0; i < o.num_slots(); ++i) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](NodeIndex a, NodeIndex b) {
    return o.node(a).id < o.node(b).id;
  });
  D1htOptions defaults;
  for (std::size_t p = 0; p < order.size(); p += 37) {
    const NodeIndex owner = order[p];
    // Immediate successor: always adoptable.
    EXPECT_TRUE(o.eligible(owner, kSuccessorEntry,
                           order[(p + 1) % order.size()]));
    // Far side of the ring: outside the spread window.
    EXPECT_FALSE(o.eligible(
        owner, kSuccessorEntry,
        order[(p + defaults.successor_spread + 50) % order.size()]));
  }
}

TEST(D1ht, ExpansionRaisesIndegree) {
  Overlay o = make(200, 11, 64);
  const NodeIndex i = 17;
  const int before = o.node(i).budget.indegree();
  const int gained = o.expand_indegree(i, 4, 256);
  EXPECT_GT(gained, 0);
  EXPECT_EQ(o.node(i).budget.indegree(), before + gained);
  EXPECT_TRUE(structure_ok(o));
}

TEST(D1ht, ShedIndegree) {
  Overlay o = make(200, 12);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    if (o.node(i).inlinks.size() >= 3) {
      const auto before = o.node(i).inlinks.size();
      const int shed = o.shed_indegree(i, 2);
      EXPECT_EQ(shed, 2);
      EXPECT_EQ(o.node(i).inlinks.size(), before - 2);
      EXPECT_TRUE(structure_ok(o));
      return;
    }
  }
  FAIL();
}

TEST(D1ht, PurgeAndRepairAfterSilentFailure) {
  Overlay o = make(150, 13);
  Rng rng(14);
  std::vector<NodeIndex> dead;
  for (int i = 0; i < 20; ++i) {
    const NodeIndex v = rng.index(o.num_slots());
    if (o.node(v).alive && o.alive_count() > 40) {
      o.fail(v);
      dead.push_back(v);
    }
  }
  ASSERT_FALSE(dead.empty());
  // Stale full-table entries remain until EDRA detection purges them.
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    if (!o.node(i).alive) continue;
    for (const NodeIndex v : dead) o.purge_dead(i, v);
    for (std::size_t slot = 0; slot < kNumEntries; ++slot)
      o.repair_entry(i, slot);
  }
  EXPECT_TRUE(structure_ok(o));
  for (int t = 0; t < 100; ++t) {
    NodeIndex src = rng.index(o.num_slots());
    while (!o.node(src).alive) src = rng.index(o.num_slots());
    const std::uint64_t key = rng.bits() % o.ring_size();
    std::size_t hops = 0;
    ASSERT_EQ(route(o, src, key, 2, &hops), o.responsible(key));
    EXPECT_LE(hops, 1u);
  }
}

TEST(D1ht, DegradedRouteFallsBackToSuccessorList) {
  Overlay o = make(100, 15);
  Rng rng(16);
  dht::RouteScratch scratch;
  for (int t = 0; t < 40; ++t) {
    const std::uint64_t key = rng.bits() % o.ring_size();
    const NodeIndex owner = o.responsible(key);
    NodeIndex src = rng.index(o.num_slots());
    while (src == owner) src = rng.index(o.num_slots());
    // Simulate an undelivered EDRA report: src never learned about owner.
    o.mutable_node(src).table.entry(kFullTableEntry)
        .remove(o.arena().cands, owner);
    const dht::RouteStepInfo step = o.route_step(src, key, scratch);
    ASSERT_FALSE(step.arrived);
    EXPECT_EQ(step.entry_index, kSuccessorEntry);
    // Successor-list hops still land on the owner, just not in one hop.
    ASSERT_EQ(route(o, src, key, o.num_slots()), owner);
    // Restore the mesh for the next iteration.
    o.mutable_node(src).table.entry(kFullTableEntry)
        .add(o.arena().cands, owner);
  }
}

}  // namespace
}  // namespace ert::d1ht
