#include "chord/overlay.h"

#include <gtest/gtest.h>

#include "structure_audit.h"

namespace ert::chord {
namespace {

using dht::NodeIndex;

Overlay make(std::size_t n, std::uint64_t seed = 1,
             bool bounds = false, int max_indegree = 1 << 20) {
  ChordOptions opts;
  opts.bits = 16;
  opts.enforce_indegree_bounds = bounds;
  Overlay o(opts);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    o.add_node_random(rng, 1.0, max_indegree, 0.8);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) o.build_table(i);
  return o;
}

NodeIndex route(const Overlay& o, NodeIndex src, std::uint64_t key,
                std::size_t max_hops, std::size_t* hops_out = nullptr) {
  NodeIndex cur = src;
  std::size_t hops = 0;
  while (hops < max_hops) {
    const RouteStep step = o.route_step(cur, key);
    if (step.arrived) {
      if (hops_out) *hops_out = hops;
      return cur;
    }
    EXPECT_FALSE(step.candidates.empty());
    cur = step.candidates.front();
    ++hops;
  }
  return dht::kNoNode;
}

TEST(Chord, BuildPopulatesFingersAndSuccessors) {
  Overlay o = make(200);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    EXPECT_FALSE(o.node(i).table.entry(o.successor_entry()).empty());
    // At least the high fingers must exist (distinct from successors).
    std::size_t fingers = 0;
    for (int m = 0; m < o.bits(); ++m)
      fingers += o.node(i).table.entry(static_cast<std::size_t>(m)).size();
    EXPECT_GT(fingers, 4u);
  }
  EXPECT_TRUE(structure_ok(o));
}

TEST(Chord, LookupsArriveLogarithmically) {
  Overlay o = make(500);
  Rng rng(2);
  std::size_t total_hops = 0;
  const int lookups = 300;
  for (int t = 0; t < lookups; ++t) {
    const NodeIndex src = rng.index(o.num_slots());
    const std::uint64_t key = rng.bits() % o.ring_size();
    std::size_t hops = 0;
    ASSERT_EQ(route(o, src, key, 64, &hops), o.responsible(key));
    total_hops += hops;
  }
  // O(log n): ~log2(500) = 9; allow generous slack.
  EXPECT_LT(static_cast<double>(total_hops) / lookups, 14.0);
}

TEST(Chord, ResponsibleIsSuccessor) {
  Overlay o = make(100, 3);
  const auto& ids = o.directory().ids();
  // Key exactly at an occupied id maps to that node.
  for (std::uint64_t id : ids)
    EXPECT_EQ(o.node(o.responsible(id)).id, id);
  // Key one past an id maps to the next.
  EXPECT_EQ(o.node(o.responsible(ids[0] + 1)).id,
            ids.size() > 1 ? ids[1] : ids[0]);
}

TEST(Chord, LooseFingerEligibility) {
  Overlay o = make(300, 4);
  // For a random node and finger level, eligibility holds exactly for the
  // spread-window successors of id + 2^m.
  const NodeIndex i = 17;
  const int m = 10;
  const std::uint64_t start = (o.node(i).id + (1u << m)) & (o.ring_size() - 1);
  const auto window = o.directory().successors_of(
      start == 0 ? o.ring_size() - 1 : start - 1, 4);
  for (std::uint64_t id : window) {
    EXPECT_TRUE(o.eligible(i, static_cast<std::size_t>(m),
                           *o.directory().owner_of(id)));
  }
}

TEST(Chord, ExpansionRaisesIndegree) {
  Overlay o = make(300, 5, true, 64);
  const NodeIndex i = 42;
  const int before = o.node(i).budget.indegree();
  const int gained = o.expand_indegree(i, 6, 256);
  EXPECT_GT(gained, 0);
  EXPECT_EQ(o.node(i).budget.indegree(), before + gained);
  EXPECT_TRUE(structure_ok(o));
}

TEST(Chord, ExpansionStopsAtBudget) {
  Overlay o = make(300, 6, true, 1 << 20);
  const NodeIndex i = 10;
  auto& n = o.mutable_node(i);
  n.budget.lower_bound_by((1 << 20));  // clamps to 1... then raise to d+2
  n.budget.raise_bound_by(n.budget.indegree() + 2 - n.budget.max_indegree());
  const int gained = o.expand_indegree(i, 100, 1024);
  EXPECT_LE(gained, 2);
}

TEST(Chord, ShedIndegree) {
  Overlay o = make(300, 7);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    if (o.node(i).inlinks.size() >= 4) {
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

TEST(Chord, GracefulLeaveKeepsRouting) {
  Overlay o = make(200, 8);
  Rng rng(9);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      NodeIndex v = rng.index(o.num_slots());
      if (o.node(v).alive && o.alive_count() > 20) o.leave_graceful(v);
    }
    for (int t = 0; t < 50; ++t) {
      NodeIndex src = rng.index(o.num_slots());
      while (!o.node(src).alive) src = rng.index(o.num_slots());
      const std::uint64_t key = rng.bits() % o.ring_size();
      ASSERT_EQ(route(o, src, key, 300), o.responsible(key));
    }
  }
}

TEST(Chord, RouteNeverOvershoots) {
  // Every hop must land clockwise-closer to the owner: verify the invariant
  // the greedy routing relies on.
  Overlay o = make(400, 10);
  Rng rng(11);
  for (int t = 0; t < 200; ++t) {
    NodeIndex cur = rng.index(o.num_slots());
    const std::uint64_t key = rng.bits() % o.ring_size();
    const NodeIndex owner = o.responsible(key);
    const std::uint64_t target = o.node(owner).id;
    std::size_t guard = 0;
    while (cur != owner) {
      const auto step = o.route_step(cur, key);
      if (step.arrived) break;
      const std::uint64_t before =
          dht::clockwise(o.node(cur).id, target, o.ring_size());
      cur = step.candidates.front();
      const std::uint64_t after =
          dht::clockwise(o.node(cur).id, target, o.ring_size());
      ASSERT_LT(after, before);
      ASSERT_LT(++guard, 100u);
    }
  }
}

TEST(Chord, IndegreeBoundsRespectedOnErtBuild) {
  Overlay o = make(400, 12, true, 12);
  std::size_t over = 0;
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    if (o.node(i).budget.indegree() > 12 + 8) ++over;
  }
  // Forced routability links (successor lists ignore budgets, and a finger
  // whose whole loose window is at capacity takes the strict successor
  // anyway) can exceed the bound, but only for a small minority of nodes.
  EXPECT_LT(over, o.num_slots() / 10);
}

}  // namespace
}  // namespace ert::chord
