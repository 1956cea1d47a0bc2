#include "can/overlay.h"

#include <gtest/gtest.h>

#include "structure_audit.h"

namespace ert::can {
namespace {

using dht::NodeIndex;

Overlay make(std::size_t n, std::uint64_t seed = 1,
             CanOptions opts = CanOptions{}) {
  Overlay o(opts);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    o.add_node(rng, rng.uniform(0.3, 4.0), 16, 0.8);
  return o;
}

NodeIndex route(const Overlay& o, NodeIndex src, Point target,
                std::size_t max_hops, std::size_t* hops_out = nullptr) {
  NodeIndex cur = src;
  std::size_t hops = 0;
  while (hops < max_hops) {
    const RouteStep step = o.route_step(cur, target);
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

TEST(ZoneMath, Distance) {
  const Zone z{0.25, 0.5, 0.25, 0.5};
  EXPECT_DOUBLE_EQ(zone_distance(z, {0.3, 0.3}), 0.0);  // inside
  EXPECT_DOUBLE_EQ(zone_distance(z, {0.6, 0.3}), 0.1);  // right of
  EXPECT_NEAR(zone_distance(z, {0.6, 0.6}), std::sqrt(0.02), 1e-12);
  // Wraps: x = 0.9 is 0.15 from lo_x = 0.25? no: torus dist to [0.25,0.5):
  // to 0.25 -> 0.35; to 0.5 -> 0.4; min 0.35.
  EXPECT_NEAR(zone_distance(z, {0.9, 0.3}), 0.35, 1e-12);
}

TEST(ZoneMath, Abutment) {
  const Zone a{0.0, 0.5, 0.0, 0.5};
  const Zone b{0.5, 1.0, 0.0, 0.5};  // shares the x = 0.5 face
  const Zone c{0.5, 1.0, 0.5, 1.0};  // corner only
  EXPECT_TRUE(zones_abut(a, b));
  EXPECT_FALSE(zones_abut(a, c));
  // Torus wrap: x = 0 and x = 1 touch.
  const Zone d{0.5, 1.0, 0.0, 0.5};
  const Zone e{0.0, 0.5, 0.0, 0.5};
  EXPECT_TRUE(zones_abut(d, e));  // both the inner and wrap faces
}

TEST(Can, FirstNodeOwnsEverything) {
  Overlay o = make(1);
  EXPECT_EQ(o.alive_count(), 1u);
  EXPECT_DOUBLE_EQ(o.node(0).zone.volume(), 1.0);
  EXPECT_EQ(o.responsible({0.42, 0.87}), 0u);
}

TEST(Can, JoinsPartitionTheSpace) {
  Overlay o = make(64);
  EXPECT_TRUE(structure_ok(o));
  // Every point maps to exactly one alive node whose zone contains it.
  Rng rng(9);
  for (int t = 0; t < 500; ++t) {
    const Point p{rng.uniform(), rng.uniform()};
    const NodeIndex r = o.responsible(p);
    ASSERT_NE(r, dht::kNoNode);
    EXPECT_TRUE(o.node(r).zone.contains(p));
  }
}

TEST(Can, GreedyRoutingArrives) {
  Overlay o = make(200, 3);
  Rng rng(4);
  std::size_t total = 0;
  for (int t = 0; t < 300; ++t) {
    const NodeIndex src = rng.index(o.num_slots());
    const Point target{rng.uniform(), rng.uniform()};
    std::size_t hops = 0;
    ASSERT_EQ(route(o, src, target, 200, &hops), o.responsible(target));
    total += hops;
  }
  // CAN diameter is O(sqrt(n)) in 2-d: ~14 for n = 200; allow slack.
  EXPECT_LT(static_cast<double>(total) / 300.0, 18.0);
}

TEST(Can, ShortcutsReducePathLength) {
  Rng rng(5);
  CanOptions opts;
  Overlay plain(opts), elastic(opts);
  for (int i = 0; i < 200; ++i) {
    plain.add_node(rng, 1.0, 16, 0.8);
  }
  Rng rng2(5);
  for (int i = 0; i < 200; ++i) {
    elastic.add_node(rng2, 1.0, 16, 0.8);
  }
  for (NodeIndex i = 0; i < elastic.num_slots(); ++i)
    elastic.expand_indegree(i, 4, 64);
  EXPECT_TRUE(structure_ok(elastic));
  auto avg_hops = [&](const Overlay& o) {
    Rng r(6);
    std::size_t total = 0;
    for (int t = 0; t < 300; ++t) {
      const NodeIndex src = r.index(o.num_slots());
      const Point target{r.uniform(), r.uniform()};
      std::size_t hops = 0;
      route(o, src, target, 300, &hops);
      total += hops;
    }
    return static_cast<double>(total) / 300.0;
  };
  EXPECT_LT(avg_hops(elastic), avg_hops(plain));
}

TEST(Can, ShortcutBudgetRespected) {
  Overlay o = make(100, 7);
  // Pin one node's budget and try to overfill it.
  const NodeIndex i = 10;
  const int room =
      o.node(i).budget.max_indegree() - o.node(i).budget.indegree();
  ASSERT_GT(room, 0);
  const int gained = o.expand_indegree(i, room + 50, 1000);
  EXPECT_LE(gained, room);
  EXPECT_LE(o.node(i).budget.indegree(), o.node(i).budget.max_indegree());
}

TEST(Can, ShedRemovesShortcuts) {
  Overlay o = make(100, 8);
  const NodeIndex i = 5;
  o.expand_indegree(i, 6, 200);
  const auto before = o.node(i).inlinks.size();
  if (before < 2) GTEST_SKIP() << "not enough shortcut inlinks to shed";
  const int shed = o.shed_indegree(i, 2);
  EXPECT_EQ(shed, 2);
  EXPECT_EQ(o.node(i).inlinks.size(), before - 2);
  EXPECT_TRUE(structure_ok(o));
}

TEST(Can, SiblingMergeOnLeave) {
  // Two nodes: the second leaves; the first gets the whole space back.
  Overlay o = make(2, 11);
  o.leave_graceful(1);
  EXPECT_EQ(o.alive_count(), 1u);
  EXPECT_DOUBLE_EQ(o.node(0).zone.volume(), 1.0);
  EXPECT_TRUE(structure_ok(o));
}

TEST(Can, TakeoverOnLeave) {
  Overlay o = make(50, 13);
  Rng rng(14);
  for (int round = 0; round < 30; ++round) {
    // Leave someone random (keep a few).
    for (int k = 0; k < 64; ++k) {
      const NodeIndex v = rng.index(o.num_slots());
      if (o.node(v).alive && o.alive_count() > 4) {
        o.leave_graceful(v);
        break;
      }
    }
    EXPECT_TRUE(structure_ok(o));
  }
  // Space still fully owned and routable.
  for (int t = 0; t < 100; ++t) {
    const Point p{rng.uniform(), rng.uniform()};
    NodeIndex src = rng.index(o.num_slots());
    while (!o.node(src).alive) src = rng.index(o.num_slots());
    ASSERT_EQ(route(o, src, p, 300), o.responsible(p));
  }
}

TEST(Can, ChurnFuzzKeepsInvariants) {
  CanOptions opts;
  Overlay o(opts);
  Rng rng(17);
  for (int i = 0; i < 30; ++i) o.add_node(rng, rng.uniform(0.3, 4.0), 16, 0.8);
  for (int op = 0; op < 400; ++op) {
    switch (rng.index(5)) {
      case 0:
      case 1:
        o.add_node(rng, rng.uniform(0.3, 4.0), 16, 0.8);
        break;
      case 2: {
        for (int k = 0; k < 32; ++k) {
          const NodeIndex v = rng.index(o.num_slots());
          if (o.node(v).alive && o.alive_count() > 4) {
            o.leave_graceful(v);
            break;
          }
        }
        break;
      }
      case 3: {
        const NodeIndex v = rng.index(o.num_slots());
        if (o.node(v).alive) o.expand_indegree(v, 2, 32);
        break;
      }
      default: {
        const NodeIndex v = rng.index(o.num_slots());
        if (o.node(v).alive) o.shed_indegree(v, 1);
        break;
      }
    }
    if (op % 20 == 0) {
      EXPECT_TRUE(structure_ok(o));
    }
  }
  EXPECT_TRUE(structure_ok(o));
}

TEST(Can, RouteStepCandidatesAllCloser) {
  Overlay o = make(150, 19);
  Rng rng(20);
  for (int t = 0; t < 200; ++t) {
    const NodeIndex cur = rng.index(o.num_slots());
    const Point target{rng.uniform(), rng.uniform()};
    const RouteStep step = o.route_step(cur, target);
    if (step.arrived || step.entry_index == kNumEntries) continue;
    const double my = zone_distance(o.node(cur).zone, target);
    for (NodeIndex c : step.candidates) {
      EXPECT_LE(zone_distance(o.node(c).zone, target), my);
    }
  }
}

}  // namespace
}  // namespace ert::can
