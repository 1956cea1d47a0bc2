// Fuzz: random interleavings of join / graceful-leave / silent-fail /
// expand / shed / purge / repair / lookup on each substrate, with the
// structural invariants re-checked throughout — including nodes crashing
// *while* a lookup is routing through them (the query hands off to a live
// node and must still converge without touching stale state; run under
// ASan/UBSan in CI). Seeds are fixed so failures reproduce.
#include <gtest/gtest.h>

#include "chord/overlay.h"
#include "cycloid/overlay.h"
#include "d1ht/overlay.h"
#include "kademlia/overlay.h"
#include "pastry/overlay.h"
#include "structure_audit.h"

namespace ert {
namespace {

using dht::NodeIndex;

template <typename Overlay>
NodeIndex pick_alive(const Overlay& o, Rng& rng) {
  for (int t = 0; t < 256; ++t) {
    const NodeIndex v = rng.index(o.num_slots());
    if (o.node(v).alive) return v;
  }
  return dht::kNoNode;
}

/// Drives one fuzz round; `route` runs a full lookup and returns the final
/// node, `join` adds and wires one node.
template <typename Overlay, typename JoinFn, typename RouteFn>
void fuzz(Overlay& o, Rng& rng, JoinFn join, RouteFn route, int ops) {
  for (int op = 0; op < ops; ++op) {
    switch (rng.index(10)) {
      case 0:
      case 1:
        join();
        break;
      case 2: {
        if (o.alive_count() > 32) {
          const NodeIndex v = pick_alive(o, rng);
          if (v != dht::kNoNode) o.leave_graceful(v);
        }
        break;
      }
      case 3: {
        if (o.alive_count() > 32) {
          const NodeIndex v = pick_alive(o, rng);
          if (v != dht::kNoNode) o.fail(v);
        }
        break;
      }
      case 4: {
        const NodeIndex v = pick_alive(o, rng);
        if (v != dht::kNoNode)
          o.expand_indegree(v, 1 + static_cast<int>(rng.index(4)), 64);
        break;
      }
      case 5: {
        const NodeIndex v = pick_alive(o, rng);
        if (v != dht::kNoNode)
          o.shed_indegree(v, 1 + static_cast<int>(rng.index(3)));
        break;
      }
      case 6: {
        // Purge stale links the way the runtime would on a timeout.
        const NodeIndex v = pick_alive(o, rng);
        if (v == dht::kNoNode) break;
        for (const auto& e : o.node(v).table.entries()) {
          const auto span = e.candidates(o.arena().cands);
          const std::vector<NodeIndex> cands(span.begin(), span.end());
          for (NodeIndex c : cands)
            if (!o.node(c).alive) o.purge_dead(v, c);
        }
        for (std::size_t slot = 0; slot < o.node(v).table.num_entries();
             ++slot)
          o.repair_entry(v, slot);
        break;
      }
      default: {
        // Lookup correctness under whatever state we are in.
        const NodeIndex src = pick_alive(o, rng);
        if (src == dht::kNoNode) break;
        route(src);
        break;
      }
    }
  }
  EXPECT_TRUE(structure_ok(o));
}

TEST(ChurnFuzz, Cycloid) {
  cycloid::OverlayOptions opts;
  opts.dimension = 7;
  opts.policy = cycloid::NeighborPolicy::kSpareIndegree;
  opts.enforce_indegree_bounds = true;
  cycloid::Overlay o(opts);
  Rng rng(101);
  auto join = [&] {
    if (o.directory().size() + 8 >= o.space().size()) return;
    const NodeIndex v = o.add_node_random(rng, rng.uniform(0.3, 4.0), 40, 0.8);
    o.build_table(v, rng);
    o.expand_indegree(v, 4, 64);
  };
  auto route = [&](NodeIndex src) {
    const std::uint64_t key = rng.bits() % o.space().size();
    cycloid::RouteCtx ctx;
    NodeIndex cur = src;
    std::size_t hops = 0;
    for (;;) {
      // Crash-during-routing: with the network above its floor, fail a
      // random node mid-lookup (sometimes cur itself) and keep routing —
      // ASan/UBSan then prove no stale NodeIndex is dereferenced.
      if (o.alive_count() > 48 && rng.index(8) == 0) {
        const NodeIndex victim = pick_alive(o, rng);
        if (victim != dht::kNoNode) o.fail(victim);
      }
      if (!o.node(cur).alive) {
        // The node holding the query died: hand off to a live node the
        // way the engine routes displaced queries, and count the hop.
        cur = pick_alive(o, rng);
        if (cur == dht::kNoNode) return;
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck after mid-route crashes";
        continue;
      }
      const auto step = o.route_step(cur, key, ctx);
      if (step.arrived) break;
      ASSERT_FALSE(step.candidates.empty());
      // Follow the first LIVE candidate, purging stale ones like the
      // runtime does.
      NodeIndex next = dht::kNoNode;
      for (NodeIndex c : step.candidates) {
        if (o.node(c).alive) {
          next = c;
          break;
        }
        o.purge_dead(cur, c);
      }
      if (next == dht::kNoNode) {
        if (step.entry_index < cycloid::kNoEntry)
          o.repair_entry(cur, step.entry_index);
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck on stale entries";
        continue;
      }
      cur = next;
      ASSERT_LT(++hops, 600u);
    }
    ASSERT_EQ(cur, o.responsible(key));
  };
  for (int i = 0; i < 150; ++i) join();
  fuzz(o, rng, join, route, 800);
}

TEST(ChurnFuzz, CycloidPartitionWave) {
  // The scenario engine's partition phase at the overlay level: half of
  // the alive set silent-fails in one burst (the reachable side's view of
  // a network split), lookups keep routing through the wreckage with
  // timeout-driven purge/repair, then a rejoin wave brings the population
  // back. Invariants are re-checked after every stage, and the whole
  // thing runs under ASan/UBSan in CI.
  cycloid::OverlayOptions opts;
  opts.dimension = 7;
  opts.policy = cycloid::NeighborPolicy::kSpareIndegree;
  opts.enforce_indegree_bounds = true;
  cycloid::Overlay o(opts);
  Rng rng(707);
  auto join = [&] {
    if (o.directory().size() + 8 >= o.space().size()) return;
    const NodeIndex v = o.add_node_random(rng, rng.uniform(0.3, 4.0), 40, 0.8);
    o.build_table(v, rng);
    o.expand_indegree(v, 4, 64);
  };
  auto route = [&](NodeIndex src) {
    const std::uint64_t key = rng.bits() % o.space().size();
    cycloid::RouteCtx ctx;
    NodeIndex cur = src;
    std::size_t hops = 0;
    for (;;) {
      if (!o.node(cur).alive) {
        cur = pick_alive(o, rng);
        if (cur == dht::kNoNode) return;
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck after the partition wave";
        continue;
      }
      const auto step = o.route_step(cur, key, ctx);
      if (step.arrived) break;
      ASSERT_FALSE(step.candidates.empty());
      NodeIndex next = dht::kNoNode;
      for (NodeIndex c : step.candidates) {
        if (o.node(c).alive) {
          next = c;
          break;
        }
        o.purge_dead(cur, c);
      }
      if (next == dht::kNoNode) {
        if (step.entry_index < cycloid::kNoEntry)
          o.repair_entry(cur, step.entry_index);
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck on stale entries";
        continue;
      }
      cur = next;
      ASSERT_LT(++hops, 600u);
    }
    ASSERT_EQ(cur, o.responsible(key));
  };

  for (int i = 0; i < 150; ++i) join();
  EXPECT_TRUE(structure_ok(o));
  const std::size_t before = o.alive_count();

  for (int wave = 0; wave < 2; ++wave) {
    // Burst-fail half of the alive set in one go: no repair runs between
    // victims, which is what separates a partition from gradual churn.
    std::vector<NodeIndex> victims;
    for (NodeIndex v = 0; v < o.num_slots(); ++v)
      if (o.node(v).alive && rng.bernoulli(0.5)) victims.push_back(v);
    // Keep a floor so routing always has somewhere to hand off to.
    while (o.alive_count() - victims.size() < 24) victims.pop_back();
    for (NodeIndex v : victims) o.fail(v);
    EXPECT_TRUE(structure_ok(o));

    // The surviving side must still resolve lookups while purging the
    // dead half out of its tables.
    for (int i = 0; i < 120; ++i) {
      const NodeIndex src = pick_alive(o, rng);
      ASSERT_NE(src, dht::kNoNode);
      route(src);
    }
    // Sweep repairs like the runtime's timeout path would.
    for (NodeIndex v = 0; v < o.num_slots(); ++v) {
      if (!o.node(v).alive) continue;
      for (std::size_t slot = 0; slot < o.node(v).table.num_entries(); ++slot)
        o.repair_entry(v, slot);
    }
    EXPECT_TRUE(structure_ok(o));

    // Rejoin wave: the departed population's worth of fresh joins.
    for (std::size_t i = 0; i < victims.size(); ++i) join();
    EXPECT_TRUE(structure_ok(o));
    for (int i = 0; i < 120; ++i) {
      const NodeIndex src = pick_alive(o, rng);
      ASSERT_NE(src, dht::kNoNode);
      route(src);
    }
  }
  EXPECT_TRUE(structure_ok(o));
  EXPECT_GE(o.alive_count(), before / 2);
}

TEST(ChurnFuzz, ChordPartitionWave) {
  // Same wave shape on Chord: successor-list and finger repair have to
  // absorb a burst of silent failures rather than one death at a time.
  chord::ChordOptions opts;
  opts.bits = 14;
  opts.enforce_indegree_bounds = true;
  chord::Overlay o(opts);
  Rng rng(808);
  auto join = [&] {
    const NodeIndex v = o.add_node_random(rng, rng.uniform(0.3, 4.0), 40, 0.8);
    o.build_table(v);
    o.expand_indegree(v, 4, 64);
  };
  auto route = [&](NodeIndex src) {
    const std::uint64_t key = rng.bits() % o.ring_size();
    NodeIndex cur = src;
    std::size_t hops = 0;
    for (;;) {
      if (!o.node(cur).alive) {
        cur = pick_alive(o, rng);
        if (cur == dht::kNoNode) return;
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck after the partition wave";
        continue;
      }
      const auto step = o.route_step(cur, key);
      if (step.arrived) break;
      ASSERT_FALSE(step.candidates.empty());
      NodeIndex next = dht::kNoNode;
      for (NodeIndex c : step.candidates) {
        if (o.node(c).alive) {
          next = c;
          break;
        }
        o.purge_dead(cur, c);
      }
      if (next == dht::kNoNode) {
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck on stale entries";
        continue;
      }
      cur = next;
      ASSERT_LT(++hops, 600u);
    }
    ASSERT_EQ(cur, o.responsible(key));
  };

  for (int i = 0; i < 150; ++i) join();
  EXPECT_TRUE(structure_ok(o));

  std::vector<NodeIndex> victims;
  for (NodeIndex v = 0; v < o.num_slots(); ++v)
    if (o.node(v).alive && rng.bernoulli(0.5)) victims.push_back(v);
  while (o.alive_count() - victims.size() < 24) victims.pop_back();
  for (NodeIndex v : victims) o.fail(v);
  EXPECT_TRUE(structure_ok(o));
  for (int i = 0; i < 120; ++i) {
    const NodeIndex src = pick_alive(o, rng);
    ASSERT_NE(src, dht::kNoNode);
    route(src);
  }
  for (std::size_t i = 0; i < victims.size(); ++i) join();
  EXPECT_TRUE(structure_ok(o));
  for (int i = 0; i < 120; ++i) {
    const NodeIndex src = pick_alive(o, rng);
    ASSERT_NE(src, dht::kNoNode);
    route(src);
  }
  EXPECT_TRUE(structure_ok(o));
}

TEST(ChurnFuzz, Chord) {
  chord::ChordOptions opts;
  opts.bits = 14;
  opts.enforce_indegree_bounds = true;
  chord::Overlay o(opts);
  Rng rng(202);
  auto join = [&] {
    const NodeIndex v = o.add_node_random(rng, rng.uniform(0.3, 4.0), 40, 0.8);
    o.build_table(v);
    o.expand_indegree(v, 4, 64);
  };
  auto route = [&](NodeIndex src) {
    const std::uint64_t key = rng.bits() % o.ring_size();
    NodeIndex cur = src;
    std::size_t hops = 0;
    for (;;) {
      // Crash-during-routing: with the network above its floor, fail a
      // random node mid-lookup (sometimes cur itself) and keep routing —
      // ASan/UBSan then prove no stale NodeIndex is dereferenced.
      if (o.alive_count() > 48 && rng.index(8) == 0) {
        const NodeIndex victim = pick_alive(o, rng);
        if (victim != dht::kNoNode) o.fail(victim);
      }
      if (!o.node(cur).alive) {
        // The node holding the query died: hand off to a live node the
        // way the engine routes displaced queries, and count the hop.
        cur = pick_alive(o, rng);
        if (cur == dht::kNoNode) return;
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck after mid-route crashes";
        continue;
      }
      const auto step = o.route_step(cur, key);
      if (step.arrived) break;
      ASSERT_FALSE(step.candidates.empty());
      NodeIndex next = dht::kNoNode;
      for (NodeIndex c : step.candidates) {
        if (o.node(c).alive) {
          next = c;
          break;
        }
        o.purge_dead(cur, c);
      }
      if (next == dht::kNoNode) {
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck on stale entries";
        continue;
      }
      cur = next;
      ASSERT_LT(++hops, 600u);
    }
    ASSERT_EQ(cur, o.responsible(key));
  };
  for (int i = 0; i < 150; ++i) join();
  fuzz(o, rng, join, route, 800);
}

TEST(ChurnFuzz, Pastry) {
  pastry::PastryOptions opts;
  opts.enforce_indegree_bounds = true;
  pastry::Overlay o(opts);
  Rng rng(303);
  auto join = [&] {
    const NodeIndex v = o.add_node_random(rng, rng.uniform(0.3, 4.0), 40, 0.8);
    o.build_table(v);
    o.expand_indegree(v, 4, 64);
  };
  auto route = [&](NodeIndex src) {
    const std::uint64_t key = rng.bits() % o.ring_size();
    NodeIndex cur = src;
    std::size_t hops = 0;
    for (;;) {
      // Crash-during-routing: with the network above its floor, fail a
      // random node mid-lookup (sometimes cur itself) and keep routing —
      // ASan/UBSan then prove no stale NodeIndex is dereferenced.
      if (o.alive_count() > 48 && rng.index(8) == 0) {
        const NodeIndex victim = pick_alive(o, rng);
        if (victim != dht::kNoNode) o.fail(victim);
      }
      if (!o.node(cur).alive) {
        // The node holding the query died: hand off to a live node the
        // way the engine routes displaced queries, and count the hop.
        cur = pick_alive(o, rng);
        if (cur == dht::kNoNode) return;
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck after mid-route crashes";
        continue;
      }
      const auto step = o.route_step(cur, key);
      if (step.arrived) break;
      ASSERT_FALSE(step.candidates.empty());
      NodeIndex next = dht::kNoNode;
      for (NodeIndex c : step.candidates) {
        if (o.node(c).alive) {
          next = c;
          break;
        }
        o.purge_dead(cur, c);
      }
      if (next == dht::kNoNode) {
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck on stale entries";
        continue;
      }
      cur = next;
      ASSERT_LT(++hops, 600u);
    }
    ASSERT_EQ(cur, o.responsible(key));
  };
  for (int i = 0; i < 150; ++i) join();
  fuzz(o, rng, join, route, 800);
}

TEST(ChurnFuzz, Kademlia) {
  kademlia::KademliaOptions opts;
  opts.bits = 14;
  opts.enforce_indegree_bounds = true;
  kademlia::Overlay o(opts);
  Rng rng(404);
  auto join = [&] {
    const NodeIndex v = o.add_node_random(rng, rng.uniform(0.3, 4.0), 40, 0.8);
    o.build_table(v, rng);
    o.expand_indegree(v, 4, 64);
  };
  dht::RouteScratch scratch;
  auto route = [&](NodeIndex src) {
    const std::uint64_t key = rng.bits() % o.ring_size();
    NodeIndex cur = src;
    std::size_t hops = 0;
    for (;;) {
      // Crash-during-routing: with the network above its floor, fail a
      // random node mid-lookup (sometimes cur itself) and keep routing —
      // ASan/UBSan then prove no stale NodeIndex is dereferenced.
      if (o.alive_count() > 48 && rng.index(8) == 0) {
        const NodeIndex victim = pick_alive(o, rng);
        if (victim != dht::kNoNode) o.fail(victim);
      }
      if (!o.node(cur).alive) {
        // The node holding the query died: hand off to a live node the
        // way the engine routes displaced queries, and count the hop.
        cur = pick_alive(o, rng);
        if (cur == dht::kNoNode) return;
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck after mid-route crashes";
        continue;
      }
      const auto step = o.route_step(cur, key, scratch);
      if (step.arrived) break;
      ASSERT_FALSE(scratch.candidates.empty());
      // Follow the first LIVE candidate, purging stale ones like the
      // runtime does (Kademlia's timeout-driven lazy eviction).
      NodeIndex next = dht::kNoNode;
      for (NodeIndex c : scratch.candidates) {
        if (o.node(c).alive) {
          next = c;
          break;
        }
        o.purge_dead(cur, c);
      }
      if (next == dht::kNoNode) {
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck on stale entries";
        continue;
      }
      cur = next;
      ASSERT_LT(++hops, 600u);
    }
    ASSERT_EQ(cur, o.responsible(key));
  };
  for (int i = 0; i < 150; ++i) join();
  fuzz(o, rng, join, route, 800);
}

TEST(ChurnFuzz, D1ht) {
  d1ht::D1htOptions opts;
  opts.bits = 14;
  d1ht::Overlay o(opts);
  Rng rng(505);
  auto join = [&] {
    const NodeIndex v = o.add_node_random(rng, rng.uniform(0.3, 4.0), 40, 0.8);
    o.build_table(v);
    o.expand_indegree(v, 4, 64);
  };
  dht::RouteScratch scratch;
  auto route = [&](NodeIndex src) {
    const std::uint64_t key = rng.bits() % o.ring_size();
    NodeIndex cur = src;
    std::size_t hops = 0;
    for (;;) {
      // Crash-during-routing: with the network above its floor, fail a
      // random node mid-lookup (sometimes cur itself) and keep routing —
      // ASan/UBSan then prove no stale NodeIndex is dereferenced.
      if (o.alive_count() > 48 && rng.index(8) == 0) {
        const NodeIndex victim = pick_alive(o, rng);
        if (victim != dht::kNoNode) o.fail(victim);
      }
      if (!o.node(cur).alive) {
        // The node holding the query died: hand off to a live node the
        // way the engine routes displaced queries, and count the hop.
        cur = pick_alive(o, rng);
        if (cur == dht::kNoNode) return;
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck after mid-route crashes";
        continue;
      }
      const auto step = o.route_step(cur, key, scratch);
      if (step.arrived) break;
      ASSERT_FALSE(scratch.candidates.empty());
      // Follow the first LIVE candidate, purging stale ones like EDRA's
      // detection timeouts would.
      NodeIndex next = dht::kNoNode;
      for (NodeIndex c : scratch.candidates) {
        if (o.node(c).alive) {
          next = c;
          break;
        }
        o.purge_dead(cur, c);
      }
      if (next == dht::kNoNode) {
        ++hops;
        if (hops > 600) FAIL() << "lookup stuck on stale entries";
        continue;
      }
      cur = next;
      ASSERT_LT(++hops, 600u);
    }
    ASSERT_EQ(cur, o.responsible(key));
  };
  for (int i = 0; i < 150; ++i) join();
  fuzz(o, rng, join, route, 800);
}

}  // namespace
}  // namespace ert
