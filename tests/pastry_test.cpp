#include "pastry/overlay.h"

#include <gtest/gtest.h>

#include "structure_audit.h"

namespace ert::pastry {
namespace {

using dht::NodeIndex;

Overlay make(std::size_t n, std::uint64_t seed = 1, bool bounds = false,
             int max_indegree = 1 << 20) {
  PastryOptions opts;  // 8 rows x 2 bits = 16-bit ids
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

TEST(Pastry, DigitHelpers) {
  PastryOptions opts;
  Overlay o(opts);
  // id 0b10'11'01'00'11'00'01'10: digits 2,3,1,0,3,0,1,2
  const std::uint64_t id = 0b1011010011000110;
  EXPECT_EQ(o.digit_of(id, 0), 2);
  EXPECT_EQ(o.digit_of(id, 1), 3);
  EXPECT_EQ(o.digit_of(id, 7), 2);
  EXPECT_EQ(o.shared_digits(id, id), 8);
  EXPECT_EQ(o.shared_digits(id, id ^ 0b11), 7);
  EXPECT_EQ(o.shared_digits(id, id ^ (0b11ull << 14)), 0);
}

TEST(Pastry, BuildFillsReachableEntries) {
  Overlay o = make(300);
  // Row 0 has 3 non-own columns; with 300 nodes over base 4 each column
  // block holds ~75 nodes, so row 0 must be fully populated.
  for (NodeIndex i = 0; i < std::min<std::size_t>(o.num_slots(), 50); ++i) {
    const int own = o.digit_of(o.node(i).id, 0);
    for (int v = 0; v < o.base(); ++v) {
      if (v == own) continue;
      EXPECT_FALSE(o.node(i).table.entry(o.prefix_slot(0, v)).empty())
          << "node " << i << " row 0 col " << v;
    }
    EXPECT_FALSE(o.node(i).table.entry(o.leaf_entry()).empty());
  }
  EXPECT_TRUE(structure_ok(o));
}

TEST(Pastry, EntryEligibility) {
  Overlay o = make(100, 2);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    for (int r = 0; r < o.rows(); ++r) {
      for (int v = 0; v < o.base(); ++v) {
        const auto slot = o.prefix_slot(r, v);
        for (const dht::NodeIndex32 c :
             o.node(i).table.entry(slot).candidates(o.arena().cands)) {
          EXPECT_GE(o.shared_digits(o.node(i).id, o.node(c).id), r);
          EXPECT_EQ(o.digit_of(o.node(c).id, r), v);
        }
      }
    }
  }
}

TEST(Pastry, LookupsArriveWithPrefixProgress) {
  Overlay o = make(500, 3);
  Rng rng(4);
  std::size_t total = 0;
  for (int t = 0; t < 300; ++t) {
    const NodeIndex src = rng.index(o.num_slots());
    const std::uint64_t key = rng.bits() % o.ring_size();
    std::size_t hops = 0;
    ASSERT_EQ(route(o, src, key, 64, &hops), o.responsible(key));
    total += hops;
  }
  // log_4(500) ~ 4.5 expected hops.
  EXPECT_LT(static_cast<double>(total) / 300.0, 8.0);
}

TEST(Pastry, ResponsibleIsNumericallyClosest) {
  Overlay o = make(50, 5);
  Rng rng(6);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t key = rng.bits() % o.ring_size();
    const NodeIndex r = o.responsible(key);
    const std::uint64_t rd =
        dht::ring_distance(o.node(r).id, key, o.ring_size());
    for (NodeIndex i = 0; i < o.num_slots(); ++i) {
      EXPECT_LE(rd, dht::ring_distance(o.node(i).id, key, o.ring_size()));
    }
  }
}

TEST(Pastry, ExpansionRaisesIndegree) {
  Overlay o = make(400, 7, true, 64);
  const NodeIndex i = 13;
  const int before = o.node(i).budget.indegree();
  const int gained = o.expand_indegree(i, 8, 512);
  EXPECT_GT(gained, 0);
  EXPECT_EQ(o.node(i).budget.indegree(), before + gained);
  EXPECT_TRUE(structure_ok(o));
}

TEST(Pastry, ExpansionTargetsDivergeAtClaimedRow) {
  Overlay o = make(300, 8);
  const NodeIndex i = 20;
  std::vector<core::ExpansionTarget> targets;
  o.expansion_targets_into(i, 128, targets);
  for (const auto& [host, slot] : targets) {
    if (slot == o.leaf_entry()) continue;
    const int row = static_cast<int>(slot) / o.base();
    const int col = static_cast<int>(slot) % o.base();
    EXPECT_EQ(o.shared_digits(o.node(host).id, o.node(i).id), row);
    EXPECT_EQ(o.digit_of(o.node(i).id, row), col);
  }
}

TEST(Pastry, ShedIndegree) {
  Overlay o = make(300, 9);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    if (o.node(i).inlinks.size() >= 5) {
      const auto before = o.node(i).inlinks.size();
      EXPECT_EQ(o.shed_indegree(i, 3), 3);
      EXPECT_EQ(o.node(i).inlinks.size(), before - 3);
      EXPECT_TRUE(structure_ok(o));
      return;
    }
  }
  FAIL();
}

TEST(Pastry, SurvivesGracefulChurn) {
  Overlay o = make(250, 10);
  Rng rng(11);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 8; ++i) {
      NodeIndex v = rng.index(o.num_slots());
      if (o.node(v).alive && o.alive_count() > 30) o.leave_graceful(v);
    }
    for (int t = 0; t < 40; ++t) {
      NodeIndex src = rng.index(o.num_slots());
      while (!o.node(src).alive) src = rng.index(o.num_slots());
      const std::uint64_t key = rng.bits() % o.ring_size();
      ASSERT_EQ(route(o, src, key, 400), o.responsible(key));
    }
  }
}

TEST(Pastry, ProximityNeighborSelectionPrefersClose) {
  PastryOptions opts;
  std::vector<double> coord;  // 1-D synthetic positions
  Overlay o(opts, [&coord](NodeIndex a, NodeIndex b) {
    return std::abs(coord[a] - coord[b]);
  });
  Rng rng(12);
  for (std::size_t i = 0; i < 300; ++i) {
    coord.push_back(rng.uniform());
    o.add_node_random(rng, 1.0, 1 << 20, 0.8);
  }
  for (NodeIndex i = 0; i < o.num_slots(); ++i) o.build_table(i);
  // Row-0 entries admit ~75 candidates; PNS should pick ones much closer
  // than the 0.25 expected distance of a random pick (1-D uniform on [0,1]
  // with wraparound-free metric: E|x-y| = 1/3; nearest of ~75 is tiny).
  double sum = 0;
  std::size_t cnt = 0;
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    for (int v = 0; v < o.base(); ++v) {
      if (v == o.digit_of(o.node(i).id, 0)) continue;
      for (const dht::NodeIndex32 c :
           o.node(i).table.entry(o.prefix_slot(0, v))
               .candidates(o.arena().cands)) {
        sum += std::abs(coord[i] - coord[c]);
        ++cnt;
      }
    }
  }
  ASSERT_GT(cnt, 0u);
  EXPECT_LT(sum / static_cast<double>(cnt), 0.1);
}

}  // namespace
}  // namespace ert::pastry
