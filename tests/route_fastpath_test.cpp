// Equivalence tests for the allocation-free per-hop fast path.
//
// The refactor's contract is that the scratch-based route_step / forwarding
// entry points consume the identical Rng draw sequence and produce the
// identical decisions as the legacy vector-returning forms. The golden
// traces pin this end to end; these tests pin it at the unit level so a
// future divergence is caught next to the code that caused it:
//
//  * Rng::sample_indices scratch form == legacy form (output and stream),
//  * OverloadedSet behaves as the sorted set it claims to be,
//  * templated forward_topology_aware == legacy overload, with the memory
//    slot and the A set evolving across calls,
//  * every overlay's scratch route_step == its legacy route_step, hop by
//    hop along full lookups.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "can/overlay.h"
#include "chord/overlay.h"
#include "common/rng.h"
#include "cycloid/overlay.h"
#include "dht/route_scratch.h"
#include "ert/forwarding.h"
#include "pastry/overlay.h"

namespace ert {
namespace {

using dht::NodeIndex;

// --- Rng::sample_indices -----------------------------------------------------

TEST(SampleIndices, ScratchFormMatchesLegacyAcrossRegimes) {
  // Covers k >= n (identity), the dense partial-Fisher-Yates branch
  // (3k >= n), and the sparse rejection branch (3k < n).
  const struct { std::size_t n, k; } cases[] = {
      {0, 0}, {1, 1}, {4, 8}, {10, 10},  // identity
      {10, 4}, {12, 5}, {3, 1},          // dense
      {100, 2}, {1000, 3}, {64, 1},      // sparse
  };
  for (const auto& c : cases) {
    Rng a(42), b(42);
    std::vector<std::size_t> scratch, out;
    for (int rep = 0; rep < 25; ++rep) {
      const auto legacy = a.sample_indices(c.n, c.k);
      b.sample_indices(c.n, c.k, scratch, out);
      ASSERT_EQ(legacy, out) << "n=" << c.n << " k=" << c.k << " rep=" << rep;
    }
    // Both engines must also have consumed the same number of draws.
    EXPECT_EQ(a.bits(), b.bits()) << "n=" << c.n << " k=" << c.k;
  }
}

TEST(SampleIndices, OutputIsDistinctAndInRange) {
  Rng rng(7);
  std::vector<std::size_t> scratch, out;
  for (int rep = 0; rep < 50; ++rep) {
    rng.sample_indices(30, 6, scratch, out);
    ASSERT_EQ(out.size(), 6u);
    auto sorted = out;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::unique(sorted.begin(), sorted.end()) == sorted.end());
    EXPECT_LT(sorted.back(), 30u);
  }
}

// --- OverloadedSet -----------------------------------------------------------

TEST(OverloadedSet, InsertContainsAndDuplicates) {
  core::OverloadedSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(3));
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.insert(1));
  EXPECT_TRUE(s.insert(7));
  EXPECT_FALSE(s.insert(3));  // duplicate
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(2));
  EXPECT_FALSE(s.contains(8));
}

TEST(OverloadedSet, SpillsPastInlineCapacityAndClears) {
  core::OverloadedSet s;
  // Insert in descending order so every insert shifts the whole buffer,
  // and cross the inline capacity to exercise the spill.
  const std::size_t n = core::OverloadedSet::kInlineCap + 10;
  for (std::size_t i = n; i > 0; --i)
    EXPECT_TRUE(s.insert(static_cast<NodeIndex>(i * 3)));
  EXPECT_EQ(s.size(), n);
  for (std::size_t i = 1; i <= n; ++i) {
    EXPECT_TRUE(s.contains(static_cast<NodeIndex>(i * 3)));
    EXPECT_FALSE(s.contains(static_cast<NodeIndex>(i * 3 - 1)));
  }
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(3));
  // Reusable after clear, including re-spilling.
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_TRUE(s.insert(static_cast<NodeIndex>(i)));
  EXPECT_EQ(s.size(), n);
}

// --- forward_topology_aware --------------------------------------------------

/// Deterministic probe: load and heaviness derive from the node index, so
/// both the legacy and the scratch call see identical probe results without
/// sharing state.
core::ProbeResult synth_probe(NodeIndex n, int round) {
  core::ProbeResult r;
  const std::uint64_t h = (static_cast<std::uint64_t>(n) * 2654435761u) ^
                          static_cast<std::uint64_t>(round) * 40503u;
  r.load = static_cast<double>(h % 97) / 10.0;
  r.heavy = (h & 3u) == 0;  // ~25% heavy
  r.logical_distance = (h >> 8) % 1024;
  r.physical_distance = static_cast<double>((h >> 4) % 31);
  r.unit_load = 0.5;
  return r;
}

TEST(TopoForward, ScratchFormMatchesLegacyWithEvolvingState) {
  // Two parallel worlds: legacy (vector A, ProbeFn) and fast path
  // (OverloadedSet A, concrete lambda, ForwardScratch). Same seed, same
  // candidate streams; entries and A sets evolve independently and must
  // stay in lockstep.
  Rng world(11);
  Rng rng_legacy(99), rng_fast(99);
  dht::RoutingEntry entry_legacy(dht::EntryKind::kCubical);
  dht::RoutingEntry entry_fast(dht::EntryKind::kCubical);
  std::vector<NodeIndex> a_legacy;
  core::OverloadedSet a_fast;
  core::ForwardScratch scratch;
  core::TopoForwardOptions opts;
  opts.poll_size = 2;

  for (int round = 0; round < 400; ++round) {
    // Fresh candidate set each round: 1..8 distinct nodes out of 40.
    const std::size_t k = 1 + world.index(8);
    const auto idx = world.sample_indices(40, k);
    std::vector<NodeIndex> cands(idx.begin(), idx.end());

    const core::ProbeFn probe_legacy = [round](NodeIndex n) {
      return synth_probe(n, round);
    };
    const auto d_legacy = core::forward_topology_aware(
        entry_legacy, cands, a_legacy, opts, probe_legacy, rng_legacy);

    const auto d_fast = core::forward_topology_aware(
        entry_fast, std::span<const NodeIndex>(cands), a_fast, opts,
        [round](NodeIndex n) { return synth_probe(n, round); }, rng_fast,
        scratch);

    ASSERT_EQ(d_legacy.next, d_fast.next) << "round " << round;
    ASSERT_EQ(d_legacy.probes, d_fast.probes) << "round " << round;
    ASSERT_EQ(d_legacy.newly_overloaded, scratch.newly_overloaded)
        << "round " << round;
    ASSERT_EQ(entry_legacy.memory(), entry_fast.memory()) << "round " << round;

    // Both worlds accumulate A the way the engine does (cap 64).
    for (NodeIndex o : scratch.newly_overloaded) {
      if (a_fast.size() < core::kOverloadedSetCap) a_fast.insert(o);
    }
    for (NodeIndex o : d_legacy.newly_overloaded) {
      if (a_legacy.size() < core::kOverloadedSetCap &&
          std::find(a_legacy.begin(), a_legacy.end(), o) == a_legacy.end())
        a_legacy.push_back(o);
    }
    ASSERT_EQ(a_legacy.size(), a_fast.size()) << "round " << round;
    // Periodically reset A, as a new query would.
    if (round % 37 == 36) {
      a_legacy.clear();
      a_fast.clear();
    }
  }
}

TEST(TopoForward, EmptyCandidatesIsANoop) {
  Rng rng(1);
  dht::RoutingEntry entry(dht::EntryKind::kCubical);
  core::OverloadedSet a;
  core::ForwardScratch scratch;
  scratch.newly_overloaded.push_back(5);  // must be cleared
  const auto d = core::forward_topology_aware(
      entry, std::span<const NodeIndex>(), a, core::TopoForwardOptions{},
      [](NodeIndex) { return core::ProbeResult{}; }, rng, scratch);
  EXPECT_EQ(d.next, dht::kNoNode);
  EXPECT_EQ(d.probes, 0);
  EXPECT_TRUE(scratch.newly_overloaded.empty());
}

TEST(TopoForward, AllCandidatesOverloadedFallsBackToFullSet) {
  Rng rng(3);
  dht::RoutingEntry entry(dht::EntryKind::kCubical);
  core::OverloadedSet a;
  a.insert(1);
  a.insert(2);
  core::ForwardScratch scratch;
  const std::vector<NodeIndex> cands{1, 2};
  const auto d = core::forward_topology_aware(
      entry, std::span<const NodeIndex>(cands), a, core::TopoForwardOptions{},
      [](NodeIndex n) {
        core::ProbeResult r;
        r.heavy = true;
        r.load = static_cast<double>(n);
        return r;
      },
      rng, scratch);
  EXPECT_NE(d.next, dht::kNoNode);
  // Heavy nodes already in A are not reported again.
  EXPECT_TRUE(scratch.newly_overloaded.empty());
}

// --- per-overlay route_step --------------------------------------------------

/// Routes one lookup with both APIs in lockstep, asserting the hop streams
/// are identical; advances through the front candidate like the
/// deterministic protocols do. Returns hops taken.
template <typename StepFn, typename ScratchStepFn>
std::size_t route_both(StepFn legacy_step, ScratchStepFn scratch_step,
                       NodeIndex src, std::size_t max_hops) {
  dht::RouteScratch scratch;
  NodeIndex cur = src;
  std::size_t hops = 0;
  while (hops < max_hops) {
    const auto legacy = legacy_step(cur);
    const dht::RouteStepInfo fast = scratch_step(cur, scratch);
    EXPECT_EQ(legacy.arrived, fast.arrived);
    EXPECT_EQ(legacy.entry_index, fast.entry_index);
    EXPECT_EQ(legacy.candidates, scratch.candidates);
    if (legacy.arrived) return hops;
    EXPECT_FALSE(scratch.candidates.empty());
    if (scratch.candidates.empty()) return hops;
    cur = scratch.candidates.front();
    ++hops;
  }
  ADD_FAILURE() << "lookup did not terminate";
  return hops;
}

TEST(RouteStepEquivalence, Cycloid) {
  cycloid::OverlayOptions opts;
  opts.dimension = 6;
  cycloid::Overlay o(opts);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) o.add_node_random(rng, 1.0, 1 << 20, 0.8);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) o.build_table(i, rng);
  Rng pick(17);
  for (int q = 0; q < 200; ++q) {
    const NodeIndex src = pick.index(o.num_slots());
    const std::uint64_t key = pick.bits() % o.space().size();
    cycloid::RouteCtx ctx_legacy, ctx_fast;
    route_both(
        [&](NodeIndex cur) { return o.route_step(cur, key, ctx_legacy); },
        [&](NodeIndex cur, dht::RouteScratch& s) {
          return o.route_step(cur, key, ctx_fast, s);
        },
        src, 64);
  }
}

/// Cycloid's hop ranks each candidate once and sorts (key, position)
/// pairs. On entries Algorithm 3 has widened, the order must still be the
/// one a stable sort by the phase's key gives: |k - h| while ascending,
/// cycle distance to the owner while descending, and (rank, node) in the
/// walk, whose pairs are distinct.
TEST(RouteStepOrder, CycloidWideEntriesMatchAStableSortReference) {
  cycloid::OverlayOptions opts;
  opts.dimension = 8;
  cycloid::Overlay o(opts);
  Rng rng(9);
  for (int i = 0; i < 1800; ++i) o.add_node_random(rng, 1.0, 1 << 20, 0.8);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) o.build_table(i, rng);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) o.expand_indegree(i, 96, 512);
  std::size_t widest = 0;
  for (NodeIndex i = 0; i < o.num_slots(); ++i)
    for (const auto& e : o.node(i).table.entries())
      widest = std::max(widest, e.size());
  ASSERT_GE(widest, 100u);

  const auto& space = o.space();
  dht::RouteScratch scratch;
  std::size_t wide_steps = 0;
  Rng pick(21);
  for (int q = 0; q < 400; ++q) {
    const std::uint64_t key = pick.bits() % space.size();
    const NodeIndex owner = o.responsible(key);
    const cycloid::CycloidId oid = o.node(owner).id;
    NodeIndex cur = pick.index(o.num_slots());
    cycloid::RouteCtx ctx;
    for (int hop = 0; hop < 64; ++hop) {
      const auto step = o.route_step(cur, key, ctx, scratch);
      if (step.arrived) break;
      const std::vector<NodeIndex> got = scratch.candidates;
      ASSERT_FALSE(got.empty());
      if (step.entry_index < cycloid::kNumEntries) {
        const auto span =
            o.node(cur).table.entry(step.entry_index).candidates(
                o.arena().cands);
        if (span.size() >= 100) ++wide_steps;
        const cycloid::CycloidId cid = o.node(cur).id;
        std::vector<NodeIndex> want;
        if (ctx.phase == cycloid::RouteCtx::Phase::kAscend) {
          const int h = msb_diff(cid.a, oid.a);
          for (const NodeIndex c : span)
            if (o.node(c).id.k > cid.k) want.push_back(c);
          std::stable_sort(want.begin(), want.end(),
                           [&](NodeIndex x, NodeIndex y) {
                             return std::abs(o.node(x).id.k - h) <
                                    std::abs(o.node(y).id.k - h);
                           });
          EXPECT_EQ(got, want) << "ascend, query " << q << " hop " << hop;
        } else if (ctx.phase == cycloid::RouteCtx::Phase::kDescend) {
          want.assign(span.begin(), span.end());
          std::stable_sort(want.begin(), want.end(),
                           [&](NodeIndex x, NodeIndex y) {
                             return space.cycle_distance(o.node(x).id.a,
                                                         oid.a) <
                                    space.cycle_distance(o.node(y).id.a,
                                                         oid.a);
                           });
          EXPECT_EQ(got, want) << "descend, query " << q << " hop " << hop;
        } else {
          // The walk ranks live candidates by directory position gap to
          // the owner; the chosen segment is ascending in (rank, node).
          const auto& dir = o.directory();
          const std::size_t owner_pos =
              dir.position_of(space.to_linear(oid));
          auto rank = [&](NodeIndex c) {
            return std::make_pair(
                dir.position_gap(dir.position_of(space.to_linear(o.node(c).id)),
                                 owner_pos),
                c);
          };
          for (std::size_t p = 1; p < got.size(); ++p)
            EXPECT_LT(rank(got[p - 1]), rank(got[p]))
                << "walk, query " << q << " hop " << hop;
        }
      }
      cur = got.front();
    }
  }
  EXPECT_GT(wide_steps, 0u) << "no hop left through a widened entry";
}

TEST(RouteStepEquivalence, Chord) {
  chord::ChordOptions opts;
  opts.bits = 14;
  chord::Overlay o(opts);
  Rng rng(6);
  for (int i = 0; i < 250; ++i) o.add_node_random(rng, 1.0, 1 << 20, 0.8);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) o.build_table(i);
  Rng pick(18);
  for (int q = 0; q < 200; ++q) {
    const NodeIndex src = pick.index(o.num_slots());
    const std::uint64_t key = pick.bits() % o.ring_size();
    route_both(
        [&](NodeIndex cur) { return o.route_step(cur, key); },
        [&](NodeIndex cur, dht::RouteScratch& s) {
          return o.route_step(cur, key, s);
        },
        src, 64);
  }
}

TEST(RouteStepEquivalence, Pastry) {
  pastry::PastryOptions opts;
  pastry::Overlay o(opts);
  Rng rng(7);
  for (int i = 0; i < 250; ++i) o.add_node_random(rng, 1.0, 1 << 20, 0.8);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) o.build_table(i);
  Rng pick(19);
  for (int q = 0; q < 200; ++q) {
    const NodeIndex src = pick.index(o.num_slots());
    const std::uint64_t key = pick.bits() % o.ring_size();
    route_both(
        [&](NodeIndex cur) { return o.route_step(cur, key); },
        [&](NodeIndex cur, dht::RouteScratch& s) {
          return o.route_step(cur, key, s);
        },
        src, 64);
  }
}

TEST(RouteStepEquivalence, Can) {
  can::CanOptions opts;
  can::Overlay o(opts);
  Rng rng(8);
  for (int i = 0; i < 200; ++i) o.add_node(rng, rng.uniform(0.3, 4.0), 16, 0.8);
  Rng pick(20);
  for (int q = 0; q < 200; ++q) {
    const NodeIndex src = pick.index(o.num_slots());
    const can::Point target{pick.uniform(), pick.uniform()};
    route_both(
        [&](NodeIndex cur) { return o.route_step(cur, target); },
        [&](NodeIndex cur, dht::RouteScratch& s) {
          return o.route_step(cur, target, s);
        },
        src, 64);
  }
}

}  // namespace
}  // namespace ert
