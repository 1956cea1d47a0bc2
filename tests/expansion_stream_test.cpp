// Streamed indegree expansion (Algorithm 1) on all six substrates.
//
// Each overlay offers its reverse neighbours through
// for_each_expansion_target, and expand_indegree links them as they stream
// in, stopping at the first point where it has enough. These tests pin what
// that must preserve, at two network sizes and again after churn:
//  * a visitor that stops early, or a lower cap, sees exactly a prefix of
//    the full target sequence;
//  * expand_indegree makes the same (host, slot) links, in the same order,
//    as materialising the targets first and then linking them — the form
//    every golden was recorded with.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "can/overlay.h"
#include "chord/overlay.h"
#include "common/rng.h"
#include "cycloid/overlay.h"
#include "d1ht/overlay.h"
#include "kademlia/overlay.h"
#include "pastry/overlay.h"
#include "structure_audit.h"

namespace ert {
namespace {

using dht::NodeIndex;
using Target = std::pair<NodeIndex, std::size_t>;

constexpr int kMaxIndegree = 12;
constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();

// --- substrates: build an empty overlay of roughly `n` nodes' scale, and
// join one node the way each overlay's own tests do ---

struct CycloidWorld {
  using Overlay = cycloid::Overlay;
  static Overlay empty(std::size_t n) {
    cycloid::OverlayOptions opts;
    opts.dimension = n <= 100 ? 5 : 7;  // 160 or 896 ids
    opts.policy = cycloid::NeighborPolicy::kSpareIndegree;
    opts.enforce_indegree_bounds = true;
    return Overlay(opts);
  }
  static void join(Overlay& o, Rng& rng) {
    if (o.directory().size() + 8 >= o.space().size()) return;
    const NodeIndex v = o.add_node_random(rng, 1.0, kMaxIndegree, 0.8);
    o.build_table(v, rng);
  }
};

struct ChordWorld {
  using Overlay = chord::Overlay;
  static Overlay empty(std::size_t) {
    chord::ChordOptions opts;
    opts.bits = 16;
    opts.enforce_indegree_bounds = true;
    return Overlay(opts);
  }
  static void join(Overlay& o, Rng& rng) {
    o.build_table(o.add_node_random(rng, 1.0, kMaxIndegree, 0.8));
  }
};

struct PastryWorld {
  using Overlay = pastry::Overlay;
  static Overlay empty(std::size_t) {
    pastry::PastryOptions opts;
    opts.enforce_indegree_bounds = true;
    return Overlay(opts);
  }
  static void join(Overlay& o, Rng& rng) {
    o.build_table(o.add_node_random(rng, 1.0, kMaxIndegree, 0.8));
  }
};

struct KademliaWorld {
  using Overlay = kademlia::Overlay;
  static Overlay empty(std::size_t) {
    kademlia::KademliaOptions opts;
    opts.bits = 16;
    opts.enforce_indegree_bounds = true;
    return Overlay(opts);
  }
  static void join(Overlay& o, Rng& rng) {
    o.build_table(o.add_node_random(rng, 1.0, kMaxIndegree, 0.8), rng);
  }
};

struct D1htWorld {
  using Overlay = d1ht::Overlay;
  static Overlay empty(std::size_t) {
    d1ht::D1htOptions opts;
    opts.bits = 16;
    return Overlay(opts);
  }
  static void join(Overlay& o, Rng& rng) {
    o.build_table(o.add_node_random(rng, 1.0, kMaxIndegree, 0.8));
  }
};

struct CanWorld {
  using Overlay = can::Overlay;
  static Overlay empty(std::size_t) { return Overlay(can::CanOptions{}); }
  static void join(Overlay& o, Rng& rng) {
    o.add_node(rng, rng.uniform(0.3, 4.0), kMaxIndegree, 0.8);
  }
};

// --- the two sides of the comparison ---

template <typename Overlay>
std::vector<Target> targets(const Overlay& o, NodeIndex i, std::size_t cap,
                            std::size_t stop_after = kAll) {
  std::vector<Target> out;
  o.for_each_expansion_target(i, cap, [&](NodeIndex host, std::size_t slot) {
    out.emplace_back(host, slot);
    return out.size() < stop_after;
  });
  return out;
}

/// Algorithm 1 as every golden was recorded: materialise up to
/// `max_probes` targets, then link them in order until `want` are gained
/// or the budget is full. Returns the (host, slot) links made.
template <typename Overlay>
std::vector<Target> materialised_expand(Overlay& o, NodeIndex i, int want,
                                        std::size_t max_probes) {
  std::vector<Target> made;
  if (want <= 0) return made;
  int gained = 0;
  for (const auto& [host, slot] : targets(o, i, max_probes)) {
    if (gained >= want || !o.node(i).budget.can_accept()) break;
    if (!o.link(host, slot, i, /*respect_budget=*/true)) continue;
    ++gained;
    made.emplace_back(host, slot);
  }
  return made;
}

/// The last entry of `host` holding `i`: one role per pair leaves a single
/// elastic one, and mandatory entries (the D1HT mesh) come first.
template <typename Overlay>
std::size_t slot_holding(const Overlay& o, NodeIndex host, NodeIndex i) {
  const auto& entries = o.node(host).table.entries();
  for (std::size_t s = entries.size(); s-- > 0;)
    if (entries[s].contains(o.arena().cands, i)) return s;
  return entries.size();
}

/// The shipped expand_indegree. `i`'s backward fingers are appended in
/// link order, so the new tail of its list names the links it made.
template <typename Overlay>
std::vector<Target> streamed_expand(Overlay& o, NodeIndex i, int want,
                                    std::size_t max_probes) {
  const std::size_t before = o.node(i).inlinks.size();
  const int gained = o.expand_indegree(i, want, max_probes);
  const auto fingers = o.node(i).inlinks.fingers(o.arena().fingers);
  std::vector<Target> made;
  for (std::size_t p = before; p < fingers.size(); ++p)
    made.emplace_back(fingers[p].node, slot_holding(o, fingers[p].node, i));
  EXPECT_EQ(static_cast<std::size_t>(gained), made.size());
  return made;
}

/// Every node's liveness, entries (in candidate order) and backward
/// fingers (in list order) agree.
template <typename Overlay>
::testing::AssertionResult same_links(const Overlay& a, const Overlay& b) {
  if (a.num_slots() != b.num_slots())
    return ::testing::AssertionFailure() << "slot counts differ";
  for (NodeIndex i = 0; i < a.num_slots(); ++i) {
    const auto& na = a.node(i);
    const auto& nb = b.node(i);
    if (na.alive != nb.alive)
      return ::testing::AssertionFailure() << "liveness differs at " << i;
    for (std::size_t s = 0; s < na.table.num_entries(); ++s) {
      const auto ca = na.table.entry(s).candidates(a.arena().cands);
      const auto cb = nb.table.entry(s).candidates(b.arena().cands);
      if (!std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()))
        return ::testing::AssertionFailure()
               << "entry " << s << " differs at " << i;
    }
    const auto fa = na.inlinks.fingers(a.arena().fingers);
    const auto fb = nb.inlinks.fingers(b.arena().fingers);
    if (fa.size() != fb.size())
      return ::testing::AssertionFailure() << "indegree differs at " << i;
    for (std::size_t p = 0; p < fa.size(); ++p)
      if (fa[p].node != fb[p].node)
        return ::testing::AssertionFailure() << "fingers differ at " << i;
  }
  return ::testing::AssertionSuccess();
}

template <typename Overlay>
NodeIndex pick_alive(const Overlay& o, Rng& rng) {
  for (;;) {
    const NodeIndex v = rng.index(o.num_slots());
    if (o.node(v).alive) return v;
  }
}

template <typename World>
class ExpansionStreamTest : public ::testing::Test {
 protected:
  using Overlay = typename World::Overlay;

  /// Early stops and lower caps both see a prefix of the full sequence.
  static void expect_prefixes(const Overlay& o, Rng& rng) {
    for (int t = 0; t < 12; ++t) {
      const NodeIndex i = pick_alive(o, rng);
      const std::vector<Target> full = targets(o, i, kAll);
      const std::size_t n = full.size();
      for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, n / 2, n, n + 3}) {
        const std::size_t len = std::min(cut, n);
        const std::vector<Target> prefix(full.begin(),
                                         full.begin() + static_cast<long>(len));
        EXPECT_EQ(targets(o, i, cut), prefix) << "cap " << cut;
        if (cut == 0 || cut > n) continue;
        EXPECT_EQ(targets(o, i, kAll, cut), prefix) << "stop after " << cut;
      }
    }
  }

  /// Grows the same nodes on two identical overlays, one through the
  /// shipped stream and one through the materialised reference, and checks
  /// that both make the same links and end in the same state.
  static void expect_same_growth(Overlay& streamed, Overlay& reference,
                                 Rng& rng, std::size_t* links) {
    for (int t = 0; t < 120; ++t) {
      const NodeIndex i = pick_alive(streamed, rng);
      const int want = 1 + static_cast<int>(rng.index(6));
      const std::size_t probes = std::size_t{4} << (2 * rng.index(3));
      // Room for part or all of `want`, so some walks end on a full budget.
      const int room =
          static_cast<int>(rng.index(static_cast<std::size_t>(want) + 1));
      streamed.mutable_node(i).budget.raise_bound_by(room);
      reference.mutable_node(i).budget.raise_bound_by(room);
      const auto want_links = materialised_expand(reference, i, want, probes);
      const auto got_links = streamed_expand(streamed, i, want, probes);
      EXPECT_EQ(got_links, want_links) << "node " << i << " want " << want;
      *links += got_links.size();
    }
    EXPECT_TRUE(same_links(streamed, reference));
    EXPECT_TRUE(structure_ok(streamed));
  }

  static void run(std::size_t n) {
    Overlay a = World::empty(n);
    Overlay b = World::empty(n);
    Rng join_a(n), join_b(n);
    for (std::size_t k = 0; k < n; ++k) {
      World::join(a, join_a);
      World::join(b, join_b);
    }
    ASSERT_TRUE(same_links(a, b));
    Rng pick(7 * n + 1);
    std::size_t links = 0;
    for (int round = 0; round < 3; ++round) {
      if (round > 0) {
        // Churn both copies identically: joins, graceful leaves and
        // silent failures, whose stale links the enumerators must skip.
        Rng churn_a(round * 1000 + n), churn_b(round * 1000 + n);
        for (int c = 0; c < 24; ++c) {
          const std::size_t op = churn_a.index(3);
          churn_b.index(3);
          if (op == 0 || a.alive_count() < n / 2) {
            World::join(a, churn_a);
            World::join(b, churn_b);
            continue;
          }
          const NodeIndex v = pick_alive(a, churn_a);
          pick_alive(b, churn_b);
          if (op == 1) {
            a.leave_graceful(v);
            b.leave_graceful(v);
          } else {
            a.fail(v);
            b.fail(v);
          }
        }
        ASSERT_TRUE(same_links(a, b));
      }
      expect_prefixes(a, pick);
      expect_same_growth(a, b, pick, &links);
    }
    EXPECT_GT(links, 0u) << "no expansion linked anything";
  }
};

using Worlds = ::testing::Types<CycloidWorld, ChordWorld, PastryWorld,
                                KademliaWorld, D1htWorld, CanWorld>;

class WorldNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if (std::is_same_v<T, CycloidWorld>) return "Cycloid";
    if (std::is_same_v<T, ChordWorld>) return "Chord";
    if (std::is_same_v<T, PastryWorld>) return "Pastry";
    if (std::is_same_v<T, KademliaWorld>) return "Kademlia";
    if (std::is_same_v<T, D1htWorld>) return "D1HT";
    return "CAN";
  }
};

TYPED_TEST_SUITE(ExpansionStreamTest, Worlds, WorldNames);

TYPED_TEST(ExpansionStreamTest, SmallNetwork) { TestFixture::run(64); }

TYPED_TEST(ExpansionStreamTest, LargerNetwork) { TestFixture::run(400); }

}  // namespace
}  // namespace ert
