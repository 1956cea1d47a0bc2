#include "ert/forwarding.h"

#include <gtest/gtest.h>

#include <map>

namespace ert::core {
namespace {

using dht::NodeIndex;

/// Probe backed by a load map; counts probes issued.
struct FakeProbe {
  std::map<NodeIndex, ProbeResult> results;
  mutable int calls = 0;

  ProbeFn fn() const {
    return [this](NodeIndex n) {
      ++calls;
      auto it = results.find(n);
      return it != results.end() ? it->second : ProbeResult{};
    };
  }
};

class TopoForwardTest : public ::testing::Test {
 protected:
  TopoForwardTest() : entry_(dht::EntryKind::kCubical) {
    for (NodeIndex n : {1, 2, 3}) entry_.add(pool_, n);
  }
  dht::CandPool pool_;
  dht::RoutingEntry entry_;
  TopoForwardOptions opts_;
  Rng rng_{7};
};

TEST_F(TopoForwardTest, BothLightPrefersLogicallyCloser) {
  FakeProbe p;
  p.results[1] = {0.1, false, 100, 0.1};
  p.results[2] = {0.1, false, 5, 0.9};
  p.results[3] = {0.1, false, 50, 0.5};
  opts_.use_memory = false;
  for (int t = 0; t < 20; ++t) {
    const auto d =
        forward_topology_aware(entry_, {1, 2, 3}, {}, opts_, p.fn(), rng_);
    // Whatever pair was polled, node 2 wins when included; otherwise the
    // closer of the two polled wins — never the logically farthest of a pair.
    EXPECT_NE(d.next, dht::kNoNode);
    EXPECT_TRUE(d.newly_overloaded.empty());
  }
}

TEST_F(TopoForwardTest, PhysicalBreaksLogicalTie) {
  FakeProbe p;
  p.results[1] = {0.1, false, 10, 0.9};
  p.results[2] = {0.1, false, 10, 0.1};
  opts_.use_memory = false;
  const auto d =
      forward_topology_aware(entry_, {1, 2}, {}, opts_, p.fn(), rng_);
  EXPECT_EQ(d.next, 2u);
}

TEST_F(TopoForwardTest, MixedForwardsToLightRecordsHeavy) {
  FakeProbe p;
  p.results[1] = {5.0, true, 1, 0};
  p.results[2] = {0.1, false, 99, 0};
  const auto d =
      forward_topology_aware(entry_, {1, 2}, {}, opts_, p.fn(), rng_);
  EXPECT_EQ(d.next, 2u);
  ASSERT_EQ(d.newly_overloaded.size(), 1u);
  EXPECT_EQ(d.newly_overloaded[0], 1u);
}

TEST_F(TopoForwardTest, AllHeavyTakesLeastLoadedRecordsBoth) {
  FakeProbe p;
  p.results[1] = {5.0, true, 0, 0};
  p.results[2] = {2.0, true, 0, 0};
  const auto d =
      forward_topology_aware(entry_, {1, 2}, {}, opts_, p.fn(), rng_);
  EXPECT_EQ(d.next, 2u);
  EXPECT_EQ(d.newly_overloaded.size(), 2u);
}

TEST_F(TopoForwardTest, ExcludesKnownOverloaded) {
  FakeProbe p;
  p.results[2] = {0.1, false, 0, 0};
  p.results[3] = {0.1, false, 0, 0};
  for (int t = 0; t < 20; ++t) {
    const auto d =
        forward_topology_aware(entry_, {1, 2, 3}, {1}, opts_, p.fn(), rng_);
    EXPECT_NE(d.next, 1u);
  }
}

TEST_F(TopoForwardTest, FallsBackWhenAllKnownOverloaded) {
  FakeProbe p;
  p.results[1] = {5.0, true, 0, 0};
  p.results[2] = {6.0, true, 0, 0};
  p.results[3] = {7.0, true, 0, 0};
  const auto d = forward_topology_aware(entry_, {1, 2, 3}, {1, 2, 3}, opts_,
                                        p.fn(), rng_);
  EXPECT_NE(d.next, dht::kNoNode);  // still forwards somewhere
}

TEST_F(TopoForwardTest, MemoryReducesPollToOneFresh) {
  FakeProbe p;
  p.results[1] = {0.5, false, 10, 0, 0.1};
  p.results[2] = {0.1, false, 10, 0, 0.1};
  p.results[3] = {0.9, false, 10, 0, 0.1};
  opts_.use_memory = true;
  entry_.remember(2);
  const auto d =
      forward_topology_aware(entry_, {1, 2, 3}, {}, opts_, p.fn(), rng_);
  EXPECT_EQ(d.probes, 2);  // remembered + 1 fresh
  EXPECT_NE(d.next, dht::kNoNode);
}

TEST_F(TopoForwardTest, MemoryUpdatedToLeastLoadedAfterDispatch) {
  FakeProbe p;
  // unit_load 10 means the chosen node's load jumps heavily after dispatch.
  p.results[1] = {0.1, false, 5, 0, 10.0};
  p.results[2] = {0.2, false, 50, 0, 10.0};
  opts_.use_memory = true;
  entry_.forget();
  const auto d =
      forward_topology_aware(entry_, {1, 2}, {}, opts_, p.fn(), rng_);
  EXPECT_EQ(d.next, 1u);          // logically closer and light
  EXPECT_EQ(entry_.memory(), 2u);  // 1's post-dispatch load exceeds 2's
}

TEST_F(TopoForwardTest, StaleMemoryOutsideCandidatesIgnored) {
  FakeProbe p;
  p.results[1] = {0.1, false, 0, 0};
  p.results[2] = {0.1, false, 0, 0};
  entry_.remember(42);  // not in the candidate set
  opts_.use_memory = true;
  const auto d =
      forward_topology_aware(entry_, {1, 2}, {}, opts_, p.fn(), rng_);
  EXPECT_TRUE(d.next == 1 || d.next == 2);
}

TEST_F(TopoForwardTest, SingleCandidate) {
  FakeProbe p;
  p.results[1] = {5.0, true, 0, 0};
  const auto d = forward_topology_aware(entry_, {1}, {}, opts_, p.fn(), rng_);
  EXPECT_EQ(d.next, 1u);
}

TEST_F(TopoForwardTest, EmptyCandidates) {
  FakeProbe p;
  const auto d = forward_topology_aware(entry_, {}, {}, opts_, p.fn(), rng_);
  EXPECT_EQ(d.next, dht::kNoNode);
}

}  // namespace
}  // namespace ert::core
