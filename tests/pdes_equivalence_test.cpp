// Statistical-equivalence gate for the sharded PDES engine (ISSUE 9
// satellite 4). The sharded engine is NOT bit-identical to the serial one
// (per-shard Rng streams replace the single workload stream), so its
// correctness contract is statistical: at --sim-threads 4 the analytical
// model check of ISSUE 7 must still pass with the same pinned Kolmogorov
// tolerances, ERT/AF runs must come through the invariant auditor with
// zero violations, and headline metrics must sit inside pinned delta
// bands of the serial engine's values. Chord and Kademlia, n = 2048 and
// n = 2^14, matching tests/model_check_test.cpp's serial coverage.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "harness/experiment.h"
#include "harness/model_check.h"
#include "harness/pdes_engine.h"

namespace ert::harness {
namespace {

constexpr int kSimThreads = 4;

SimParams sharded_params(std::size_t nodes, std::size_t lookups,
                         std::uint64_t seed) {
  SimParams p;
  p.num_nodes = nodes;
  p.num_lookups = lookups;
  p.lookup_rate = 64.0;
  p.seed = seed;
  p.sim_threads = kSimThreads;
  return p;
}

void expect_model_pass(SubstrateKind kind, std::size_t nodes,
                       std::uint64_t seed) {
  const SimParams p = sharded_params(nodes, 20000, seed);
  ASSERT_EQ(pdes_supported(p, Protocol::kBase, kind, ExperimentOptions{}), "")
      << "model check would silently fall back to the serial engine";
  const auto r = model_check(kind, p);
  std::printf(
      "[pdes model-check] %s n=%zu sim-threads=%d: sup_dev=%.4f (tol "
      "%.2f), mean hops emp=%.3f pred=%.3f, load_total=%zu\n",
      to_string(kind), r.nodes, kSimThreads, r.sup_deviation, r.tolerance,
      r.mean_hops_empirical, r.mean_hops_predicted, r.load_total);
  EXPECT_EQ(r.lookups, 20000u);
  EXPECT_LE(r.sup_deviation, r.tolerance);
  EXPECT_TRUE(r.pass);
  // Load conservation: arrivals reconstructed from the concatenated
  // per-shard traces must account for every hop of every lookup.
  EXPECT_NEAR(static_cast<double>(r.load_total),
              r.mean_hops_empirical * 20000.0, 2.0);
}

TEST(PdesModelCheck, ChordAt2048) {
  expect_model_pass(SubstrateKind::kChord, 2048, 91);
}

TEST(PdesModelCheck, ChordAt16k) {
  expect_model_pass(SubstrateKind::kChord, std::size_t{1} << 14, 92);
}

TEST(PdesModelCheck, KademliaAt2048) {
  expect_model_pass(SubstrateKind::kKademlia, 2048, 93);
}

TEST(PdesModelCheck, KademliaAt16k) {
  expect_model_pass(SubstrateKind::kKademlia, std::size_t{1} << 14, 94);
}

void expect_audit_clean(SubstrateKind kind) {
  SimParams p = sharded_params(2048, 6000, 95);
  p.lookup_rate = 16.0;
  ExperimentOptions opt;
  opt.audit.enabled = true;
  ASSERT_EQ(pdes_supported(p, Protocol::kErtAF, kind, opt), "");
  const auto r = run_experiment(p, Protocol::kErtAF, kind, opt);
  EXPECT_EQ(r.completed_lookups, 6000u);
  EXPECT_EQ(r.dropped_lookups, 0u);
  EXPECT_GT(r.audit_sweeps, 0u);
  EXPECT_EQ(r.audit_violations, 0u)
      << "sharded ERT/AF run violated a structural invariant on "
      << to_string(kind);
}

TEST(PdesAudit, ErtAfCleanOnChord) {
  expect_audit_clean(SubstrateKind::kChord);
}

TEST(PdesAudit, ErtAfCleanOnKademlia) {
  expect_audit_clean(SubstrateKind::kKademlia);
}

/// |a - b| as a fraction of the serial value.
double rel_delta(double serial, double sharded) {
  if (serial == 0.0) return std::abs(sharded);
  return std::abs(sharded - serial) / std::abs(serial);
}

void expect_metric_bands(SubstrateKind kind) {
  SimParams p = sharded_params(2048, 6000, 96);
  p.lookup_rate = 16.0;
  SimParams serial_p = p;
  serial_p.sim_threads = 1;
  const auto serial = run_experiment(serial_p, Protocol::kErtAF, kind);
  const auto sharded = run_experiment(p, Protocol::kErtAF, kind);
  std::printf(
      "[pdes delta] %s: path %.3f/%.3f cong(p99) %.1f/%.1f cong(mean) "
      "%.1f/%.1f dur %.1f/%.1f\n",
      to_string(kind), serial.avg_path_length, sharded.avg_path_length,
      serial.p99_max_congestion, sharded.p99_max_congestion,
      serial.mean_max_congestion, sharded.mean_max_congestion,
      serial.sim_duration, sharded.sim_duration);

  EXPECT_EQ(sharded.completed_lookups, serial.completed_lookups);
  EXPECT_EQ(sharded.dropped_lookups, 0u);
  // Pinned delta bands, calibrated with ~2x headroom over the deltas
  // observed across seeds (path length differed by ~1%, congestion
  // percentiles by a few percent). A band breach means the sharded engine
  // drifted from the serial semantics, not ordinary sampling noise.
  EXPECT_LE(rel_delta(serial.avg_path_length, sharded.avg_path_length), 0.08);
  EXPECT_LE(
      rel_delta(serial.mean_max_congestion, sharded.mean_max_congestion),
      0.25);
  EXPECT_LE(rel_delta(serial.p99_max_congestion, sharded.p99_max_congestion),
            0.35);
  EXPECT_LE(sharded.avg_timeouts, 1e-9);  // churn-free: no timeouts at all
  // Windowed termination adds at most a few barriers of slack to the
  // measured duration; it must never run shorter than the serial engine
  // by more than the same sampling-noise band.
  EXPECT_LE(rel_delta(serial.sim_duration, sharded.sim_duration), 0.50);
}

TEST(PdesDelta, ErtAfBandsOnChord) {
  expect_metric_bands(SubstrateKind::kChord);
}

TEST(PdesDelta, ErtAfBandsOnKademlia) {
  expect_metric_bands(SubstrateKind::kKademlia);
}

/// pdes_supported names its refusal; each case flips exactly one input of a
/// run the sharded transport otherwise accepts.
std::string refusal(SimParams p, Protocol proto, ExperimentOptions o) {
  return pdes_supported(p, proto, SubstrateKind::kCycloid, o);
}

TEST(PdesRefusal, AcceptsThePlainRun) {
  EXPECT_EQ(refusal(sharded_params(64, 100, 1), Protocol::kErtAF, {}), "");
}

TEST(PdesRefusal, VirtualServers) {
  EXPECT_EQ(refusal(sharded_params(64, 100, 1), Protocol::kVS, {}),
            "virtual servers");
}

TEST(PdesRefusal, ImpulseWorkload) {
  SimParams p = sharded_params(64, 100, 1);
  p.impulse_nodes = 8;
  p.impulse_keys = 4;
  EXPECT_EQ(refusal(p, Protocol::kErtAF, {}), "impulse workload");
}

TEST(PdesRefusal, Scenario) {
  ExperimentOptions o;
  scenario::Phase flash;
  flash.type = scenario::PhaseType::kFlash;
  flash.start = 1.0;
  flash.end = 2.0;
  flash.multiplier = 4.0;
  o.scenario.phases.push_back(flash);
  ASSERT_FALSE(o.scenario.inert());
  EXPECT_EQ(refusal(sharded_params(64, 100, 1), Protocol::kErtAF, o),
            "scenario");
}

TEST(PdesRefusal, MessageDuplication) {
  ExperimentOptions o;
  o.faults.dup_prob = 0.01;
  EXPECT_EQ(refusal(sharded_params(64, 100, 1), Protocol::kErtAF, o),
            "message duplication");
}

TEST(PdesRefusal, FewerThanEightNodesPerShard) {
  EXPECT_EQ(refusal(sharded_params(8 * kSimThreads - 1, 100, 1),
                    Protocol::kErtAF, {}),
            "fewer than 8 nodes per shard");
  EXPECT_EQ(refusal(sharded_params(8 * kSimThreads, 100, 1),
                    Protocol::kErtAF, {}),
            "");
}

}  // namespace
}  // namespace ert::harness
