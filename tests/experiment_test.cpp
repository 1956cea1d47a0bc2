// Integration tests: the full experiment engine across all protocols and
// workloads, on small networks so the suite stays fast.
#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace ert::harness {
namespace {

SimParams small_params() {
  SimParams p;
  p.num_nodes = 256;
  p.dimension = fit_dimension(256);  // 6 -> 384 ids
  p.num_lookups = 400;
  p.lookup_rate = 16.0;
  p.seed = 5;
  return p;
}

class AllProtocolsTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(AllProtocolsTest, CompletesAllLookupsWithSaneMetrics) {
  const auto r = run_experiment(small_params(), GetParam());
  EXPECT_EQ(r.completed_lookups, 400u);
  EXPECT_EQ(r.dropped_lookups, 0u);
  // The drop split is a partition of dropped_lookups, and fault-free runs
  // never touch the fault counters.
  EXPECT_EQ(r.dropped_overload, 0u);
  EXPECT_EQ(r.dropped_fault, 0u);
  EXPECT_EQ(r.faults.timed_out, 0u);
  EXPECT_EQ(r.faults.retried, 0u);
  EXPECT_EQ(r.faults.recovered, 0u);
  EXPECT_EQ(r.faults.crashed_nodes, 0u);
  EXPECT_EQ(r.audit_sweeps, 0u);  // auditor off by default
  EXPECT_GT(r.avg_path_length, 1.0);
  EXPECT_LT(r.avg_path_length, 40.0);
  EXPECT_GT(r.lookup_time.mean, 0.0);
  EXPECT_GE(r.lookup_time.p99, r.lookup_time.p01);
  EXPECT_GT(r.p99_share, 0.0);
  EXPECT_GE(r.p99_max_congestion, 0.0);
  EXPECT_GT(r.max_outdegree.mean, 0.0);
  EXPECT_EQ(r.final_nodes, 256u);
}

TEST_P(AllProtocolsTest, DeterministicForSeed) {
  const auto a = run_experiment(small_params(), GetParam());
  const auto b = run_experiment(small_params(), GetParam());
  EXPECT_DOUBLE_EQ(a.lookup_time.mean, b.lookup_time.mean);
  EXPECT_EQ(a.heavy_encounters, b.heavy_encounters);
  EXPECT_DOUBLE_EQ(a.p99_share, b.p99_share);
}

TEST_P(AllProtocolsTest, SurvivesChurn) {
  SimParams p = small_params();
  p.churn_interarrival = 0.5;
  const auto r = run_experiment(p, GetParam());
  EXPECT_EQ(r.completed_lookups + r.dropped_lookups, 400u);
  // The vast majority of lookups must complete despite churn.
  EXPECT_GT(r.completed_lookups, 390u);
  // Churn losses are routing-capacity drops, never fault-layer ones.
  EXPECT_EQ(r.dropped_overload + r.dropped_fault, r.dropped_lookups);
  EXPECT_EQ(r.dropped_fault, 0u);
}

TEST_P(AllProtocolsTest, SurvivesSkewedImpulse) {
  SimParams p = small_params();
  p.impulse_nodes = 20;
  p.impulse_keys = 10;
  const auto r = run_experiment(p, GetParam());
  EXPECT_EQ(r.completed_lookups, 400u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllProtocolsTest,
    ::testing::Values(Protocol::kBase, Protocol::kNS, Protocol::kVS,
                      Protocol::kErtA, Protocol::kErtF, Protocol::kErtAF),
    [](const auto& info) {
      std::string name{to_string(info.param)};
      for (char& c : name)
        if (c == '/') c = '_';
      return name;
    });

TEST(Experiment, FitDimension) {
  EXPECT_EQ(fit_dimension(1), 3);
  EXPECT_EQ(fit_dimension(24), 3);      // 3 * 8 = 24
  EXPECT_EQ(fit_dimension(25), 4);      // 4 * 16 = 64
  EXPECT_EQ(fit_dimension(2048), 8);    // the paper's network
  EXPECT_EQ(fit_dimension(2049), 9);
}

TEST(Experiment, RefusesAWorkloadSpanBeyondAMillionPeriods) {
  SimParams p;
  p.num_nodes = 64;
  p.num_lookups = 3;
  p.lookup_rate = 1e-300;
  EXPECT_NE(p.validate(), "");
  EXPECT_THROW(run_experiment(p, Protocol::kErtAF), std::invalid_argument);
  EXPECT_THROW(run_build_only(p, Protocol::kErtAF, SubstrateKind::kCycloid),
               std::invalid_argument);
  p.lookup_rate = 3e-6;  // a span of exactly 1e6 periods still runs
  EXPECT_EQ(p.validate(), "");
}

TEST(Experiment, ErtReducesShareSkewVsBase) {
  // The paper's central load-balance claim, on the small network.
  SimParams p = small_params();
  p.num_lookups = 800;
  const auto base = run_averaged(p, Protocol::kBase, 3);
  const auto ert = run_averaged(p, Protocol::kErtAF, 3);
  EXPECT_LT(ert.p99_share, base.p99_share);
}

TEST(Experiment, ErtReducesHeavyEncountersVsBase) {
  SimParams p = small_params();
  p.num_lookups = 800;
  const auto base = run_averaged(p, Protocol::kBase, 3);
  const auto ert = run_averaged(p, Protocol::kErtAF, 3);
  EXPECT_LE(ert.heavy_encounters, base.heavy_encounters);
}

TEST(Experiment, VsHasLongerPathsThanBase) {
  // Godfrey-Stoica virtual servers inflate the overlay (Fig. 5b).
  SimParams p = small_params();
  const auto base = run_experiment(p, Protocol::kBase);
  const auto vs = run_experiment(p, Protocol::kVS);
  EXPECT_GT(vs.avg_path_length, base.avg_path_length);
}

TEST(Experiment, VsHasLargerDegreesThanErt) {
  // Fig. 7: VS pays much more maintenance than ERT.
  SimParams p = small_params();
  const auto vs = run_experiment(p, Protocol::kVS);
  const auto ert = run_experiment(p, Protocol::kErtAF);
  EXPECT_GT(vs.max_outdegree.p99, ert.max_outdegree.p99);
}

TEST(Experiment, ErtTimeoutsLowerUnderChurn) {
  // Sec. 5.5: elastic entries substitute for departed neighbors.
  SimParams p = small_params();
  p.churn_interarrival = 0.4;
  p.num_lookups = 800;
  const auto base = run_averaged(p, Protocol::kBase, 3);
  const auto ert = run_averaged(p, Protocol::kErtAF, 3);
  EXPECT_LT(ert.avg_timeouts, base.avg_timeouts);
}

TEST(Experiment, RunAveragedAveragesScalars) {
  SimParams p = small_params();
  p.num_lookups = 200;
  const auto one = run_experiment(p, Protocol::kBase);
  SimParams p2 = p;
  p2.seed = p.seed + 1;
  const auto two = run_experiment(p2, Protocol::kBase);
  const auto avg = run_averaged(p, Protocol::kBase, 2);
  EXPECT_NEAR(avg.p99_share, (one.p99_share + two.p99_share) / 2, 1e-9);
  EXPECT_NEAR(avg.lookup_time.mean,
              (one.lookup_time.mean + two.lookup_time.mean) / 2, 1e-9);
}

TEST(Experiment, RunAveragedBitIdenticalAcrossThreadCounts) {
  // The seed fan-out reduces sequentially in seed order after all runs
  // finish, so the thread count must not change a single bit of the
  // aggregate (even oversubscribed on one core).
  SimParams p = small_params();
  p.num_lookups = 200;
  const auto one =
      run_averaged(p, Protocol::kErtAF, 4, SubstrateKind::kCycloid, 1);
  const auto four =
      run_averaged(p, Protocol::kErtAF, 4, SubstrateKind::kCycloid, 4);
  EXPECT_EQ(one.p99_max_congestion, four.p99_max_congestion);
  EXPECT_EQ(one.mean_max_congestion, four.mean_max_congestion);
  EXPECT_EQ(one.p99_share, four.p99_share);
  EXPECT_EQ(one.heavy_encounters, four.heavy_encounters);
  EXPECT_EQ(one.avg_path_length, four.avg_path_length);
  EXPECT_EQ(one.lookup_time.mean, four.lookup_time.mean);
  EXPECT_EQ(one.lookup_time.p01, four.lookup_time.p01);
  EXPECT_EQ(one.lookup_time.p99, four.lookup_time.p99);
  EXPECT_EQ(one.avg_timeouts, four.avg_timeouts);
  EXPECT_EQ(one.max_indegree.mean, four.max_indegree.mean);
  EXPECT_EQ(one.max_outdegree.p99, four.max_outdegree.p99);
  EXPECT_EQ(one.completed_lookups, four.completed_lookups);
  EXPECT_EQ(one.dropped_lookups, four.dropped_lookups);
  EXPECT_EQ(one.sim_duration, four.sim_duration);
  EXPECT_EQ(one.final_nodes, four.final_nodes);
}

TEST(Experiment, RunAveragedRoundsCountersOnce) {
  // Counters accumulate in double and round at the end: three seeds of
  // 200 completed lookups each must average to exactly 200, not the
  // 66*3 = 198 that per-seed integer division produced.
  SimParams p = small_params();
  p.num_lookups = 200;
  const auto avg = run_averaged(p, Protocol::kBase, 3);
  EXPECT_EQ(avg.completed_lookups, 200u);
  double heavy = 0.0;
  for (int s = 0; s < 3; ++s) {
    SimParams ps = p;
    ps.seed = p.seed + static_cast<std::uint64_t>(s);
    heavy += static_cast<double>(
        run_experiment(ps, Protocol::kBase).heavy_encounters);
  }
  EXPECT_EQ(avg.heavy_encounters,
            static_cast<std::size_t>(std::llround(heavy / 3.0)));
}

TEST(Experiment, RunSweepMatchesRunAveragedPerJob) {
  SimParams p = small_params();
  p.num_lookups = 200;
  std::vector<SweepJob> jobs(2);
  jobs[0].params = p;
  jobs[0].protocol = Protocol::kBase;
  jobs[0].seeds = 2;
  jobs[1].params = p;
  jobs[1].protocol = Protocol::kErtAF;
  jobs[1].seeds = 2;
  const auto sweep = run_sweep(jobs);
  ASSERT_EQ(sweep.size(), 2u);
  const auto base = run_averaged(p, Protocol::kBase, 2);
  const auto ert = run_averaged(p, Protocol::kErtAF, 2);
  EXPECT_EQ(sweep[0].p99_share, base.p99_share);
  EXPECT_EQ(sweep[0].heavy_encounters, base.heavy_encounters);
  EXPECT_EQ(sweep[1].p99_share, ert.p99_share);
  EXPECT_EQ(sweep[1].lookup_time.mean, ert.lookup_time.mean);
}

TEST(Experiment, ProbeCostChargedForForwarding) {
  SimParams p = small_params();
  p.probe_cost = 0.05;
  const auto with = run_experiment(p, Protocol::kErtAF);
  p.probe_cost = 0.0;
  const auto without = run_experiment(p, Protocol::kErtAF);
  EXPECT_GT(with.lookup_time.mean, without.lookup_time.mean);
}

TEST(Experiment, ZipfWorkloadRuns) {
  SimParams p = small_params();
  p.zipf_catalog = 50;
  p.zipf_exponent = 1.0;
  const auto r = run_experiment(p, Protocol::kErtAF);
  EXPECT_EQ(r.completed_lookups, 400u);
  // Skewed keys concentrate load: share skew must exceed uniform's.
  SimParams u = small_params();
  const auto uni = run_experiment(u, Protocol::kErtAF);
  EXPECT_GT(r.p99_share, uni.p99_share);
}

TEST(Experiment, ZipfDriftReshufflesHotSet) {
  SimParams p = small_params();
  p.num_lookups = 600;
  p.zipf_catalog = 50;
  p.zipf_exponent = 1.2;
  p.zipf_drift_period = 5.0;
  const auto r = run_experiment(p, Protocol::kErtA);
  EXPECT_EQ(r.completed_lookups, 600u);
}

TEST(Experiment, TimelineTracing) {
  SimParams p = small_params();
  p.trace_timeline = true;
  const auto r = run_experiment(p, Protocol::kErtA);
  ASSERT_FALSE(r.timeline.empty());
  // One sample per adaptation period, covering the issue window (400
  // lookups at 16/s ~ 25 s) plus drain.
  EXPECT_GT(r.timeline.size(), 10u);
  double prev = 0.0;
  for (const auto& s : r.timeline) {
    EXPECT_GT(s.time, prev);
    prev = s.time;
    // Note p99 can sit below the mean when fewer than 1% of nodes carry
    // all the queueing (nearest-rank percentile vs heavy-tailed mean).
    EXPECT_GE(s.p99_congestion, 0.0);
    EXPECT_GE(s.mean_congestion, 0.0);
    EXPECT_GT(s.mean_indegree, 0.0);
  }
  // Tracing off -> no samples.
  p.trace_timeline = false;
  EXPECT_TRUE(run_experiment(p, Protocol::kErtA).timeline.empty());
}

TEST(Experiment, TimelineSamplingDoesNotExtendSimDuration) {
  // The timeline chain's pending sample is cancelled when the workload
  // settles (like the auditor's pending sweep), so turning the sampler on
  // must not push the simulated clock past the last workload event. Base
  // has no other periodic chain, so any extension would show here.
  for (const auto proto : {Protocol::kBase, Protocol::kVS, Protocol::kErtAF}) {
    SimParams p = small_params();
    p.trace_timeline = false;
    const auto off = run_experiment(p, proto);
    p.trace_timeline = true;
    const auto on = run_experiment(p, proto);
    EXPECT_EQ(off.sim_duration, on.sim_duration) << to_string(proto);
    EXPECT_EQ(off.lookup_time.mean, on.lookup_time.mean) << to_string(proto);
    EXPECT_EQ(off.completed_lookups, on.completed_lookups);
    EXPECT_FALSE(on.timeline.empty());
  }
}

TEST(Experiment, StructuredTracerOnOffBitIdentical) {
  // ExperimentOptions::trace observes only: every scalar in the result —
  // sim_duration included — must match the tracer-off run exactly, on a
  // churned and faulted run where any extra event or Rng draw would skew.
  SimParams p = small_params();
  p.num_lookups = 200;
  p.churn_interarrival = 1.0;
  ExperimentOptions off;
  off.faults.drop_prob = 0.01;
  ExperimentOptions on = off;
  on.trace.enabled = true;
  const auto a = run_experiment(p, Protocol::kErtAF,
                                SubstrateKind::kCycloid, off);
  const auto b = run_experiment(p, Protocol::kErtAF,
                                SubstrateKind::kCycloid, on);
  EXPECT_EQ(a.p99_max_congestion, b.p99_max_congestion);
  EXPECT_EQ(a.p99_share, b.p99_share);
  EXPECT_EQ(a.heavy_encounters, b.heavy_encounters);
  EXPECT_EQ(a.avg_path_length, b.avg_path_length);
  EXPECT_EQ(a.lookup_time.mean, b.lookup_time.mean);
  EXPECT_EQ(a.avg_timeouts, b.avg_timeouts);
  EXPECT_EQ(a.completed_lookups, b.completed_lookups);
  EXPECT_EQ(a.dropped_lookups, b.dropped_lookups);
  EXPECT_EQ(a.faults.timed_out, b.faults.timed_out);
  EXPECT_EQ(a.sim_duration, b.sim_duration);
  EXPECT_EQ(a.final_nodes, b.final_nodes);
  EXPECT_EQ(a.trace_emitted, 0u);
  EXPECT_GT(b.trace_emitted, 0u);
}

TEST(Experiment, QueueCapShedsOverloadAndSettlesEverything) {
  // A tight ingress cap under a burst: arrivals beyond the cap are shed
  // as overload drops, every issued lookup still settles, and the drop
  // split stays clean (no fault-layer losses on a fault-free run).
  SimParams p = small_params();
  p.lookup_rate = 4000.0;  // the whole workload injects in ~0.1 s
  p.queue_cap = 2;
  const auto r = run_experiment(p, Protocol::kErtAF);
  EXPECT_EQ(r.completed_lookups + r.dropped_lookups, 400u);
  EXPECT_GT(r.dropped_lookups, 0u);
  EXPECT_EQ(r.dropped_overload, r.dropped_lookups);
  EXPECT_EQ(r.dropped_fault, 0u);
}

TEST(Experiment, QueueCapLooseEnoughIsBitIdenticalToUnbounded) {
  // The cap check consumes no randomness and fires only when a queue
  // actually reaches the bound, so a cap no queue ever hits must leave
  // every result scalar untouched — the guarantee that lets every
  // calibrated (uncapped) figure config stay bit-identical.
  SimParams p = small_params();
  p.churn_interarrival = 0.5;
  const auto unbounded = run_experiment(p, Protocol::kErtAF);
  p.queue_cap = std::size_t{1} << 30;
  const auto capped = run_experiment(p, Protocol::kErtAF);
  EXPECT_EQ(unbounded.completed_lookups, capped.completed_lookups);
  EXPECT_EQ(unbounded.dropped_lookups, capped.dropped_lookups);
  EXPECT_EQ(unbounded.heavy_encounters, capped.heavy_encounters);
  EXPECT_EQ(unbounded.lookup_time.mean, capped.lookup_time.mean);
  EXPECT_EQ(unbounded.p99_max_congestion, capped.p99_max_congestion);
  EXPECT_EQ(unbounded.p99_share, capped.p99_share);
  EXPECT_EQ(unbounded.sim_duration, capped.sim_duration);
}

TEST(Experiment, AdaptationGrowsIndegreesOverTime) {
  SimParams p = small_params();
  p.trace_timeline = true;
  p.num_lookups = 800;
  const auto r = run_experiment(p, Protocol::kErtA);
  ASSERT_GT(r.timeline.size(), 4u);
  // Underloaded nodes keep inviting load: mean indegree rises from the
  // initial beta*d_inf assignment toward the structural limit.
  EXPECT_GT(r.timeline.back().mean_indegree,
            r.timeline.front().mean_indegree);
}

/// FNV-1a over the bit patterns of a run's model outputs, so an equal
/// digest means bit-equal doubles and equal counters.
std::uint64_t metrics_digest(const ExperimentResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (double v : {r.p99_max_congestion, r.mean_max_congestion,
                   r.min_cap_node_congestion, r.p99_share, r.avg_path_length,
                   r.lookup_time.mean, r.lookup_time.p01, r.lookup_time.p99,
                   r.avg_timeouts, r.max_indegree.mean, r.max_indegree.p99,
                   r.max_outdegree.mean, r.max_outdegree.p99,
                   r.sim_duration}) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  for (std::size_t v :
       {r.heavy_encounters, r.completed_lookups, r.dropped_lookups,
        r.final_nodes, r.adapt_sheds, r.adapt_grows})
    add(static_cast<std::uint64_t>(v));
  return h;
}

// The Table-2 run itself (Cycloid, n = 2048, ERT/AF, 3000 lookups): the
// goldens run at n <= 64, where no entry grows wide and no shed moves more
// than one link. Here Algorithm 3 widens indegrees past 250, so multi-link
// sheds, long expansion walks and wide descend entries all decide the
// outcome, and any change to their order moves the digest.
TEST(Experiment, PaperScaleErtAfRunIsPinned) {
  SimParams p;
  p.seed = 42;
  const auto r = run_experiment(p, Protocol::kErtAF);
  EXPECT_EQ(r.completed_lookups, 3000u);
  EXPECT_EQ(r.dropped_lookups, 0u);
  EXPECT_EQ(r.adapt_sheds, 48952u);
  EXPECT_EQ(r.adapt_grows, 196244u);
  EXPECT_EQ(r.max_indegree.p99, 276.0);
  EXPECT_EQ(metrics_digest(r), 0xe6f085cbb7a757efULL)
      << std::hex << metrics_digest(r);
}

TEST(Experiment, PollSizeOneDegradesForwarding) {
  SimParams p = small_params();
  p.num_lookups = 800;
  p.poll_size = 1;
  const auto b1 = run_averaged(p, Protocol::kErtAF, 3);
  p.poll_size = 2;
  const auto b2 = run_averaged(p, Protocol::kErtAF, 3);
  // b=1 cannot react to load at all; b=2 must not be worse on heavy hits.
  EXPECT_LE(b2.heavy_encounters, b1.heavy_encounters + 5);
}

}  // namespace
}  // namespace ert::harness
