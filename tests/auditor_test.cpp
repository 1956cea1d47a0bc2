// Continuous invariant auditing: the full protocol x substrate matrix must
// be violation-free fault-free, the sweep must never perturb results, and
// the auditor must stay clean through injected faults once crashed nodes
// are out of the live set.
#include "harness/auditor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "scenario/scenario.h"

namespace ert::harness {
namespace {

SimParams small_params() {
  SimParams p;
  p.num_nodes = 256;
  p.dimension = fit_dimension(256);
  p.num_lookups = 400;
  p.lookup_rate = 16.0;
  p.seed = 5;
  return p;
}

std::string violations_text(const ExperimentResult& r) {
  std::string out;
  for (const auto& v : r.audit_records) {
    out += to_string(v);
    out += '\n';
  }
  return out;
}

// --- auditor unit behavior ---------------------------------------------------

TEST(InvariantAuditorUnit, ExpectationsRecordViolations) {
  AuditorOptions opts;
  opts.enabled = true;
  InvariantAuditor a(opts);
  a.begin_sweep(3.0);
  a.expect_le("indegree.bound", 7, 5.0, 9.0);   // holds
  a.expect_le("indegree.bound", 7, 12.0, 9.0);  // violated
  a.expect_eq("queue.consistency", 2, 4.0, 4.0);  // holds
  a.expect_eq("queue.consistency", 2, 4.0, 5.0);  // violated
  EXPECT_EQ(a.sweeps(), 1u);
  EXPECT_EQ(a.total_violations(), 2u);
  EXPECT_FALSE(a.clean());
  ASSERT_EQ(a.records().size(), 2u);
  EXPECT_EQ(a.records()[0].invariant, "indegree.bound");
  EXPECT_EQ(a.records()[0].time, 3.0);
  EXPECT_EQ(a.records()[0].node, 7u);
  const std::string s = to_string(a.records()[0]);
  EXPECT_NE(s.find("indegree.bound"), std::string::npos);
  EXPECT_NE(s.find("node=7"), std::string::npos);
}

TEST(InvariantAuditorUnit, RecordCapKeepsCounting) {
  AuditorOptions opts;
  opts.enabled = true;
  opts.max_records = 4;
  InvariantAuditor a(opts);
  a.begin_sweep(0.0);
  for (int i = 0; i < 10; ++i) a.report("theorem3.2", i, 2.0, 1.0, "");
  EXPECT_EQ(a.records().size(), 4u);
  EXPECT_EQ(a.total_violations(), 10u);
}

// --- sampled auditing (scale mode) -------------------------------------------

TEST(InvariantAuditorUnit, SamplePopulationIsSortedDistinctAndSeeded) {
  AuditorOptions opts;
  opts.enabled = true;
  opts.sample = 8;
  InvariantAuditor a(opts, /*seed=*/7);
  const auto* s = a.sample_population(100);
  ASSERT_NE(s, nullptr);
  const std::vector<std::uint32_t> first = *s;
  EXPECT_EQ(first.size(), 8u);
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
  EXPECT_EQ(std::adjacent_find(first.begin(), first.end()), first.end());
  for (const std::uint32_t v : first) EXPECT_LT(v, 100u);
  // Same seed reproduces the same draw sequence.
  InvariantAuditor b(opts, /*seed=*/7);
  EXPECT_EQ(*b.sample_population(100), first);
  // A fresh call advances the sequence rather than repeating it forever.
  const auto* s2 = a.sample_population(100);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(*s2, *b.sample_population(100));
}

TEST(InvariantAuditorUnit, SamplingOffOrSmallPopulationAuditsEverything) {
  AuditorOptions all;
  all.enabled = true;
  InvariantAuditor a(all);
  EXPECT_EQ(a.sample_population(100), nullptr);  // sample == 0: audit all
  AuditorOptions some;
  some.enabled = true;
  some.sample = 50;
  InvariantAuditor b(some, 1);
  EXPECT_EQ(b.sample_population(50), nullptr);  // k >= population: audit all
  EXPECT_NE(b.sample_population(51), nullptr);
}

TEST(SampledAudit, NeverPerturbsResultsAndStaysClean) {
  ExperimentOptions sampled;
  sampled.audit.enabled = true;
  sampled.audit.sample = 16;
  const auto s = run_experiment(small_params(), Protocol::kErtAF,
                                SubstrateKind::kCycloid, sampled);
  const auto plain =
      run_experiment(small_params(), Protocol::kErtAF, SubstrateKind::kCycloid);
  EXPECT_EQ(s.lookup_time.mean, plain.lookup_time.mean);
  EXPECT_EQ(s.p99_share, plain.p99_share);
  EXPECT_EQ(s.heavy_encounters, plain.heavy_encounters);
  EXPECT_EQ(s.completed_lookups, plain.completed_lookups);
  EXPECT_EQ(s.sim_duration, plain.sim_duration);
  EXPECT_GT(s.audit_sweeps, 10u);
  EXPECT_EQ(s.audit_violations, 0u) << violations_text(s);
}

TEST(SampledAudit, DeterministicAcrossRunsAndThreadCounts) {
  // The sampler draws from its own Rng (never the simulation's), so a
  // sampled audit must reproduce exactly: same sweeps, same violations,
  // same metrics, whatever the worker thread count.
  SimParams p = small_params();
  p.churn_interarrival = 0.5;  // repair paths under sampling
  ExperimentOptions sampled;
  sampled.audit.enabled = true;
  sampled.audit.sample = 8;
  const auto one = run_averaged(p, Protocol::kErtAF, 3,
                                SubstrateKind::kCycloid, /*threads=*/1,
                                sampled);
  const auto four = run_averaged(p, Protocol::kErtAF, 3,
                                 SubstrateKind::kCycloid, /*threads=*/4,
                                 sampled);
  EXPECT_EQ(one.audit_sweeps, four.audit_sweeps);
  EXPECT_EQ(one.audit_violations, four.audit_violations);
  EXPECT_EQ(one.lookup_time.mean, four.lookup_time.mean);
  EXPECT_EQ(one.completed_lookups, four.completed_lookups);
  EXPECT_EQ(violations_text(one), violations_text(four));
  const auto again = run_averaged(p, Protocol::kErtAF, 3,
                                  SubstrateKind::kCycloid, /*threads=*/1,
                                  sampled);
  EXPECT_EQ(one.audit_sweeps, again.audit_sweeps);
  EXPECT_EQ(one.audit_violations, again.audit_violations);
}

// --- full-matrix fault-free sweeps ------------------------------------------

struct Case {
  Protocol protocol;
  SubstrateKind substrate;
};

class AuditMatrixTest : public ::testing::TestWithParam<Case> {};

TEST_P(AuditMatrixTest, FaultFreeRunIsViolationFree) {
  const Case c = GetParam();
  ExperimentOptions opts;
  opts.audit.enabled = true;
  const auto r = run_experiment(small_params(), c.protocol, c.substrate, opts);
  EXPECT_EQ(r.completed_lookups, 400u);
  EXPECT_GT(r.audit_sweeps, 10u);
  EXPECT_EQ(r.audit_violations, 0u) << violations_text(r);
  EXPECT_TRUE(r.audit_records.empty());
}

TEST_P(AuditMatrixTest, AuditingNeverPerturbsResults) {
  // The sweep only reads: an audited run must be bit-identical to the
  // plain run on every metric.
  const Case c = GetParam();
  ExperimentOptions opts;
  opts.audit.enabled = true;
  const auto audited =
      run_experiment(small_params(), c.protocol, c.substrate, opts);
  const auto plain = run_experiment(small_params(), c.protocol, c.substrate);
  EXPECT_EQ(audited.lookup_time.mean, plain.lookup_time.mean);
  EXPECT_EQ(audited.p99_share, plain.p99_share);
  EXPECT_EQ(audited.heavy_encounters, plain.heavy_encounters);
  EXPECT_EQ(audited.p99_max_congestion, plain.p99_max_congestion);
  EXPECT_EQ(audited.completed_lookups, plain.completed_lookups);
  EXPECT_EQ(audited.sim_duration, plain.sim_duration);
}

// The full matrix: every protocol on every substrate it supports (VS is
// Cycloid-only by construction; NS needs neighbor selection freedom, which
// only Cycloid's neighbor sets and Kademlia's bucket contacts provide).
INSTANTIATE_TEST_SUITE_P(
    Matrix, AuditMatrixTest,
    ::testing::Values(
        Case{Protocol::kBase, SubstrateKind::kCycloid},
        Case{Protocol::kNS, SubstrateKind::kCycloid},
        Case{Protocol::kVS, SubstrateKind::kCycloid},
        Case{Protocol::kErtA, SubstrateKind::kCycloid},
        Case{Protocol::kErtF, SubstrateKind::kCycloid},
        Case{Protocol::kErtAF, SubstrateKind::kCycloid},
        Case{Protocol::kBase, SubstrateKind::kChord},
        Case{Protocol::kErtA, SubstrateKind::kChord},
        Case{Protocol::kErtF, SubstrateKind::kChord},
        Case{Protocol::kErtAF, SubstrateKind::kChord},
        Case{Protocol::kBase, SubstrateKind::kPastry},
        Case{Protocol::kErtA, SubstrateKind::kPastry},
        Case{Protocol::kErtF, SubstrateKind::kPastry},
        Case{Protocol::kErtAF, SubstrateKind::kPastry},
        Case{Protocol::kBase, SubstrateKind::kCan},
        Case{Protocol::kErtA, SubstrateKind::kCan},
        Case{Protocol::kErtF, SubstrateKind::kCan},
        Case{Protocol::kErtAF, SubstrateKind::kCan},
        Case{Protocol::kBase, SubstrateKind::kKademlia},
        Case{Protocol::kNS, SubstrateKind::kKademlia},
        Case{Protocol::kErtA, SubstrateKind::kKademlia},
        Case{Protocol::kErtF, SubstrateKind::kKademlia},
        Case{Protocol::kErtAF, SubstrateKind::kKademlia},
        Case{Protocol::kBase, SubstrateKind::kD1ht},
        Case{Protocol::kErtA, SubstrateKind::kD1ht},
        Case{Protocol::kErtF, SubstrateKind::kD1ht},
        Case{Protocol::kErtAF, SubstrateKind::kD1ht}),
    [](const auto& info) {
      std::string name{to_string(info.param.protocol)};
      name += "_";
      name += to_string(info.param.substrate);
      for (char& ch : name)
        if (ch == '/') ch = '_';
      return name;
    });

// --- audited runs under churn and faults -------------------------------------

struct ChurnCase {
  SubstrateKind substrate;
  std::uint32_t seed;  // no padding: ctest names print every byte
};

class AuditUnderChurn : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(AuditUnderChurn, ChurnStaysViolationFree) {
  // Joins and departures exercise repair paths (including the
  // budget-bypassing emergency links the forced-accept counter covers) and
  // inlink losses: CAN's departures are graceful leaves that drop the
  // pointer's outlinks at once, and Kademlia's symmetric buckets purge
  // dead pointers from the backward fingers.
  SimParams p = small_params();
  p.churn_interarrival = 0.5;
  p.seed = GetParam().seed;
  ExperimentOptions opts;
  opts.audit.enabled = true;
  for (const Protocol proto : {Protocol::kErtA, Protocol::kErtAF}) {
    const auto r = run_experiment(p, proto, GetParam().substrate, opts);
    EXPECT_EQ(r.audit_violations, 0u)
        << to_string(proto) << "\n" << violations_text(r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSubstrates, AuditUnderChurn,
    ::testing::ValuesIn([] {
      std::vector<ChurnCase> cases;
      for (const SubstrateKind k :
           {SubstrateKind::kCycloid, SubstrateKind::kChord,
            SubstrateKind::kPastry, SubstrateKind::kCan,
            SubstrateKind::kKademlia, SubstrateKind::kD1ht})
        for (const std::uint32_t seed : {5, 6}) cases.push_back({k, seed});
      return cases;
    }()),
    [](const auto& test) {
      return std::string(to_string(test.param.substrate)) + "_seed" +
             std::to_string(test.param.seed);
    });

TEST(AuditUnderStress, ScenarioChurnWavesStayViolationFree) {
  // Capacity-correlated scenario churn (tournament departures) runs a
  // different membership process than SimParams::churn_interarrival, but
  // the Theorem 3.1/3.2 sweep gets no waiver for it: every sweep must
  // pass while weak nodes drain out and joins backfill.
  ExperimentOptions opts;
  opts.audit.enabled = true;
  opts.scenario.name = "churn-waves";
  scenario::Phase wave;
  wave.type = scenario::PhaseType::kChurn;
  wave.start = 1.0;
  wave.end = 20.0;
  wave.interarrival = 0.3;
  wave.bias = 4;
  opts.scenario.phases.push_back(wave);
  for (const Protocol proto : {Protocol::kErtA, Protocol::kErtAF}) {
    const auto r =
        run_experiment(small_params(), proto, SubstrateKind::kCycloid, opts);
    EXPECT_GT(r.audit_sweeps, 10u) << to_string(proto);
    EXPECT_EQ(r.audit_waived_sweeps, 0u) << to_string(proto);
    EXPECT_EQ(r.audit_violations, 0u)
        << to_string(proto) << "\n" << violations_text(r);
  }
}

TEST(AuditUnderStress, PartitionWaveWaivesTheSplitThenAuditsClean) {
  // Half-network partition/rejoin wave. Inside [start, end + settle) the
  // Theorem 3.1/3.2 sweep is explicitly waived — that window is the
  // documented exception where the bounds are out of force (a split
  // membership view breaks the x = n assumption both theorems share; see
  // docs/SCENARIOS.md). Every sweep outside the window must still pass,
  // the waiver must actually fire, and everyone must be back at the end.
  SimParams p = small_params();
  ExperimentOptions opts;
  opts.audit.enabled = true;
  opts.scenario.name = "partition-wave";
  scenario::Phase wave;
  wave.type = scenario::PhaseType::kPartition;
  wave.start = 3.0;
  wave.end = 6.0;
  wave.fraction = 0.5;
  wave.settle = 2.0;
  opts.scenario.phases.push_back(wave);
  for (const Protocol proto : {Protocol::kErtA, Protocol::kErtAF}) {
    const auto r = run_experiment(p, proto, SubstrateKind::kCycloid, opts);
    EXPECT_GT(r.audit_sweeps, 0u) << to_string(proto);
    EXPECT_GT(r.audit_waived_sweeps, 0u) << to_string(proto);
    EXPECT_EQ(r.audit_violations, 0u)
        << to_string(proto) << "\n" << violations_text(r);
    EXPECT_EQ(r.final_nodes, 256u) << to_string(proto);
  }
}

TEST(AuditUnderStress, UnwaivedPartitionAuditIsDeterministic) {
  // With waive_audit = false the sweep keeps running straight through the
  // split. We make no claim that the bounds hold mid-partition (that is
  // exactly what the waiver is for); what must hold is that whatever the
  // auditor reports is reproducible sweep for sweep, so an unwaived run
  // can serve as a regression anchor.
  ExperimentOptions opts;
  opts.audit.enabled = true;
  opts.scenario.name = "unwaived";
  scenario::Phase wave;
  wave.type = scenario::PhaseType::kPartition;
  wave.start = 3.0;
  wave.end = 6.0;
  wave.fraction = 0.4;
  wave.settle = 1.0;
  wave.waive_audit = false;
  opts.scenario.phases.push_back(wave);
  const auto a = run_experiment(small_params(), Protocol::kErtAF,
                                SubstrateKind::kCycloid, opts);
  const auto b = run_experiment(small_params(), Protocol::kErtAF,
                                SubstrateKind::kCycloid, opts);
  EXPECT_EQ(a.audit_waived_sweeps, 0u);
  EXPECT_GT(a.audit_sweeps, 0u);
  EXPECT_EQ(a.audit_sweeps, b.audit_sweeps);
  EXPECT_EQ(a.audit_violations, b.audit_violations);
  EXPECT_EQ(violations_text(a), violations_text(b));
  EXPECT_EQ(a.sim_duration, b.sim_duration);
}

TEST(AuditUnderStress, SeededFaultRunRecoversAndAuditsClean) {
  // The ISSUE's fault scenario: message drops plus a crash wave. ERT/AF
  // must still complete nearly everything, the retry path must fire, and
  // once the crashed nodes have left the live set every sweep must pass.
  ExperimentOptions opts;
  opts.audit.enabled = true;
  opts.faults.drop_prob = 0.01;
  opts.faults.crash_waves.push_back(CrashWave{5.0, 24});
  const auto r = run_experiment(small_params(), Protocol::kErtAF,
                                SubstrateKind::kCycloid, opts);
  EXPECT_EQ(r.faults.crashed_nodes, 24u);
  EXPECT_GT(r.faults.retried, 0u);
  EXPECT_GE(r.completed_lookups, 380u);
  EXPECT_EQ(r.audit_violations, 0u) << violations_text(r);
}

TEST(AuditUnderStress, AveragedRunsSumAuditOutput) {
  SimParams p = small_params();
  p.num_lookups = 200;
  ExperimentOptions opts;
  opts.audit.enabled = true;
  const auto avg =
      run_averaged(p, Protocol::kErtAF, 3, SubstrateKind::kCycloid, 0, opts);
  std::size_t sweeps = 0;
  for (int s = 0; s < 3; ++s) {
    SimParams ps = p;
    ps.seed = p.seed + static_cast<std::uint64_t>(s);
    sweeps += run_experiment(ps, Protocol::kErtAF, SubstrateKind::kCycloid,
                             opts)
                  .audit_sweeps;
  }
  EXPECT_EQ(avg.audit_sweeps, sweeps);
  EXPECT_EQ(avg.audit_violations, 0u);
}

TEST(AuditUnderStress, CustomSweepPeriodChangesCadenceOnly) {
  ExperimentOptions fast;
  fast.audit.enabled = true;
  fast.audit.period = 0.25;
  ExperimentOptions slow;
  slow.audit.enabled = true;
  slow.audit.period = 4.0;
  const auto rf = run_experiment(small_params(), Protocol::kErtAF,
                                 SubstrateKind::kCycloid, fast);
  const auto rs = run_experiment(small_params(), Protocol::kErtAF,
                                 SubstrateKind::kCycloid, slow);
  EXPECT_GT(rf.audit_sweeps, rs.audit_sweeps);
  EXPECT_EQ(rf.audit_violations, 0u);
  EXPECT_EQ(rs.audit_violations, 0u);
  EXPECT_EQ(rf.lookup_time.mean, rs.lookup_time.mean);
}

}  // namespace
}  // namespace ert::harness
