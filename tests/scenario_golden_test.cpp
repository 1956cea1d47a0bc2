// Golden scenario traces: two checked-in scenarios (a flash crowd over a
// rotating hot set, and churn waves under a partition/rejoin cycle) run on
// three substrates and must reproduce their event streams byte for byte —
// the scenario layer's Rng consumption, phase scheduling, and key
// overrides are all pinned. Also pins the zero-intensity contract (an
// all-inert scenario is bit-identical to a plain run in every metric,
// sim_duration included) and thread-count invariance of scenario runs.
//
// To regenerate after an intentional behavior change:
//   ERT_REGEN_GOLDEN=1 ./scenario_golden_test
// then review the diff of tests/golden/scenario_*.jsonl.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "harness/experiment.h"
#include "scenario/parser.h"
#include "trace/jsonl.h"
#include "trace/trace.h"

namespace ert::harness {
namespace {

// The scenario name is a std::string, not a const char*: gtest prints a
// pointer parameter as its address, which ASLR moves on every run, so the
// test names ctest discovers would differ from build to build.
using GoldenCase = std::tuple<std::string, SubstrateKind>;

SimParams golden_params() {
  SimParams p;
  p.num_nodes = 40;
  p.dimension = fit_dimension(40);
  p.num_lookups = 24;
  p.lookup_rate = 8.0;
  p.seed = 11;
  return p;
}

scenario::Scenario load_scenario(const std::string& name) {
  const std::string path =
      std::string(ERT_SCENARIO_DIR) + "/" + name + ".scn";
  const auto parsed = scenario::parse_file(path);
  EXPECT_TRUE(parsed.ok) << parsed.message(path);
  return parsed.scenario;
}

std::string substrate_slug(SubstrateKind k) {
  std::string s = to_string(k);
  for (auto& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

ExperimentOptions scenario_options(const std::string& name) {
  ExperimentOptions o;
  o.scenario = load_scenario(name);
  o.trace.enabled = true;
  // Query spans, hops, adaptation, and churn: the streams a scenario can
  // legally perturb. Membership events make partition waves visible.
  o.trace.categories = static_cast<std::uint32_t>(trace::Category::kQuery) |
                       static_cast<std::uint32_t>(trace::Category::kHop) |
                       static_cast<std::uint32_t>(trace::Category::kAdapt) |
                       static_cast<std::uint32_t>(trace::Category::kChurn);
  return o;
}

class GoldenScenarioTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenScenarioTest, MatchesCheckedInTrace) {
  const auto [name, kind] = GetParam();
  const auto opts = scenario_options(name);
  ASSERT_FALSE(opts.scenario.inert()) << "scenario file lost its phases";
  const auto r =
      run_experiment(golden_params(), Protocol::kErtAF, kind, opts);
  ASSERT_EQ(r.trace_dropped, 0u)
      << "golden run must fit the ring; raise o.trace.capacity";
  ASSERT_GT(r.trace_records.size(), 0u);
  const std::string got = trace::to_jsonl(r.trace_records);

  const std::string path = std::string(ERT_GOLDEN_DIR) + "/scenario_" + name +
                           "_" + substrate_slug(kind) + ".jsonl";
  if (std::getenv("ERT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (run with ERT_REGEN_GOLDEN=1 to create it)";
  std::ostringstream want;
  want << in.rdbuf();
  const std::string want_str = want.str();
  EXPECT_EQ(got.size(), want_str.size());
  if (got != want_str) {
    std::istringstream ga(got), wa(want_str);
    std::string gl, wl;
    std::size_t lineno = 0;
    while (true) {
      const bool gok = static_cast<bool>(std::getline(ga, gl));
      const bool wok = static_cast<bool>(std::getline(wa, wl));
      ++lineno;
      if (!gok && !wok) break;
      ASSERT_EQ(gok, wok) << "trace length differs at line " << lineno;
      ASSERT_EQ(gl, wl) << "first divergence at line " << lineno;
    }
  }
}

TEST_P(GoldenScenarioTest, ScenarioRunIsThreadCountInvariant) {
  const auto [name, kind] = GetParam();
  const auto opts = scenario_options(name);
  const auto one =
      run_averaged(golden_params(), Protocol::kErtAF, 2, kind, 1, opts);
  const auto four =
      run_averaged(golden_params(), Protocol::kErtAF, 2, kind, 4, opts);
  EXPECT_EQ(trace::to_jsonl(one.trace_records),
            trace::to_jsonl(four.trace_records));
  EXPECT_EQ(one.lookup_time.mean, four.lookup_time.mean);
  EXPECT_EQ(one.lookup_time.p99, four.lookup_time.p99);
  EXPECT_EQ(one.sim_duration, four.sim_duration);
  EXPECT_EQ(one.adapt_sheds, four.adapt_sheds);
  EXPECT_EQ(one.adapt_grows, four.adapt_grows);
  EXPECT_EQ(one.final_nodes, four.final_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    ScenarioMatrix, GoldenScenarioTest,
    ::testing::Values(
        std::make_tuple("flash", SubstrateKind::kCycloid),
        std::make_tuple("flash", SubstrateKind::kChord),
        std::make_tuple("flash", SubstrateKind::kKademlia),
        std::make_tuple("waves", SubstrateKind::kCycloid),
        std::make_tuple("waves", SubstrateKind::kChord),
        std::make_tuple("waves", SubstrateKind::kKademlia)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             substrate_slug(std::get<1>(info.param));
    });

// --- the zero-intensity contract, end to end ---------------------------------

// A scenario whose phases all sit at their neutral values must leave the
// run bit-identical to a plain run: same metrics, same sim_duration, same
// trace bytes. This is what makes every scenario knob safe to wire through
// the hot path — the plain runs (and all existing goldens) cannot drift.
TEST(ZeroIntensityScenario, BitIdenticalToPlainRunOnEverySubstrate) {
  scenario::Scenario zero;
  zero.name = "zero";
  scenario::Phase flash;
  flash.type = scenario::PhaseType::kFlash;
  flash.start = 0.0;
  flash.end = 1e9;  // active the whole run, multiplier 1.0
  scenario::Phase hot;
  hot.type = scenario::PhaseType::kHotspot;
  hot.start = 0.0;
  hot.end = 1e9;  // catalog 0
  scenario::Phase churn;
  churn.type = scenario::PhaseType::kChurn;
  churn.start = 0.0;
  churn.end = 1e9;  // interarrival 0
  zero.phases = {flash, hot, churn};
  ASSERT_TRUE(zero.inert());

  for (SubstrateKind kind :
       {SubstrateKind::kCycloid, SubstrateKind::kChord,
        SubstrateKind::kKademlia}) {
    ExperimentOptions plain_opts;
    plain_opts.trace.enabled = true;
    plain_opts.audit.enabled = true;
    ExperimentOptions zero_opts = plain_opts;
    zero_opts.scenario = zero;

    const auto plain =
        run_experiment(golden_params(), Protocol::kErtAF, kind, plain_opts);
    const auto z =
        run_experiment(golden_params(), Protocol::kErtAF, kind, zero_opts);

    const char* where = to_string(kind);
    EXPECT_EQ(z.sim_duration, plain.sim_duration) << where;
    EXPECT_EQ(z.completed_lookups, plain.completed_lookups) << where;
    EXPECT_EQ(z.dropped_lookups, plain.dropped_lookups) << where;
    EXPECT_EQ(z.dropped_overload, plain.dropped_overload) << where;
    EXPECT_EQ(z.dropped_fault, plain.dropped_fault) << where;
    EXPECT_EQ(z.lookup_time.mean, plain.lookup_time.mean) << where;
    EXPECT_EQ(z.lookup_time.p01, plain.lookup_time.p01) << where;
    EXPECT_EQ(z.lookup_time.p99, plain.lookup_time.p99) << where;
    EXPECT_EQ(z.p99_max_congestion, plain.p99_max_congestion) << where;
    EXPECT_EQ(z.mean_max_congestion, plain.mean_max_congestion) << where;
    EXPECT_EQ(z.p99_share, plain.p99_share) << where;
    EXPECT_EQ(z.avg_path_length, plain.avg_path_length) << where;
    EXPECT_EQ(z.heavy_encounters, plain.heavy_encounters) << where;
    EXPECT_EQ(z.adapt_sheds, plain.adapt_sheds) << where;
    EXPECT_EQ(z.adapt_grows, plain.adapt_grows) << where;
    EXPECT_EQ(z.final_nodes, plain.final_nodes) << where;
    EXPECT_EQ(z.audit_sweeps, plain.audit_sweeps) << where;
    EXPECT_EQ(z.audit_waived_sweeps, plain.audit_waived_sweeps) << where;
    EXPECT_EQ(z.audit_violations, plain.audit_violations) << where;
    EXPECT_EQ(trace::to_jsonl(z.trace_records),
              trace::to_jsonl(plain.trace_records))
        << where;
  }
}

// The same contract through the threaded averaged path, for any ERT_THREADS.
TEST(ZeroIntensityScenario, AveragedPathStaysBitIdentical) {
  scenario::Scenario zero;
  scenario::Phase flash;
  flash.type = scenario::PhaseType::kFlash;
  flash.start = 0.0;
  flash.end = 1e9;
  zero.phases = {flash};
  ASSERT_TRUE(zero.inert());

  ExperimentOptions plain_opts;
  ExperimentOptions zero_opts;
  zero_opts.scenario = zero;
  for (int threads : {1, 4}) {
    const auto plain = run_averaged(golden_params(), Protocol::kErtAF, 3,
                                    SubstrateKind::kCycloid, threads,
                                    plain_opts);
    const auto z = run_averaged(golden_params(), Protocol::kErtAF, 3,
                                SubstrateKind::kCycloid, threads, zero_opts);
    EXPECT_EQ(z.sim_duration, plain.sim_duration) << threads << " threads";
    EXPECT_EQ(z.lookup_time.mean, plain.lookup_time.mean)
        << threads << " threads";
    EXPECT_EQ(z.completed_lookups, plain.completed_lookups)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace ert::harness
