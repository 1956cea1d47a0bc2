// Golden wire traces: two scenario runs (the flash crowd on Cycloid and
// the churn waves on Chord) with --bytes capture on must reproduce their
// serialized message streams byte for byte — every frame the send path
// emits, in order, as "<type> <hex>" lines. This pins the wire encoding,
// the send-path accounting points, and their ordering all at once: a
// change to any of them shows up as a reviewable golden diff.
//
// To regenerate after an intentional format or accounting change:
//   ERT_REGEN_GOLDEN=1 ./wire_golden_test
// then review the diff of tests/golden/wire_*.txt.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "harness/experiment.h"
#include "scenario/parser.h"
#include "wire/wire.h"

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

ExperimentOptions wire_options(const std::string& name) {
  ExperimentOptions o;
  o.scenario = load_scenario(name);
  o.wire.bytes = true;
  o.wire.capture = true;
  return o;
}

class GoldenWireTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenWireTest, MatchesCheckedInCapture) {
  const auto [name, kind] = GetParam();
  const auto opts = wire_options(name);
  ASSERT_FALSE(opts.scenario.inert()) << "scenario file lost its phases";
  const auto r =
      run_experiment(golden_params(), Protocol::kErtAF, kind, opts);
  ASSERT_FALSE(r.wire_capture.empty());
  const std::string& got = r.wire_capture;

  const std::string path = std::string(ERT_GOLDEN_DIR) + "/wire_" + name +
                           "_" + substrate_slug(kind) + ".txt";
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
      ASSERT_EQ(gok, wok) << "capture length differs at line " << lineno;
      ASSERT_EQ(gl, wl) << "first divergence at line " << lineno;
    }
  }
}

TEST_P(GoldenWireTest, CaptureAgreesWithByteTotals) {
  // The capture stream is the totals, spelled out: decoding every line and
  // tallying must land exactly on the ByteTotals counters, so the golden
  // file also pins the accounting.
  const auto [name, kind] = GetParam();
  const auto r = run_experiment(golden_params(), Protocol::kErtAF, kind,
                                wire_options(name));
  std::uint64_t msgs = 0, bytes = 0;
  std::istringstream lines(r.wire_capture);
  std::string type, hex;
  while (lines >> type >> hex) {
    ++msgs;
    bytes += hex.size() / 2;
  }
  EXPECT_EQ(msgs, r.bytes.total_msgs());
  EXPECT_EQ(bytes, r.bytes.total_bytes());
}

TEST_P(GoldenWireTest, CaptureIsThreadCountInvariant) {
  // Seed fan-out threads (ERT_THREADS analog) must not reorder the
  // per-seed capture streams.
  const auto [name, kind] = GetParam();
  const auto opts = wire_options(name);
  const auto one =
      run_averaged(golden_params(), Protocol::kErtAF, 2, kind, 1, opts);
  const auto four =
      run_averaged(golden_params(), Protocol::kErtAF, 2, kind, 4, opts);
  ASSERT_FALSE(one.wire_capture.empty());
  EXPECT_EQ(one.wire_capture, four.wire_capture);
  EXPECT_EQ(one.bytes.total_bytes(), four.bytes.total_bytes());
}

TEST_P(GoldenWireTest, CaptureIsSimThreadsInvariant) {
  // --sim-threads 1 vs 4: scenario runs take the serial engine either way
  // (the PDES shards don't drive scenarios), so the streams must match
  // bit for bit — this keeps the goldens valid whatever the flag says.
  const auto [name, kind] = GetParam();
  SimParams p = golden_params();
  const auto serial =
      run_experiment(p, Protocol::kErtAF, kind, wire_options(name));
  p.sim_threads = 4;
  const auto sharded =
      run_experiment(p, Protocol::kErtAF, kind, wire_options(name));
  EXPECT_EQ(serial.wire_capture, sharded.wire_capture);
  EXPECT_EQ(serial.bytes.total_bytes(), sharded.bytes.total_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    WireMatrix, GoldenWireTest,
    ::testing::Values(std::make_tuple("flash", SubstrateKind::kCycloid),
                      std::make_tuple("waves", SubstrateKind::kChord)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             substrate_slug(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ert::harness
