// Golden-trace regression tests: a small fixed-seed run of every protocol
// on Cycloid — plus the protocol matrix of the Kademlia and D1HT
// substrates — must reproduce its checked-in event stream byte for byte:
// the exact hop sequence plus the adaptation decisions. Any change to
// routing order, forwarding policy, adaptation timing, or Rng consumption
// shows up here as a readable JSONL diff instead of a silent metric shift.
//
// The link goldens (tests/golden/link_*.jsonl) add one ERT/AF run per
// substrate with churn on and the link and churn categories recorded:
// every elastic inlink adopted or shed by construction, Algorithm 3 and
// join-time expansion, in order, next to the joins and departures that
// drive repair and purge.
//
// The PDES goldens (tests/golden/pdes_*.jsonl) pin the sharded transport:
// ERT/AF at sim_threads = 4 on Chord and Kademlia with churn, message loss,
// a crash wave and the auditor, the fault category recorded too.
//
// To regenerate after an intentional behavior change:
//   ERT_REGEN_GOLDEN=1 ./trace_golden_test
// then review the diff of tests/golden/*.jsonl like any other code change.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "harness/experiment.h"
#include "harness/pdes_engine.h"
#include "trace/jsonl.h"
#include "trace/trace.h"

namespace ert::harness {
namespace {

using GoldenCase = std::tuple<SubstrateKind, Protocol>;

SimParams golden_params() {
  SimParams p;
  p.num_nodes = 40;
  p.dimension = fit_dimension(40);
  p.num_lookups = 24;
  p.lookup_rate = 8.0;
  p.seed = 11;
  return p;
}

/// File-safe protocol slug (to_string uses '/' in ERT names).
std::string slug(Protocol p) {
  switch (p) {
    case Protocol::kBase:  return "base";
    case Protocol::kNS:    return "ns";
    case Protocol::kVS:    return "vs";
    case Protocol::kErtA:  return "ert-a";
    case Protocol::kErtF:  return "ert-f";
    case Protocol::kErtAF: return "ert-af";
  }
  return "unknown";
}

/// Cycloid keeps the original bare filenames so the six pre-existing golden
/// files stay byte-identical; the newer substrates get a kind prefix.
std::string golden_path(const GoldenCase& c) {
  const auto [kind, proto] = c;
  std::string name = "trace_";
  if (kind == SubstrateKind::kKademlia) name += "kademlia_";
  if (kind == SubstrateKind::kD1ht) name += "d1ht_";
  return std::string(ERT_GOLDEN_DIR) + "/" + name + slug(proto) + ".jsonl";
}

void regenerate(const std::string& got, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << path;
  out << got;
}

/// Byte comparison against a checked-in golden file, reporting the first
/// differing line rather than dumping both streams.
void expect_matches_file(const std::string& got, const std::string& path) {
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

class GoldenTraceTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTraceTest, MatchesCheckedInTrace) {
  const auto [kind, proto] = GetParam();
  ExperimentOptions o;
  o.trace.enabled = true;
  // Query spans, the per-hop chain, and the adaptation stream: the events
  // that pin routing behavior. Run/link/churn stay out so the golden files
  // focus on the trajectory rather than construction details.
  o.trace.categories = static_cast<std::uint32_t>(trace::Category::kQuery) |
                       static_cast<std::uint32_t>(trace::Category::kHop) |
                       static_cast<std::uint32_t>(trace::Category::kAdapt);
  const auto r = run_experiment(golden_params(), proto, kind, o);
  ASSERT_EQ(r.trace_dropped, 0u)
      << "golden run must fit the ring; raise o.trace.capacity";
  ASSERT_GT(r.trace_records.size(), 0u);
  const std::string got = trace::to_jsonl(r.trace_records);

  const std::string path = golden_path(GetParam());
  if (std::getenv("ERT_REGEN_GOLDEN") != nullptr) {
    regenerate(got, path);
    GTEST_SKIP() << "regenerated " << path;
  }

  expect_matches_file(got, path);
}

TEST_P(GoldenTraceTest, GoldenRunIsThreadCountInvariant) {
  const auto [kind, proto] = GetParam();
  // The same fixed-seed run through the averaged path must serialize to
  // the same bytes for 1 and 4 worker threads.
  ExperimentOptions o;
  o.trace.enabled = true;
  o.trace.categories = static_cast<std::uint32_t>(trace::Category::kQuery) |
                       static_cast<std::uint32_t>(trace::Category::kHop) |
                       static_cast<std::uint32_t>(trace::Category::kAdapt);
  const auto one = run_averaged(golden_params(), proto, 2, kind, 1, o);
  const auto four = run_averaged(golden_params(), proto, 2, kind, 4, o);
  EXPECT_EQ(trace::to_jsonl(one.trace_records),
            trace::to_jsonl(four.trace_records));
}

INSTANTIATE_TEST_SUITE_P(
    AllSubstrates, GoldenTraceTest,
    ::testing::Values(
        // Cycloid: the full six-protocol matrix (VS is Cycloid-only).
        std::make_tuple(SubstrateKind::kCycloid, Protocol::kBase),
        std::make_tuple(SubstrateKind::kCycloid, Protocol::kNS),
        std::make_tuple(SubstrateKind::kCycloid, Protocol::kVS),
        std::make_tuple(SubstrateKind::kCycloid, Protocol::kErtA),
        std::make_tuple(SubstrateKind::kCycloid, Protocol::kErtF),
        std::make_tuple(SubstrateKind::kCycloid, Protocol::kErtAF),
        // Kademlia: bucket contacts give NS its selection freedom.
        std::make_tuple(SubstrateKind::kKademlia, Protocol::kBase),
        std::make_tuple(SubstrateKind::kKademlia, Protocol::kNS),
        std::make_tuple(SubstrateKind::kKademlia, Protocol::kErtA),
        std::make_tuple(SubstrateKind::kKademlia, Protocol::kErtF),
        std::make_tuple(SubstrateKind::kKademlia, Protocol::kErtAF),
        // D1HT: no NS (a full mesh has no neighbor selection freedom).
        std::make_tuple(SubstrateKind::kD1ht, Protocol::kBase),
        std::make_tuple(SubstrateKind::kD1ht, Protocol::kErtA),
        std::make_tuple(SubstrateKind::kD1ht, Protocol::kErtF),
        std::make_tuple(SubstrateKind::kD1ht, Protocol::kErtAF)),
    [](const auto& info) {
      std::string s = std::string(to_string(std::get<0>(info.param))) + "_" +
                      slug(std::get<1>(info.param));
      for (auto& c : s)
        if (c == '-') c = '_';
      return s;
    });

/// The golden params with a churn interarrival that lands a few joins and
/// departures inside the 24-lookup run.
SimParams link_golden_params() {
  SimParams p = golden_params();
  p.churn_interarrival = 1.0;
  return p;
}

ExperimentOptions link_golden_options() {
  ExperimentOptions o;
  o.trace.enabled = true;
  o.trace.categories = static_cast<std::uint32_t>(trace::Category::kQuery) |
                       static_cast<std::uint32_t>(trace::Category::kHop) |
                       static_cast<std::uint32_t>(trace::Category::kAdapt) |
                       static_cast<std::uint32_t>(trace::Category::kLink) |
                       static_cast<std::uint32_t>(trace::Category::kChurn);
  return o;
}

std::string link_golden_path(SubstrateKind kind) {
  std::string name = to_string(kind);
  for (auto& c : name) c = static_cast<char>(std::tolower(c));
  return std::string(ERT_GOLDEN_DIR) + "/link_" + name + ".jsonl";
}

class LinkGoldenTest : public ::testing::TestWithParam<SubstrateKind> {};

TEST_P(LinkGoldenTest, MatchesCheckedInTrace) {
  const auto r = run_experiment(link_golden_params(), Protocol::kErtAF,
                                GetParam(), link_golden_options());
  ASSERT_EQ(r.trace_dropped, 0u)
      << "golden run must fit the ring; raise o.trace.capacity";
  ASSERT_GT(r.trace_records.size(), 0u);
  const std::string got = trace::to_jsonl(r.trace_records);
  const std::string path = link_golden_path(GetParam());
  if (std::getenv("ERT_REGEN_GOLDEN") != nullptr) {
    regenerate(got, path);
    GTEST_SKIP() << "regenerated " << path;
  }
  expect_matches_file(got, path);
}

TEST_P(LinkGoldenTest, GoldenRunIsThreadCountInvariant) {
  const auto one = run_averaged(link_golden_params(), Protocol::kErtAF, 2,
                                GetParam(), 1, link_golden_options());
  const auto four = run_averaged(link_golden_params(), Protocol::kErtAF, 2,
                                 GetParam(), 4, link_golden_options());
  EXPECT_EQ(trace::to_jsonl(one.trace_records),
            trace::to_jsonl(four.trace_records));
}

INSTANTIATE_TEST_SUITE_P(
    AllSubstrates, LinkGoldenTest,
    ::testing::Values(SubstrateKind::kCycloid, SubstrateKind::kChord,
                      SubstrateKind::kPastry, SubstrateKind::kCan,
                      SubstrateKind::kKademlia, SubstrateKind::kD1ht),
    [](const auto& info) { return std::string(to_string(info.param)); });

/// The sharded-transport goldens (tests/golden/pdes_*.jsonl): ERT/AF at
/// sim_threads = 4 with churn, 1% message loss, one crash wave and the
/// auditor on. Per-shard Rng streams, mailbox delivery, barrier-deferred
/// repairs and queue snapshots all shape this stream, so it pins the
/// sharded run exactly where the equivalence tests only check bands. Seed
/// 12 lands a few dropped-and-retried hops on both substrates.
SimParams pdes_golden_params() {
  SimParams p;
  p.num_nodes = 64;
  p.num_lookups = 48;
  p.lookup_rate = 8.0;
  p.seed = 12;
  p.churn_interarrival = 1.0;
  p.sim_threads = 4;
  return p;
}

ExperimentOptions pdes_golden_options() {
  ExperimentOptions o = link_golden_options();
  o.trace.categories |= static_cast<std::uint32_t>(trace::Category::kFault);
  o.faults.drop_prob = 0.01;
  o.faults.crash_waves.push_back(CrashWave{2.0, 4});
  o.audit.enabled = true;
  return o;
}

class PdesGoldenTest : public ::testing::TestWithParam<SubstrateKind> {};

TEST_P(PdesGoldenTest, MatchesCheckedInTrace) {
  const SimParams p = pdes_golden_params();
  const ExperimentOptions o = pdes_golden_options();
  ASSERT_EQ(pdes_supported(p, Protocol::kErtAF, GetParam(), o), "")
      << "the golden run would fall back to the serial engine";
  const auto r = run_experiment(p, Protocol::kErtAF, GetParam(), o);
  ASSERT_EQ(r.trace_dropped, 0u)
      << "golden run must fit the ring; raise o.trace.capacity";
  ASSERT_GT(r.audit_sweeps, 0u);
  EXPECT_EQ(r.audit_violations, 0u);
  const std::string got = trace::to_jsonl(r.trace_records);
  std::string name = to_string(GetParam());
  for (auto& c : name) c = static_cast<char>(std::tolower(c));
  const std::string path =
      std::string(ERT_GOLDEN_DIR) + "/pdes_" + name + ".jsonl";
  if (std::getenv("ERT_REGEN_GOLDEN") != nullptr) {
    regenerate(got, path);
    GTEST_SKIP() << "regenerated " << path;
  }
  expect_matches_file(got, path);
}

INSTANTIATE_TEST_SUITE_P(
    PdesGolden, PdesGoldenTest,
    ::testing::Values(SubstrateKind::kChord, SubstrateKind::kKademlia),
    [](const auto& info) { return std::string(to_string(info.param)); });

}  // namespace
}  // namespace ert::harness
