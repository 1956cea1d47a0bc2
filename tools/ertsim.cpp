// ertsim — run any single experiment from the command line.
//
//   ertsim [options]
//     --protocol  base|ns|vs|ert-a|ert-f|ert-af   (default ert-af)
//     --substrate cycloid|chord|pastry|can|kademlia|d1ht  (default cycloid)
//     --nodes N          (default 2048)
//     --lookups N        (default 3000)
//     --rate R           lookups per second (default 16)
//     --seed S           (default 1)
//     --seeds K          average over K seeds (default 1)
//     --threads T        worker threads for the seed fan-out (default: all
//                        cores; the result is identical for any T)
//     --sim-threads N    shards for the parallel in-run engine
//                        (docs/PDES.md). 1 (default) = the serial engine,
//                        bit-identical to every prior release; N > 1 =
//                        statistically equivalent sharded run (fixed
//                        (seed, N) stays bit-identical whatever the core
//                        count). Unsupported workloads (VS, impulse,
//                        scenarios, dup faults, tiny networks) fall back
//                        to the serial engine
//     --churn T          mean join/leave interarrival seconds (0 = off)
//     --impulse N:K      skewed workload: N source nodes, K hot keys
//     --zipf N:S         Zipf workload: N-key catalog, exponent S
//     --zipf-drift T     reshuffle popularity ranks every T seconds
//     --service L:H      light/heavy service seconds (default 0.2:1.0)
//     --queue-cap N      per-node ingress queue bound; arrivals beyond it
//                        are shed as overload drops (0 = unbounded, the
//                        default outside --scale)
//     --alpha A          indegree per unit capacity (default dimension+3)
//     --beta B, --mu M, --gamma-l G, --poll B
//     --data-forwarding  responses retrace the query path
//     --probe-cost C     seconds charged per load probe
//     --bytes            serialize every protocol message through the
//                        binary wire format (docs/WIRE.md) and report
//                        byte-accurate bandwidth accounting: per-type
//                        message sizes, the control-vs-query byte split,
//                        and the per-link token-bucket queueing picture.
//                        Strictly observational — every simulation metric
//                        is bit-identical with or without it
//     --link-rate R      egress bytes/second per node for --bytes
//                        token buckets (default 1e6)
//     --link-burst B     token-bucket depth in bytes (default 65536)
//     --csv FILE         append one CSV row (with header if new file)
//     --audit            run the invariant auditor every adaptation period
//     --audit-sample K   audit a seeded K-subset of nodes per sweep instead
//                        of all of them (implies --audit); keeps continuous
//                        auditing affordable at --scale node counts and
//                        never perturbs simulation results
//     --scale            end-to-end scale preset: Chord substrate, 2^17
//                        nodes, 1M lookups, workload clock compressed 8x
//                        (rate 128*n/2048 lookups/s, Table-2 service
//                        times / 8), churn 1.0 s, adaptation period 8 s,
//                        queue cap 64, full ERT pipeline; flags given
//                        alongside override any preset value. Prints wall
//                        time, queries/s and peak RSS after the normal
//                        report
//     --scale-json FILE  write the scale figures as one JSON object
//                        (schema in docs/PERFORMANCE.md)
//     --faults SPEC      inject faults; SPEC is comma-separated key=value:
//                          drop=P delay=P dup=P       per-message probs
//                          crash=T:N                  N nodes crash at T s
//                                                     (repeatable)
//                          timeout=S retries=K backoff=B   loss recovery
//                        e.g. --faults drop=0.01,crash=5:32
//     --audit-log FILE   write one violation record per line to FILE
//     --trace FILE       write the structured event trace as JSON lines
//                        (docs/TRACING.md); deterministic for a fixed seed
//                        whatever --threads is
//     --trace-cats LIST  comma-separated category filter for --trace:
//                        run,query,hop,overload,adapt,link,fault,churn,all
//                        (default all)
//     --trace-cap N      trace ring capacity in records (default 2^18);
//                        when full the oldest records are evicted
//     --build-only       construct the network, print build wall-clock time,
//                        peak RSS and node/slot counts, then exit 0 without
//                        issuing any lookups (scale smoke checks)
//     --model-check      run a churn-free base-protocol experiment and
//                        compare the empirical hop-count CDF against the
//                        substrate's closed-form model (chord, kademlia,
//                        d1ht; see docs/SUBSTRATES.md); exit 4 on mismatch
//     --model-check-json FILE  also write the comparison as one JSON
//                        object (implies --model-check)
//     --scenario FILE    declarative workload scenario (docs/SCENARIOS.md);
//                        repeatable. Any --scenario switches to matrix
//                        mode: every listed protocol runs every scenario
//                        (audit always on), and a comparative report —
//                        p99 latency, the overload/fault drop split,
//                        adaptation counts, auditor verdict per cell — is
//                        printed as a table. Exit 3 if any cell failed its
//                        audit.
//     --protocols LIST   comma-separated protocol axis for the scenario
//                        matrix (default: the --protocol value)
//     --scenario-json FILE  write the comparative report as JSON
//                        (schema ert.scenario.report.v1; tools/scenariocat
//                        pretty-prints, validates, and diffs it)
//
// Every numeric value (flags and --faults keys) must be a whole, in-range
// number: anything else prints "ertsim: error: --<flag>: ..." and exits 2.
//
// Exit code 0 on success, 2 on bad input, 3 when --audit (or a scenario
// matrix) found invariant violations, 4 when --model-check found a model
// mismatch; prints a one-screen report.
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/config.h"
#include "common/rss.h"
#include "harness/experiment.h"
#include "harness/model_check.h"
#include "harness/pdes_engine.h"
#include "scenario/parser.h"
#include "scenario/report.h"
#include "trace/jsonl.h"
#include "wire/wire.h"

namespace {

using ert::harness::Protocol;
using ert::harness::SubstrateKind;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "ertsim: %s\n", msg);
  std::fprintf(stderr,
               "usage: ertsim [--protocol P] [--substrate S] [--nodes N]\n"
               "              [--lookups N] [--rate R] [--seed S] [--seeds K]\n"
               "              [--threads T] [--sim-threads N]\n"
               "              [--churn T] [--impulse N:K] [--service L:H]\n"
               "              [--queue-cap N]\n"
               "              [--alpha A] [--beta B] [--mu M] [--gamma-l G]\n"
               "              [--poll B] [--data-forwarding] [--probe-cost C]\n"
               "              [--bytes] [--link-rate R] [--link-burst B]\n"
               "              [--csv FILE] [--audit] [--audit-sample K]\n"
               "              [--faults SPEC]\n"
               "              [--audit-log FILE] [--trace FILE]\n"
               "              [--trace-cats LIST] [--trace-cap N]\n"
               "              [--build-only] [--scale] [--scale-json FILE]\n"
               "              [--model-check] [--model-check-json FILE]\n"
               "              [--scenario FILE]... [--protocols LIST]\n"
               "              [--scenario-json FILE]\n");
  std::exit(2);
}

[[noreturn]] void bad_value(std::string_view flag, const std::string& want,
                            std::string_view got) {
  std::fprintf(stderr, "ertsim: error: %.*s: wants %s, got '%.*s'\n",
               static_cast<int>(flag.size()), flag.data(), want.c_str(),
               static_cast<int>(got.size()), got.data());
  std::exit(2);
}

template <typename T>
std::string num_str(T v) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
  }
}

/// Checked numeric parse: all of `text` must be one number of type T in
/// [lo, hi], or (lo, hi] when `lo_open`. Anything else (garbage, a
/// trailing suffix, an empty token, NaN or infinity, out of range) is a
/// named error and exit 2, never a silent 0 or a crash further on.
template <typename T>
T parse_num(std::string_view flag, std::string_view text, T lo,
            T hi = std::numeric_limits<T>::max(), bool lo_open = false) {
  T v{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc() && end == last && (lo_open ? v > lo : v >= lo) &&
      v <= hi)
    return v;
  std::string want = std::is_integral_v<T> ? "an integer " : "a number ";
  if (hi == std::numeric_limits<T>::max())
    want += (lo_open ? "> " : ">= ") + num_str(lo);
  else
    want += (lo_open ? "in (" : "in [") + num_str(lo) + ", " + num_str(hi) +
            "]";
  bad_value(flag, want, text);
}

double parse_positive(std::string_view flag, std::string_view text) {
  return parse_num(flag, text, 0.0, std::numeric_limits<double>::max(),
                   /*lo_open=*/true);
}

/// Splits "A:B" for `flag` into its two halves.
std::pair<std::string_view, std::string_view> split_pair(std::string_view flag,
                                                          std::string_view v,
                                                          const char* shape) {
  const std::size_t colon = v.find(':');
  if (colon == std::string_view::npos) bad_value(flag, shape, v);
  return {v.substr(0, colon), v.substr(colon + 1)};
}

/// Parses "drop=0.01,dup=0.005,crash=5:32,crash=20:16,retries=4".
ert::harness::FaultPlan parse_faults(const std::string& spec) {
  ert::harness::FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) usage("--faults token wants key=value");
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    const std::string flag = "--faults " + key;
    if (key == "drop") plan.drop_prob = parse_num(flag, val, 0.0, 1.0);
    else if (key == "delay") plan.delay_prob = parse_num(flag, val, 0.0, 1.0);
    else if (key == "dup") plan.dup_prob = parse_num(flag, val, 0.0, 1.0);
    else if (key == "timeout") plan.retry_timeout = parse_positive(flag, val);
    else if (key == "retries") plan.max_retries = parse_num(flag, val, 0, 64);
    else if (key == "backoff") plan.retry_backoff = parse_num(flag, val, 1.0);
    else if (key == "crash") {
      const auto [t, n] = split_pair(flag, val, "T:N");
      ert::harness::CrashWave wave;
      wave.time = parse_num(flag, t, 0.0);
      wave.count = parse_num<std::size_t>(flag, n, 1);
      plan.crash_waves.push_back(wave);
    } else {
      usage(("unknown --faults key " + key).c_str());
    }
  }
  return plan;
}

Protocol parse_protocol(const std::string& s) {
  if (s == "base") return Protocol::kBase;
  if (s == "ns") return Protocol::kNS;
  if (s == "vs") return Protocol::kVS;
  if (s == "ert-a") return Protocol::kErtA;
  if (s == "ert-f") return Protocol::kErtF;
  if (s == "ert-af") return Protocol::kErtAF;
  usage("unknown protocol");
}

SubstrateKind parse_substrate(const std::string& s) {
  if (s == "cycloid") return SubstrateKind::kCycloid;
  if (s == "chord") return SubstrateKind::kChord;
  if (s == "pastry") return SubstrateKind::kPastry;
  if (s == "can") return SubstrateKind::kCan;
  if (s == "kademlia") return SubstrateKind::kKademlia;
  if (s == "d1ht") return SubstrateKind::kD1ht;
  usage("unknown substrate");
}

std::vector<Protocol> parse_protocol_list(const std::string& spec) {
  std::vector<Protocol> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    if (!tok.empty()) out.push_back(parse_protocol(tok));
    pos = comma + 1;
  }
  if (out.empty()) usage("--protocols wants a comma-separated list");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ert::SimParams p;
  p.lookup_rate = 16.0;
  Protocol proto = Protocol::kErtAF;
  SubstrateKind kind = SubstrateKind::kCycloid;
  int seeds = 1;
  int threads = 0;
  bool build_only = false;
  bool model_check = false;
  bool scale = false;
  bool nodes_set = false, lookups_set = false, rate_set = false,
       churn_set = false, queue_cap_set = false, service_set = false,
       substrate_set = false;
  std::string scale_json;
  std::string model_check_json_file;
  std::string csv;
  std::string audit_log;
  std::string trace_file;
  std::string scenario_json;
  std::vector<ert::scenario::Scenario> scenarios;
  std::vector<Protocol> protocols;
  ert::harness::ExperimentOptions options;

  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--protocol") proto = parse_protocol(need(i));
    else if (a == "--substrate") {
      kind = parse_substrate(need(i));
      substrate_set = true;
    }
    else if (a == "--nodes") {
      // Overlays address nodes with 32-bit indices (dht/types.h).
      p.num_nodes = parse_num<std::size_t>(a, need(i), 1, UINT32_MAX);
      nodes_set = true;
    }
    else if (a == "--lookups") {
      p.num_lookups = parse_num<std::size_t>(a, need(i), 0);
      lookups_set = true;
    }
    else if (a == "--rate") {
      p.lookup_rate = parse_positive(a, need(i));
      rate_set = true;
    }
    else if (a == "--seed") p.seed = parse_num<std::uint64_t>(a, need(i), 0);
    else if (a == "--seeds") seeds = parse_num(a, need(i), 1);
    else if (a == "--threads") threads = parse_num(a, need(i), 0, 256);
    else if (a == "--sim-threads") p.sim_threads = parse_num(a, need(i), 1, 256);
    else if (a == "--churn") {
      p.churn_interarrival = parse_num(a, need(i), 0.0);
      churn_set = true;
    }
    else if (a == "--impulse") {
      const auto [n, k] = split_pair(a, need(i), "N:K");
      p.impulse_nodes = parse_num<std::size_t>(a, n, 1);
      p.impulse_keys = parse_num<std::size_t>(a, k, 1);
    } else if (a == "--service") {
      const auto [l, h] = split_pair(a, need(i), "L:H");
      p.light_service_time = parse_positive(a, l);
      p.heavy_service_time = parse_positive(a, h);
      service_set = true;
    }
    else if (a == "--queue-cap") {
      p.queue_cap = parse_num<std::size_t>(a, need(i), 0);
      queue_cap_set = true;
    }
    else if (a == "--alpha") p.alpha_override = parse_num(a, need(i), 0.0);
    else if (a == "--beta") p.beta = parse_num(a, need(i), 0.0, 1.0, true);
    else if (a == "--mu") p.mu = parse_num(a, need(i), 0.0, 1.0, true);
    else if (a == "--gamma-l") p.gamma_l = parse_num(a, need(i), 1.0);
    else if (a == "--poll") p.poll_size = parse_num(a, need(i), 1, 64);
    else if (a == "--zipf") {
      const std::string_view v = need(i);
      const std::size_t colon = v.find(':');
      p.zipf_catalog = parse_num<std::size_t>(a, v.substr(0, colon), 1);
      p.zipf_exponent = colon == std::string_view::npos
                            ? 1.0
                            : parse_num(a, v.substr(colon + 1), 0.0);
    }
    else if (a == "--zipf-drift") p.zipf_drift_period = parse_num(a, need(i), 0.0);
    else if (a == "--data-forwarding") p.data_forwarding = true;
    else if (a == "--probe-cost") p.probe_cost = parse_num(a, need(i), 0.0);
    else if (a == "--bytes") options.wire.bytes = true;
    else if (a == "--link-rate") options.wire.link_rate = parse_positive(a, need(i));
    else if (a == "--link-burst") options.wire.link_burst = parse_positive(a, need(i));
    else if (a == "--csv") csv = need(i);
    else if (a == "--audit") options.audit.enabled = true;
    else if (a == "--audit-sample") {
      options.audit.sample = parse_num<std::size_t>(a, need(i), 1);
      options.audit.enabled = true;
    }
    else if (a == "--scale") scale = true;
    else if (a == "--scale-json") scale_json = need(i);
    else if (a == "--faults") options.faults = parse_faults(need(i));
    else if (a == "--audit-log") audit_log = need(i);
    else if (a == "--trace") {
      trace_file = need(i);
      options.trace.enabled = true;
    } else if (a == "--trace-cats") {
      if (!ert::trace::parse_categories(need(i), &options.trace.categories))
        usage("--trace-cats wants run,query,hop,overload,adapt,link,fault,"
              "churn or all");
    } else if (a == "--trace-cap") {
      options.trace.capacity = parse_num<std::size_t>(a, need(i), 1);
    }
    else if (a == "--scenario") {
      const char* file = need(i);
      const auto parsed = ert::scenario::parse_file(file);
      if (!parsed.ok) usage(parsed.message(file).c_str());
      ert::scenario::Scenario s = parsed.scenario;
      if (s.name.empty()) s.name = file;
      scenarios.push_back(std::move(s));
    }
    else if (a == "--protocols") protocols = parse_protocol_list(need(i));
    else if (a == "--scenario-json") scenario_json = need(i);
    else if (a == "--build-only") build_only = true;
    else if (a == "--model-check") model_check = true;
    else if (a == "--model-check-json") {
      model_check_json_file = need(i);
      model_check = true;
    }
    else if (a == "--help" || a == "-h") usage();
    else usage(("unknown option " + a).c_str());
  }
  if (scale) {
    // Figure-mode preset: the full pipeline (Poisson queries + overload
    // probing + shed/grow adaptation + churn) at end-to-end scale. The
    // workload clock is compressed 8x relative to the calibrated
    // 2048-node figures: the arrival rate scales as 128 * n / 2048 and
    // the Table-2 service times shrink by the same factor, so per-node
    // utilization stays at calibrated parity while 1M queries inject in
    // ~2 sim-minutes. The adaptation period stretches to T = 8 s so the
    // management plane (one shed/grow decision per node per period, the
    // cost that dominates at this n) stays a bounded fraction of the
    // run, and a 64-query ingress cap bounds the drain tail at the
    // statistically inevitable unstable nodes. The preset substrate is
    // Chord: its uniform ring keeps the figure run drop-free, whereas a
    // partial Cycloid (any n that is not d * 2^d leaves the upper
    // levels empty) funnels traffic through boundary hub nodes that
    // shed a large arrival fraction even at low mean utilization —
    // pass --substrate cycloid to study that regime. Explicit flags
    // win over the preset.
    if (!substrate_set) kind = SubstrateKind::kChord;
    if (!nodes_set) p.num_nodes = std::size_t{1} << 17;
    if (!lookups_set)
      p.num_lookups = std::max<std::size_t>(p.num_lookups, 1'000'000);
    if (!rate_set)
      p.lookup_rate =
          128.0 * static_cast<double>(p.num_nodes) / 2048.0;
    if (!service_set) {
      p.light_service_time = 0.2 / 8.0;
      p.heavy_service_time = 1.0 / 8.0;
    }
    if (!churn_set) p.churn_interarrival = 1.0;
    if (!queue_cap_set) p.queue_cap = 64;
    p.adapt_period = 8.0;
  }
  p.dimension = std::max(p.dimension, ert::harness::fit_dimension(p.num_nodes));
  if (const std::string err = p.validate(); !err.empty()) {
    std::fprintf(stderr, "ertsim: error: %s\n", err.c_str());
    return 2;
  }
  if (proto == Protocol::kVS && kind != SubstrateKind::kCycloid)
    usage("VS requires the cycloid substrate");
  if (proto == Protocol::kNS && kind != SubstrateKind::kCycloid &&
      kind != SubstrateKind::kKademlia)
    usage("NS needs neighbor selection freedom (cycloid or kademlia)");
  if (kind == SubstrateKind::kCycloid) {
    const std::size_t full = static_cast<std::size_t>(p.dimension)
                             << p.dimension;
    if (p.num_nodes != full)
      std::fprintf(
          stderr,
          "ertsim: warning: %zu nodes is a partial Cycloid (the full d*2^d "
          "network at d=%d holds %zu): the empty upper cycles funnel traffic "
          "through boundary hub nodes, which shed a large arrival fraction "
          "even at low mean utilization. Use --substrate chord for a uniform "
          "ring at this n, or pick n = d*2^d to study the complete topology "
          "(see docs/SUBSTRATES.md).\n",
          p.num_nodes, p.dimension, full);
  }

  if (!protocols.empty() && scenarios.empty())
    usage("--protocols only makes sense with --scenario");

  if (!scenarios.empty()) {
    // Matrix mode: every protocol runs every scenario on the one chosen
    // substrate, with the invariant auditor always on so each cell carries
    // a verdict. The (protocol, scenario, seed) units fan out through
    // run_sweep, so the report is bit-identical for any --threads.
    if (protocols.empty()) protocols.push_back(proto);
    for (Protocol pr : protocols) {
      if (pr == Protocol::kVS && kind != SubstrateKind::kCycloid)
        usage("VS requires the cycloid substrate");
      if (pr == Protocol::kNS && kind != SubstrateKind::kCycloid &&
          kind != SubstrateKind::kKademlia)
        usage("NS needs neighbor selection freedom (cycloid or kademlia)");
    }
    options.audit.enabled = true;
    std::vector<ert::harness::SweepJob> jobs;
    for (Protocol pr : protocols) {
      for (const auto& scen : scenarios) {
        ert::harness::SweepJob job;
        job.params = p;
        job.protocol = pr;
        job.substrate = kind;
        job.seeds = seeds;
        job.options = options;
        job.options.scenario = scen;
        jobs.push_back(std::move(job));
      }
    }
    const auto results = ert::harness::run_sweep(jobs, threads);
    ert::scenario::Report report;
    bool any_fail = false;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto& r = results[j];
      ert::scenario::Cell cell;
      cell.protocol = std::string(ert::harness::to_string(jobs[j].protocol));
      cell.substrate = ert::harness::to_string(kind);
      cell.scenario = jobs[j].options.scenario.name;
      cell.mean_latency = r.lookup_time.mean;
      cell.p99_latency = r.lookup_time.p99;
      cell.completed = r.completed_lookups;
      cell.dropped_overload = r.dropped_overload;
      cell.dropped_fault = r.dropped_fault;
      cell.adapt_sheds = r.adapt_sheds;
      cell.adapt_grows = r.adapt_grows;
      cell.bytes_control = r.bytes.control_bytes;
      cell.bytes_query = r.bytes.query_bytes;
      cell.audit_sweeps = r.audit_sweeps;
      cell.audit_waived_sweeps = r.audit_waived_sweeps;
      cell.audit_violations = r.audit_violations;
      cell.verdict = r.audit_violations == 0 ? "pass" : "fail";
      if (r.audit_violations > 0) any_fail = true;
      report.cells.push_back(std::move(cell));
    }
    std::printf("scenario matrix    %zu protocols x %zu scenarios on %s "
                "(%d seed%s each)\n\n",
                protocols.size(), scenarios.size(),
                ert::harness::to_string(kind), seeds, seeds == 1 ? "" : "s");
    std::printf("%s", ert::scenario::to_table(report).c_str());
    if (!scenario_json.empty()) {
      FILE* f = std::fopen(scenario_json.c_str(), "w");
      if (!f) {
        std::perror("ertsim: --scenario-json open");
        return 1;
      }
      const std::string j = ert::scenario::to_json(report);
      std::fwrite(j.data(), 1, j.size(), f);
      std::fclose(f);
      std::printf("\nscenario json      %s\n", scenario_json.c_str());
    }
    return any_fail ? 3 : 0;
  }

  if (model_check) {
    if (kind != SubstrateKind::kChord && kind != SubstrateKind::kKademlia &&
        kind != SubstrateKind::kD1ht)
      usage("--model-check has closed-form models for chord, kademlia, d1ht");
    if (p.churn_interarrival > 0.0)
      usage("--model-check assumes a churn-free run (drop --churn)");
    const auto mc = ert::harness::model_check(kind, p);
    std::printf("model check        %s, %zu nodes, %zu lookups\n",
                ert::harness::to_string(mc.kind), mc.nodes, mc.lookups);
    std::printf("hop CDF deviation  %.4f  (tolerance %.2f)\n",
                mc.sup_deviation, mc.tolerance);
    std::printf("mean hops          %.3f empirical vs %.3f predicted\n",
                mc.mean_hops_empirical, mc.mean_hops_predicted);
    std::printf("one-hop fraction   %.4f\n", mc.one_hop_fraction);
    std::printf("per-node load      mean %.2f, max %.0f, cv %.3f\n",
                mc.load_mean, mc.load_max, mc.load_cv);
    std::printf("verdict            %s\n", mc.pass ? "PASS" : "MISMATCH");
    if (!model_check_json_file.empty()) {
      FILE* f = std::fopen(model_check_json_file.c_str(), "w");
      if (!f) {
        std::perror("ertsim: --model-check-json open");
        return 1;
      }
      const std::string j = ert::harness::model_check_json(mc);
      std::fprintf(f, "%s\n", j.c_str());
      std::fclose(f);
      std::printf("model check json   %s\n", model_check_json_file.c_str());
    }
    return mc.pass ? 0 : 4;
  }

  if (build_only) {
    const auto b = ert::harness::run_build_only(p, proto, kind);
    std::printf("protocol           %s on %s\n",
                std::string(ert::harness::to_string(proto)).c_str(),
                ert::harness::to_string(kind));
    std::printf("nodes              %zu real, %zu overlay slots\n",
                b.real_nodes, b.overlay_slots);
    std::printf("build time         %.3f s\n", b.build_seconds);
    std::printf("peak RSS           %.1f MiB\n",
                static_cast<double>(b.peak_rss_kb) / 1024.0);
    return 0;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const auto r =
      seeds > 1
          ? ert::harness::run_averaged(p, proto, seeds, kind, threads, options)
          : ert::harness::run_experiment(p, proto, kind, options);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::printf("protocol           %s on %s\n",
              std::string(ert::harness::to_string(proto)).c_str(),
              ert::harness::to_string(kind));
  std::printf("network            %zu nodes, %zu lookups at %.1f/s\n",
              p.num_nodes, p.num_lookups, p.lookup_rate);
  if (p.sim_threads > 1) {
    const std::string refusal =
        ert::harness::pdes_supported(p, proto, kind, options);
    std::printf("sim threads        %d shards (%s)\n", p.sim_threads,
                refusal.empty() ? "conservative PDES"
                                : (refusal + ", serial fallback").c_str());
  }
  std::printf("completed          %zu (+%zu dropped), sim time %.1f s\n",
              r.completed_lookups, r.dropped_lookups, r.sim_duration);
  std::printf("p99 max congestion %.3f   (mean %.3f, min-cap node %.3f)\n",
              r.p99_max_congestion, r.mean_max_congestion,
              r.min_cap_node_congestion);
  std::printf("p99 share          %.3f\n", r.p99_share);
  std::printf("heavy encounters   %zu\n", r.heavy_encounters);
  std::printf("path length        %.2f hops\n", r.avg_path_length);
  std::printf("lookup time        %.3f s  (p1 %.3f, p99 %.3f)\n",
              r.lookup_time.mean, r.lookup_time.p01, r.lookup_time.p99);
  std::printf("timeouts/lookup    %.3f\n", r.avg_timeouts);
  std::printf("max indegree       %.1f  (p1 %.0f, p99 %.0f)\n",
              r.max_indegree.mean, r.max_indegree.p01, r.max_indegree.p99);
  std::printf("max outdegree      %.1f  (p1 %.0f, p99 %.0f)\n",
              r.max_outdegree.mean, r.max_outdegree.p01, r.max_outdegree.p99);
  if (options.wire.bytes) {
    const auto& b = r.bytes;
    const auto ull = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    std::printf("wire bytes         %llu total in %llu msgs\n",
                ull(b.total_bytes()), ull(b.total_msgs()));
    std::printf("  control          %llu bytes in %llu msgs\n",
                ull(b.control_bytes), ull(b.control_msgs));
    std::printf("  query            %llu bytes in %llu msgs\n",
                ull(b.query_bytes), ull(b.query_msgs));
    for (std::size_t t = 0; t < ert::wire::kNumMsgTypes; ++t) {
      if (b.msg_count[t] == 0) continue;
      std::printf("  %-16s %llu bytes in %llu msgs (%.1f B/msg)\n",
                  ert::wire::to_string(static_cast<ert::wire::MsgType>(t)),
                  ull(b.msg_bytes[t]), ull(b.msg_count[t]),
                  static_cast<double>(b.msg_bytes[t]) /
                      static_cast<double>(b.msg_count[t]));
    }
    std::printf("link model         rate %g B/s, burst %g B: %llu delayed "
                "msgs, mean queueing %.4f s\n",
                options.wire.link_rate, options.wire.link_burst,
                ull(b.delayed_msgs),
                b.delayed_msgs
                    ? b.queueing_delay_sum / static_cast<double>(b.delayed_msgs)
                    : 0.0);
    std::printf("peaks              backlog %.0f B on one link, %llu B of "
                "query frames in flight\n",
                b.peak_backlog_bytes, ull(b.peak_in_flight_bytes));
  }
  if (options.faults.enabled()) {
    std::printf("faults             %zu timed out, %zu retried, %zu recovered, "
                "%zu crashed\n",
                r.faults.timed_out, r.faults.retried, r.faults.recovered,
                r.faults.crashed_nodes);
    std::printf("dropped split      %zu overload, %zu fault\n",
                r.dropped_overload, r.dropped_fault);
  }
  if (options.audit.enabled) {
    std::printf("audit              %zu sweeps, %zu violations%s\n",
                r.audit_sweeps, r.audit_violations,
                r.audit_violations == 0 ? " (clean)" : "");
    for (const auto& v : r.audit_records)
      std::printf("  %s\n", ert::harness::to_string(v).c_str());
    if (!audit_log.empty()) {
      FILE* f = std::fopen(audit_log.c_str(), "w");
      if (!f) {
        std::perror("ertsim: --audit-log open");
        return 1;
      }
      for (const auto& v : r.audit_records)
        std::fprintf(f, "%s\n", ert::harness::to_string(v).c_str());
      std::fclose(f);
    }
  }

  if (!trace_file.empty()) {
    if (!ert::trace::write_jsonl_file(trace_file, r.trace_records)) {
      std::perror("ertsim: --trace open");
      return 1;
    }
    std::printf("trace              %zu records to %s (%zu emitted, %zu "
                "evicted by ring wrap)\n",
                r.trace_records.size(), trace_file.c_str(), r.trace_emitted,
                r.trace_dropped);
  }

  if (!csv.empty()) {
    FILE* f = std::fopen(csv.c_str(), "a");
    if (!f) {
      std::perror("ertsim: --csv open");
      return 1;
    }
    if (std::ftell(f) == 0) {
      std::fprintf(f,
                   "protocol,substrate,nodes,lookups,rate,seed,churn,"
                   "impulse_nodes,impulse_keys,p99_max_congestion,p99_share,"
                   "heavy,path,latency_mean,latency_p99,timeouts,"
                   "max_indegree_p99,max_outdegree_p99\n");
    }
    std::fprintf(f, "%s,%s,%zu,%zu,%g,%llu,%g,%zu,%zu,%g,%g,%zu,%g,%g,%g,%g,%g,%g\n",
                 std::string(ert::harness::to_string(proto)).c_str(),
                 ert::harness::to_string(kind), p.num_nodes, p.num_lookups,
                 p.lookup_rate, static_cast<unsigned long long>(p.seed),
                 p.churn_interarrival, p.impulse_nodes, p.impulse_keys,
                 r.p99_max_congestion, r.p99_share, r.heavy_encounters,
                 r.avg_path_length, r.lookup_time.mean, r.lookup_time.p99,
                 r.avg_timeouts, r.max_indegree.p99, r.max_outdegree.p99);
    std::fclose(f);
  }
  if (scale || !scale_json.empty()) {
    const std::size_t settled = r.completed_lookups + r.dropped_lookups;
    const double qps =
        wall_seconds > 0 ? static_cast<double>(settled) / wall_seconds : 0.0;
    const std::size_t rss_kb = ert::peak_rss_kb();
    std::printf("scale              wall %.1f s, %.0f queries/s, peak RSS "
                "%.1f MiB\n",
                wall_seconds, qps, static_cast<double>(rss_kb) / 1024.0);
    if (!scale_json.empty()) {
      FILE* f = std::fopen(scale_json.c_str(), "w");
      if (!f) {
        std::perror("ertsim: --scale-json open");
        return 1;
      }
      std::fprintf(
          f,
          "{\n"
          "  \"protocol\": \"%s\",\n"
          "  \"substrate\": \"%s\",\n"
          "  \"nodes\": %zu,\n"
          "  \"lookups\": %zu,\n"
          "  \"rate\": %g,\n"
          "  \"seed\": %llu,\n"
          "  \"sim_threads\": %d,\n"
          "  \"churn_interarrival\": %g,\n"
          "  \"completed\": %zu,\n"
          "  \"dropped\": %zu,\n"
          "  \"sim_duration\": %g,\n"
          "  \"wall_seconds\": %g,\n"
          "  \"queries_per_sec\": %g,\n"
          "  \"peak_rss_kb\": %zu,\n"
          "  \"lookup_time_mean\": %g,\n"
          "  \"lookup_time_p99\": %g,\n"
          "  \"avg_path_length\": %g\n"
          "}\n",
          std::string(ert::harness::to_string(proto)).c_str(),
          ert::harness::to_string(kind), p.num_nodes, p.num_lookups,
          p.lookup_rate, static_cast<unsigned long long>(p.seed),
          p.sim_threads, p.churn_interarrival, r.completed_lookups,
          r.dropped_lookups,
          r.sim_duration, wall_seconds, qps, rss_kb, r.lookup_time.mean,
          r.lookup_time.p99, r.avg_path_length);
      std::fclose(f);
      std::printf("scale json         %s\n", scale_json.c_str());
    }
  }
  if (options.audit.enabled && r.audit_violations > 0) return 3;
  return 0;
}
