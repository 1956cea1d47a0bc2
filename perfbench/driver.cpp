// Benchmark driver binary. run.py starts one process per measurement so
// every peak-RSS reading belongs to a single run:
//
//   perfbench_driver run    --workload W --seed N [--tiny] [--meter]
//       one run_experiment / run_averaged call: wall seconds, model
//       outputs, a result digest and the process peak RSS. --meter attaches
//       the observational wire::ByteMeter and adds its counters.
//   perfbench_driver setup  --workload W --seed N [--tiny] --reps K
//       K calls of run_build_only on the same params and seed.
//   perfbench_driver layers --workload W --seed N [--tiny] [--pending P]
//                           [--heavy-share H] [--shed-share S] [--grow-share G]
//       per-layer timings (layers.cpp).
//
// Each mode prints one JSON object on stdout. Bad arguments exit 2.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rss.h"
#include "harness/experiment.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

using ert::harness::Protocol;
using ert::harness::SubstrateKind;

bool make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   Workload* out) {
  Workload w;
  w.name = name;
  w.tiny = tiny;
  ert::SimParams& p = w.params;
  p.seed = seed;
  if (name == "paper_cycloid_2048") {
    // Table 2 as ertsim runs it: d = 8, n = 2048, 16 lookups/s.
    p.lookup_rate = 16.0;
    p.num_lookups = 30'000;
    w.seeds = 4;
    w.threads = 4;
    if (tiny) {
      p.dimension = 5;
      p.num_nodes = 5 << 5;
      p.lookup_rate = 2.0;
      p.num_lookups = 1'500;
      w.seeds = 2;
      w.threads = 2;
    }
  } else if (name == "churn_cycloid_ertf") {
    // Complete-Cycloid node count (d * 2^d), ERT/F, churn, message loss
    // with retries, one crash wave and a sampled continuous audit.
    w.protocol = Protocol::kErtF;
    p.dimension = tiny ? 7 : 11;
    p.num_nodes = static_cast<std::size_t>(p.dimension) << p.dimension;
    p.num_lookups = tiny ? 8'000 : 100'000;
    p.lookup_rate = static_cast<double>(p.num_nodes) / 16.0;
    p.light_service_time = 0.2 / 8.0;
    p.heavy_service_time = 1.0 / 8.0;
    p.churn_interarrival = 0.2;
    w.options.faults.drop_prob = 0.01;
    w.options.faults.max_retries = 4;
    w.options.faults.crash_waves.push_back({tiny ? 10.0 : 40.0,
                                            tiny ? std::size_t{16} : 256});
    w.options.audit.enabled = true;
    w.options.audit.sample = 256;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench

namespace {

using perfbench::Workload;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver run|setup|layers --workload W --seed N"
               " [--tiny] [--meter] [--reps K]"
               " [--pending P] [--heavy-share H] [--shed-share S]"
               " [--grow-share G]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (!*s || *end || s[0] == '-')
    usage((std::string(flag) + " wants an unsigned integer").c_str());
  return v;
}

double parse_double(const char* s, const char* flag) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (!*s || *end || !(v >= 0.0))
    usage((std::string(flag) + " wants a number >= 0").c_str());
  return v;
}

/// FNV-1a over the bit patterns of the model outputs, so equal digests mean
/// equal doubles. Wire counters are left out: the metered run must match
/// the plain run.
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const ert::harness::ExperimentResult& r) {
  Digest d;
  for (double v : {r.p99_max_congestion, r.mean_max_congestion,
                   r.min_cap_node_congestion, r.p99_share, r.avg_path_length,
                   r.lookup_time.mean, r.lookup_time.p01, r.lookup_time.p99,
                   r.avg_timeouts, r.max_indegree.mean, r.max_indegree.p99,
                   r.max_outdegree.mean, r.max_outdegree.p99, r.sim_duration})
    d.add(v);
  for (std::size_t v :
       {r.heavy_encounters, r.completed_lookups, r.dropped_lookups,
        r.dropped_overload, r.dropped_fault, r.final_nodes, r.adapt_sheds,
        r.adapt_grows, r.audit_sweeps, r.audit_violations, r.faults.timed_out,
        r.faults.retried, r.faults.recovered, r.faults.crashed_nodes})
    d.add(static_cast<std::uint64_t>(v));
  return d.get();
}

int run_mode(const Workload& w, bool meter) {
  ert::harness::ExperimentOptions opts = w.options;
  opts.wire.bytes = meter;
  const auto t0 = std::chrono::steady_clock::now();
  const ert::harness::ExperimentResult r =
      w.seeds > 1 ? ert::harness::run_averaged(w.params, w.protocol, w.seeds,
                                               w.substrate, w.threads, opts)
                  : ert::harness::run_experiment(w.params, w.protocol,
                                                 w.substrate, opts);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf(
      "{\"mode\": \"run\", \"workload\": \"%s\", \"wall_s\": %.9g, "
      "\"lookups_total\": %llu, \"lookups_per_seed\": %zu, \"seeds\": %d, "
      "\"nodes\": %zu, "
      "\"completed\": %zu, \"dropped\": %zu, "
      "\"dropped_overload\": %zu, \"dropped_fault\": %zu, "
      "\"avg_path_length\": %.9g, \"p99_max_congestion\": %.9g, "
      "\"lookup_time_mean\": %.9g, \"sim_duration\": %.9g, "
      "\"heavy_encounters\": %zu, \"adapt_sheds\": %zu, \"adapt_grows\": %zu, "
      "\"audit_enabled\": %s, \"audit_sweeps\": %zu, "
      "\"audit_violations\": %zu, \"faults_timed_out\": %zu, "
      "\"faults_retried\": %zu, \"faults_recovered\": %zu, "
      "\"crashed_nodes\": %zu, \"final_nodes\": %zu, \"lookup_rate\": %.9g, "
      "\"adapt_period\": %.9g, \"adaptive\": %s, \"digest\": \"%016llx\", "
      "\"peak_rss_kib\": %zu",
      w.name.c_str(), wall,
      static_cast<unsigned long long>(w.lookups_total()),
      w.params.num_lookups, w.seeds, w.params.num_nodes,
      r.completed_lookups, r.dropped_lookups, r.dropped_overload,
      r.dropped_fault, r.avg_path_length, r.p99_max_congestion,
      r.lookup_time.mean, r.sim_duration, r.heavy_encounters, r.adapt_sheds,
      r.adapt_grows, w.options.audit.enabled ? "true" : "false",
      r.audit_sweeps, r.audit_violations, r.faults.timed_out,
      r.faults.retried, r.faults.recovered, r.faults.crashed_nodes,
      r.final_nodes, w.params.lookup_rate, w.params.adapt_period,
      ert::harness::uses_adaptation(w.protocol) ? "true" : "false",
      static_cast<unsigned long long>(digest(r)), ert::peak_rss_kb());
  if (meter) {
    std::printf(", \"wire\": {\"control_bytes\": %llu, \"query_bytes\": %llu, "
                "\"msg_count\": [",
                static_cast<unsigned long long>(r.bytes.control_bytes),
                static_cast<unsigned long long>(r.bytes.query_bytes));
    for (std::size_t i = 0; i < ert::wire::kNumMsgTypes; ++i)
      std::printf("%s%llu", i ? ", " : "",
                  static_cast<unsigned long long>(r.bytes.msg_count[i]));
    std::printf("]}");
  }
  std::printf("}\n");
  return 0;
}

int setup_mode(const Workload& w, std::uint64_t reps) {
  std::printf("{\"mode\": \"setup\", \"workload\": \"%s\", \"setup_s\": [",
              w.name.c_str());
  std::size_t nodes = 0;
  for (std::uint64_t i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = ert::harness::run_build_only(w.params, w.protocol,
                                                  w.substrate);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    nodes = rep.real_nodes;
    std::printf("%s%.9g", i ? ", " : "", s);
  }
  std::printf("], \"real_nodes\": %zu}\n", nodes);
  return nodes == w.params.num_nodes ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  const std::string mode = argv[1];
  std::string name;
  std::uint64_t seed = 0, reps = 1;
  bool have_seed = false, tiny = false, meter = false;
  perfbench::LoadMix mix;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") name = need();
    else if (a == "--seed") { seed = parse_u64(need(), "--seed"); have_seed = true; }
    else if (a == "--tiny") tiny = true;
    else if (a == "--meter") meter = true;
    else if (a == "--reps") reps = parse_u64(need(), "--reps");
    else if (a == "--pending") mix.pending = parse_double(need(), "--pending");
    else if (a == "--heavy-share") mix.heavy_share = parse_double(need(), "--heavy-share");
    else if (a == "--shed-share") mix.shed_share = parse_double(need(), "--shed-share");
    else if (a == "--grow-share") mix.grow_share = parse_double(need(), "--grow-share");
    else usage(("unknown option " + a).c_str());
  }
  if (!have_seed) usage("--seed is required");
  if (reps < 1 || reps > 1000) usage("--reps wants 1..1000");
  if (mix.heavy_share > 1.0 || mix.shed_share + mix.grow_share > 1.0)
    usage("--heavy-share and --shed-share + --grow-share want 0..1");
  Workload w;
  if (!perfbench::make_workload(name, seed, tiny, &w))
    usage(("unknown workload '" + name + "'").c_str());

  if (mode == "run") return run_mode(w, meter);
  if (mode == "setup") return setup_mode(w, reps);
  if (mode == "layers") return perfbench::run_layers(w, mix);
  usage(("unknown mode " + mode).c_str());
}
