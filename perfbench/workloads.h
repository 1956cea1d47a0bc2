// The benchmark's workloads: one named configuration each, built from the
// workload seed. README.md gives the rationale for every choice.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.h"
#include "harness/experiment.h"
#include "harness/protocol.h"
#include "harness/substrate.h"

namespace perfbench {

struct Workload {
  std::string name;
  ert::SimParams params;
  ert::harness::Protocol protocol = ert::harness::Protocol::kErtAF;
  ert::harness::SubstrateKind substrate = ert::harness::SubstrateKind::kCycloid;
  /// > 1 runs through run_averaged on `threads` harness threads.
  int seeds = 1;
  int threads = 1;
  ert::harness::ExperimentOptions options;
  bool tiny = false;  ///< the self-test size; layer drivers shrink too.

  /// Lookups the run sends in total (every seed of an averaged run).
  std::uint64_t lookups_total() const {
    return static_cast<std::uint64_t>(params.num_lookups) *
           static_cast<std::uint64_t>(seeds);
  }
};

/// Builds workload `name` for `seed`. `tiny` shrinks it to a seconds-long
/// version for the self-tests. Returns false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   Workload* out);

}  // namespace perfbench
