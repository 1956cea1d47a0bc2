// Per-layer timing driver (README.md, "Per-layer metrics").
#pragma once

#include "workloads.h"

namespace perfbench {

/// The real run's load, as the layer drivers reproduce it.
struct LoadMix {
  double pending = 0.0;      ///< events held queued in the kernel phases.
  double heavy_share = 0.5;  ///< probed nodes above gamma_l (Algorithm 4).
  double shed_share = 0.0;   ///< nodes shedding per Algorithm-3 sweep.
  double grow_share = 0.0;   ///< nodes deciding to grow per sweep.
};

/// Builds the workload's network through the public SubstrateOps API with
/// the engine's draw sequence, then times calls into each layer: the
/// construction calls, route_step, Algorithm 4, Algorithm-3 sweeps, churn
/// joins and leaves, the event kernel and the sharded window loop, each
/// under `mix`. Prints one JSON object with the metrics and the recorded
/// spans; returns the process exit code.
int run_layers(const Workload& w, const LoadMix& mix);

}  // namespace perfbench
