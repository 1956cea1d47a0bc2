#include "ert/forwarding.h"

#include <algorithm>
#include <cassert>

namespace ert::core {

ForwardDecision forward_topology_aware(
    dht::RoutingEntry& entry, const std::vector<dht::NodeIndex>& candidates,
    const std::vector<dht::NodeIndex>& overloaded,
    const TopoForwardOptions& opts, const ProbeFn& probe, Rng& rng) {
  OverloadedSet a;
  for (dht::NodeIndex n : overloaded) a.insert(n);
  ForwardScratch scratch;
  const ForwardStep s = forward_topology_aware(
      entry, std::span<const dht::NodeIndex>(candidates), a, opts, probe, rng,
      scratch);
  ForwardDecision d;
  d.next = s.next;
  d.probes = s.probes;
  d.newly_overloaded = std::move(scratch.newly_overloaded);
  return d;
}

}  // namespace ert::core
