// Runs an overlay's structural audit the way the invariant auditor's sweep
// does (the whole-network checks once, then every node's link, budget and
// geometry checks) and turns the violations into a gtest assertion, so the
// overlay tests exercise the same checks in every build type.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>

#include "dht/types.h"
#include "ert/audit_sink.h"

namespace ert {

/// Usage: EXPECT_TRUE(structure_ok(overlay)).
template <typename Overlay>
::testing::AssertionResult structure_ok(const Overlay& o) {
  struct Collect final : core::AuditSink {
    std::size_t count = 0;
    std::string text;
    void report(const char* invariant, dht::NodeIndex node, double observed,
                double bound, const char* what) override {
      if (++count > 8) return;  // the first few say enough
      char line[256];
      std::snprintf(line, sizeof(line), "%s node=%zu observed=%g bound=%g %s\n",
                    invariant, static_cast<std::size_t>(node), observed, bound,
                    what);
      text += line;
    }
  } sink;
  o.audit_network(sink);
  for (dht::NodeIndex i = 0; i < o.num_slots(); ++i) o.audit_node(i, sink);
  if (sink.count == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << sink.count << " structural violation(s):\n" << sink.text;
}

}  // namespace ert
