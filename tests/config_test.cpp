// Table 2 fidelity: the defaults in SimParams are the paper's simulation
// parameters. If someone changes a default, this test makes the deviation
// explicit.
#include "common/config.h"

#include <gtest/gtest.h>


namespace ert {
namespace {

TEST(Table2, Defaults) {
  const SimParams p;
  EXPECT_EQ(p.dimension, 8);
  EXPECT_EQ(p.num_nodes, 2048u);  // = d * 2^d, a full Cycloid
  EXPECT_EQ(p.pareto_shape, 2.0);
  EXPECT_EQ(p.capacity_lo, 500.0);
  EXPECT_EQ(p.capacity_hi, 50000.0);
  EXPECT_EQ(p.num_lookups, 3000u);
  EXPECT_EQ(p.gamma_l, 1.0);
  EXPECT_EQ(p.mu, 0.5);
  EXPECT_EQ(p.adapt_period, 1.0);
  EXPECT_EQ(p.alpha(), 11.0);  // dimension + 3
  EXPECT_EQ(p.light_service_time, 0.2);
  EXPECT_EQ(p.heavy_service_time, 1.0);
}

TEST(Table2, AlphaTracksDimension) {
  SimParams p;
  p.dimension = 10;
  EXPECT_EQ(p.alpha(), 13.0);
  p.alpha_override = 7.0;
  EXPECT_EQ(p.alpha(), 7.0);
}

TEST(Table2, WorkloadExtrasOffByDefault) {
  const SimParams p;
  EXPECT_EQ(p.churn_interarrival, 0.0);
  EXPECT_EQ(p.impulse_nodes, 0u);
  EXPECT_FALSE(p.data_forwarding);
  EXPECT_FALSE(p.trace_timeline);
  EXPECT_EQ(p.probe_cost, 0.0);
  EXPECT_EQ(p.poll_size, 2);  // b = 2, the supermarket knee
  EXPECT_TRUE(p.use_memory);
  EXPECT_TRUE(p.propagate_overloaded);
}

}  // namespace
}  // namespace ert
