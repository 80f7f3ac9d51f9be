// The DSE determinism contract: explore(), the optimize_* searches and
// pareto_frontier() return byte-identical results with pruning on or off
// and on repeated runs — candidates are evaluated in enumeration order,
// and selection uses the explicit deterministic comparator instead of
// enumeration order.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/optimizer.hpp"
#include "stencil/kernels.hpp"

namespace scl::core {
namespace {

using scl::sim::DesignKind;

/// Exact comparison, doubles included: "byte-identical" is the contract.
void expect_identical(const DesignPoint& a, const DesignPoint& b,
                      const char* context) {
  EXPECT_EQ(a.config, b.config) << context;
  EXPECT_EQ(std::memcmp(&a.prediction, &b.prediction, sizeof(a.prediction)),
            0)
      << context;
  EXPECT_EQ(a.resources.total, b.resources.total) << context;
  EXPECT_EQ(a.resources.worst_kernel, b.resources.worst_kernel) << context;
  EXPECT_EQ(a.resources.buffer_elements_total, b.resources.buffer_elements_total)
      << context;
  EXPECT_EQ(a.resources.pipe_count, b.resources.pipe_count) << context;
}

void expect_identical(const std::vector<DesignPoint>& a,
                      const std::vector<DesignPoint>& b,
                      const char* context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_identical(a[i], b[i], context);
  }
}

struct Scenario {
  const char* name;
  scl::stencil::StencilProgram program;
};

std::vector<Scenario> scenarios() {
  // Scaled-down instances of three suite kernels; small enough to search
  // twice (pruned and exhaustive), large enough that the 2-D/3-D spaces
  // exercise every enumeration axis.
  std::vector<Scenario> out;
  out.push_back({"Jacobi-2D", scl::stencil::make_jacobi2d(512, 512, 64)});
  out.push_back({"Jacobi-3D", scl::stencil::make_jacobi3d(64, 64, 64, 16)});
  out.push_back({"HotSpot-3D", scl::stencil::make_hotspot3d(64, 64, 64, 16)});
  return out;
}

TEST(DseDeterminismTest, CrossFamilyOptimaMatchWithPruningOnAndOff) {
  // Admissibility acceptance: for each family the branch-and-bound
  // optimum equals the exhaustive optimum, bit for bit.
  for (const Scenario& scenario : scenarios()) {
    SCOPED_TRACE(scenario.name);
    OptimizerOptions exhaustive_options;
    exhaustive_options.prune = false;
    const Optimizer exhaustive(scenario.program, exhaustive_options);
    OptimizerOptions pruned_options;
    pruned_options.prune = true;
    const Optimizer pruned(scenario.program, pruned_options);

    const DesignPoint base_e = exhaustive.optimize_baseline();
    const DesignPoint base_p = pruned.optimize_baseline();
    expect_identical(base_p, base_e, "baseline prune on/off");
    expect_identical(pruned.optimize_heterogeneous(base_p),
                     exhaustive.optimize_heterogeneous(base_e),
                     "heterogeneous prune on/off");
    expect_identical(pruned.optimize_temporal(),
                     exhaustive.optimize_temporal(),
                     "temporal prune on/off");
  }
}

TEST(DseDeterminismTest, RepeatedRunsAreStable) {
  // Same optimizer, repeated searches (now cache-warm): identical output.
  const auto p = scl::stencil::make_jacobi2d(512, 512, 64);
  const Optimizer opt(p, OptimizerOptions{});
  const std::vector<DesignPoint> first = opt.explore(DesignKind::kBaseline);
  const std::vector<DesignPoint> second = opt.explore(DesignKind::kBaseline);
  expect_identical(first, second, "cache-warm explore");
}

TEST(DseDeterminismTest, ComparatorBreaksLatencyTiesExplicitly) {
  // The satellite contract: equal-latency designs rank by BRAM, then
  // FF/LUT, then the canonical config key — never by enumeration order.
  DesignPoint a;
  a.config.fused_iterations = 8;
  a.prediction.total_cycles = 1000.0;
  a.resources.total = fpga::ResourceVector{100, 100, 10, 50};
  DesignPoint b = a;
  b.config.fused_iterations = 16;

  // Lower BRAM wins at equal latency.
  b.resources.total.bram18 = 40;
  EXPECT_TRUE(design_order(b, a));
  EXPECT_FALSE(design_order(a, b));

  // Equal BRAM: lower FF wins.
  b.resources.total.bram18 = 50;
  b.resources.total.ff = 90;
  EXPECT_TRUE(design_order(b, a));

  // Equal resources: the config key decides — and is antisymmetric.
  b.resources.total = a.resources.total;
  EXPECT_TRUE(design_order(a, b));   // h=8 orders before h=16
  EXPECT_FALSE(design_order(b, a));

  // Latency dominates everything.
  b.prediction.total_cycles = 999.0;
  b.resources.total = fpga::ResourceVector{100000, 100000, 1000, 5000};
  EXPECT_TRUE(design_order(b, a));

  // Irreflexive (a strict ordering).
  EXPECT_FALSE(design_order(a, a));
}

TEST(DseDeterminismTest, BestIsFeasibleAndNearOptimal) {
  // The chosen design must come from the feasible set and sit within the
  // near-tie band of the latency optimum (the selection may prefer a
  // marginally slower design with more compute units, never more).
  const auto p = scl::stencil::make_jacobi2d(512, 512, 64);
  const Optimizer opt(p, OptimizerOptions{});
  const DesignPoint best = opt.optimize_baseline();
  const std::vector<DesignPoint> feasible =
      opt.explore(DesignKind::kBaseline);

  bool found = false;
  for (const DesignPoint& point : feasible) {
    EXPECT_GE(point.prediction.total_cycles,
              best.prediction.total_cycles / 1.01);
    if (point.config == best.config) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace scl::core
