// The DSE determinism contract: explore(), the optimize_* searches and
// pareto_frontier() return byte-identical results with pruning on or off
// (search() against the exhaustive oracle) and on repeated runs —
// candidates are evaluated in enumeration order, and selection is a total
// order (select_best, design_order) instead of enumeration order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/optimizer.hpp"
#include "stencil/kernels.hpp"

namespace scl::core {
namespace {

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
  // twice (searched and exhaustive), large enough that the 2-D/3-D spaces
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
    const Optimizer optimizer(scenario.program, OptimizerOptions{});
    auto oracle = [&](const SearchSpace& space) {
      return select_best(optimizer.explore(space));
    };
    const DesignPoint base = optimizer.optimize_baseline();
    expect_identical(base, oracle(optimizer.baseline_space()),
                     "baseline prune on/off");
    expect_identical(optimizer.optimize_heterogeneous(base),
                     oracle(optimizer.heterogeneous_space(base)),
                     "heterogeneous prune on/off");
    expect_identical(optimizer.optimize_temporal(),
                     oracle(optimizer.temporal_space()),
                     "temporal prune on/off");
  }
}

TEST(DseDeterminismTest, RepeatedRunsAreStable) {
  // Same optimizer, repeated walks: identical output.
  const auto p = scl::stencil::make_jacobi2d(512, 512, 64);
  const Optimizer opt(p, OptimizerOptions{});
  const std::vector<DesignPoint> first = opt.explore(opt.baseline_space());
  const std::vector<DesignPoint> second = opt.explore(opt.baseline_space());
  expect_identical(first, second, "repeated explore");
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
  const std::vector<DesignPoint> feasible = opt.explore(opt.baseline_space());

  bool found = false;
  for (const DesignPoint& point : feasible) {
    EXPECT_GE(point.prediction.total_cycles,
              best.prediction.total_cycles / 1.01);
    if (point.config == best.config) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DseDeterminismTest, NearTieChainSelectsWithinTheOptimumsBand) {
  // A near-tie chain: B is within kNearTie of A, and C within kNearTie of
  // B but not of A. A running-best scan over the pairwise near-tie test
  // would walk A -> B -> C in this order; the two-step rule only ties
  // designs to the fastest one, so it picks B (more kernels than A, and
  // C lies outside A's band) under every input order.
  auto point = [](double cycles, int kernels) {
    DesignPoint p;
    p.prediction.total_cycles = cycles;
    p.config.parallelism = {kernels, 1, 1};
    p.resources.total = fpga::ResourceVector{100, 100, 10, 50};
    return p;
  };
  const DesignPoint a = point(1.0e6, 1);
  const DesignPoint b = point(1.0004e6, 2);
  const DesignPoint c = point(1.0008e6, 4);
  ASSERT_LE(b.prediction.total_cycles, kNearTie * a.prediction.total_cycles);
  ASSERT_LE(c.prediction.total_cycles, kNearTie * b.prediction.total_cycles);
  ASSERT_GT(c.prediction.total_cycles, kNearTie * a.prediction.total_cycles);

  std::vector<DesignPoint> order{a, b, c};
  std::sort(order.begin(), order.end(), design_order);
  int permutations = 0;
  do {
    expect_identical(select_best(order), b, "near-tie chain");
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end(), design_order));
  EXPECT_EQ(permutations, 6);
}

}  // namespace
}  // namespace scl::core
