// Cross-family Pareto behavior: with the device fixed, the optimizer's
// family choice flips with the problem scale. Small grids amortize
// nothing — the pipe-tiling sweep pays its per-pass kernel launches on a
// tiny cell count, while the temporal cascade folds T time steps into
// one deep pipeline — so the temporal family wins. At the paper's grid
// scale the cascade's shift registers grow with T x row width, BRAM caps
// the temporal degree, and the spatial tiling family takes over.
#include <gtest/gtest.h>

#include "arch/family.hpp"
#include "core/framework.hpp"
#include "core/optimizer.hpp"
#include "fpga/device.hpp"
#include "stencil/kernels.hpp"

namespace scl::core {
namespace {

using scl::arch::DesignFamily;

FrameworkOptions auto_options() {
  FrameworkOptions options;
  options.optimizer.device = fpga::find_device("xc7vx690t");
  options.simulate = false;
  options.generate_code = false;
  options.analyze = false;
  return options;
}

TEST(FamilyCrossover, TemporalWinsTheSmallGrid) {
  const auto program = scl::stencil::make_jacobi2d(64, 64, 64);
  const SynthesisReport report =
      Framework(program, auto_options()).synthesize();
  ASSERT_TRUE(report.temporal.has_value());
  EXPECT_LT(report.temporal->prediction.total_cycles,
            report.heterogeneous.prediction.total_cycles);
  EXPECT_EQ(report.selected_family, DesignFamily::kTemporalShift);
  EXPECT_EQ(report.selected().config.family, DesignFamily::kTemporalShift);
}

TEST(FamilyCrossover, PipeTilingWinsTheLargeGrid) {
  // Same kernel, same device — only the grid scale changes.
  const auto program = scl::stencil::make_jacobi2d(2048, 2048, 64);
  const SynthesisReport report =
      Framework(program, auto_options()).synthesize();
  ASSERT_TRUE(report.temporal.has_value());
  EXPECT_GT(report.temporal->prediction.total_cycles,
            report.heterogeneous.prediction.total_cycles);
  EXPECT_EQ(report.selected_family, DesignFamily::kPipeTiling);
  EXPECT_EQ(report.selected().config.family, DesignFamily::kPipeTiling);
}

TEST(FamilyCrossover, RetainedFrontierHoldsBothFamilies) {
  const auto program = scl::stencil::make_jacobi2d(512, 512, 64);
  OptimizerOptions options;
  options.device = fpga::find_device("xc7vx690t");
  const Optimizer optimizer(program, options);
  const DesignPoint base = optimizer.optimize_baseline();
  (void)optimizer.optimize_heterogeneous(base);
  (void)optimizer.optimize_temporal();
  bool saw_pipe = false;
  bool saw_temporal = false;
  for (const DesignPoint& point : optimizer.retained_frontier()) {
    saw_pipe |= point.config.family == DesignFamily::kPipeTiling;
    saw_temporal |= point.config.family == DesignFamily::kTemporalShift;
  }
  EXPECT_TRUE(saw_pipe);
  EXPECT_TRUE(saw_temporal)
      << "the latency/BRAM trade-off curve must expose both architectures";
}

TEST(FamilyCrossover, ForcedFamilyOverridesTheAutoWinner) {
  // On the large grid auto picks pipe-tiling; forcing temporal-shift
  // must emit the (slower) cascade design instead.
  const auto program = scl::stencil::make_jacobi2d(2048, 2048, 64);
  FrameworkOptions options = auto_options();
  options.family = FamilySelection::kTemporalShift;
  const SynthesisReport report = Framework(program, options).synthesize();
  EXPECT_EQ(report.selected_family, DesignFamily::kTemporalShift);

  options.family = FamilySelection::kPipeTiling;
  const SynthesisReport spatial = Framework(program, options).synthesize();
  EXPECT_FALSE(spatial.temporal.has_value())
      << "pipe-tiling-only flows skip the temporal search entirely";
  EXPECT_EQ(spatial.selected_family, DesignFamily::kPipeTiling);
}

TEST(FamilyCrossover, HbmBanksFlipTemporalDeepToSpatialWide) {
  // The device-driven crossover the multi-bank model exists for: the
  // DDR board's single channel rewards folding time, so its temporal
  // optimum is a deep unreplicated cascade (large T). The HBM part's 32
  // banks reward width — the optimum trades cascade depth for spatially
  // replicated PEs bound to disjoint bank groups (R > 1, smaller T).
  const auto program = scl::stencil::make_jacobi2d(192, 192, 64);
  auto temporal_on = [&](const char* device) {
    OptimizerOptions options;
    options.device = fpga::find_device(device);
    const Optimizer optimizer(program, options);
    return optimizer.optimize_temporal();
  };
  const DesignPoint deep = temporal_on("xc7vx690t");
  EXPECT_EQ(deep.config.replication, 1);
  const DesignPoint wide = temporal_on("xcu280");
  EXPECT_GT(wide.config.replication, 1)
      << "the HBM temporal winner must use spatial replication";
  EXPECT_LT(wide.config.fused_iterations, deep.config.fused_iterations)
      << "bank-fed replicas should displace cascade depth";
}

TEST(FamilyCrossover, HbmWinnerUsesSpatialReplication) {
  // At a scale where both families fit, the full auto flow on the HBM
  // part selects a spatially replicated pipe-tiling design, while the
  // DDR board at the same scale stays at R=1.
  const auto program = scl::stencil::make_jacobi2d(512, 512, 64);
  FrameworkOptions hbm = auto_options();
  hbm.optimizer.device = fpga::find_device("xcu280");
  const SynthesisReport on_hbm = Framework(program, hbm).synthesize();
  EXPECT_EQ(on_hbm.selected_family, DesignFamily::kPipeTiling);
  EXPECT_GT(on_hbm.selected().config.replication, 1);

  const SynthesisReport on_ddr =
      Framework(program, auto_options()).synthesize();
  EXPECT_EQ(on_ddr.selected().config.replication, 1);
}

TEST(FamilyCrossover, HbmWinnerIsInvariantToPruning) {
  // The pinned crossover must be a property of the model, not of the
  // search schedule: the pruned search and the exhaustive oracle land on
  // the byte-identical winning design.
  const auto program = scl::stencil::make_jacobi2d(512, 512, 64);
  OptimizerOptions options;
  options.device = fpga::find_device("xcu280");
  const Optimizer optimizer(program, options);
  const DesignPoint reference =
      optimizer.optimize_heterogeneous(optimizer.optimize_baseline());
  EXPECT_GT(reference.config.replication, 1);
  const DesignPoint base =
      select_best(optimizer.explore(optimizer.baseline_space()));
  const DesignPoint other =
      select_best(optimizer.explore(optimizer.heterogeneous_space(base)));
  EXPECT_EQ(reference.config, other.config);
  EXPECT_EQ(reference.prediction.total_cycles, other.prediction.total_cycles);
  EXPECT_EQ(reference.resources.total.bram18, other.resources.total.bram18);
}

}  // namespace
}  // namespace scl::core
