#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "core/report.hpp"
#include "core/verify.hpp"
#include "fpga/device.hpp"
#include "sim/executor.hpp"
#include "stencil/kernels.hpp"
#include "support/observability/observability.hpp"

namespace scl::core {
namespace {

using scl::sim::DesignConfig;
using scl::sim::DesignKind;

// --- feature extraction -------------------------------------------------------

TEST(FeaturesTest, Jacobi2d) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 16);
  const StencilFeatures f = extract_features(p);
  EXPECT_EQ(f.name, "Jacobi-2D");
  EXPECT_EQ(f.dims, 2);
  EXPECT_EQ(f.field_count, 1);
  EXPECT_EQ(f.stage_count, 1);
  EXPECT_FALSE(f.multi_stage);
  EXPECT_TRUE(f.needs_double_buffer);
  EXPECT_EQ(f.ops_per_cell.adds, 4);
  EXPECT_EQ(f.ops_per_cell.muls, 1);
  EXPECT_EQ(f.delta_w[0], 2);
  EXPECT_EQ(f.hls.ii, 3);
  EXPECT_GT(f.flops_per_byte, 0.0);
}

TEST(FeaturesTest, FdtdIsMultiStageInPlace) {
  const auto p = scl::stencil::make_fdtd2d(64, 64, 16);
  const StencilFeatures f = extract_features(p);
  EXPECT_TRUE(f.multi_stage);
  EXPECT_FALSE(f.needs_double_buffer);
  EXPECT_EQ(f.stage_count, 3);
  EXPECT_EQ(f.mutable_field_count, 3);
}

TEST(FeaturesTest, ToStringMentionsKeyFacts) {
  const auto p = scl::stencil::make_hotspot3d(32, 32, 32, 8);
  const std::string s = extract_features(p).to_string();
  EXPECT_NE(s.find("HotSpot-3D"), std::string::npos);
  EXPECT_NE(s.find("3-D"), std::string::npos);
  EXPECT_NE(s.find("2 field(s)"), std::string::npos);
}

// --- resource estimation --------------------------------------------------------

TEST(ResourceEstimatorTest, HeteroSavesBramAtEqualShape) {
  const auto p = scl::stencil::make_jacobi2d(512, 512, 128);
  const fpga::ResourceModel model(fpga::virtex7_690t());
  DesignConfig base;
  base.kind = DesignKind::kBaseline;
  base.fused_iterations = 16;
  base.parallelism = {2, 2, 1};
  base.tile_size = {64, 64, 1};
  DesignConfig het = base;
  het.kind = DesignKind::kHeterogeneous;
  const DesignResources rb = estimate_design_resources(p, base, model);
  const DesignResources rh = estimate_design_resources(p, het, model);
  EXPECT_LT(rh.total.bram18, rb.total.bram18);
  EXPECT_EQ(rh.total.dsp, rb.total.dsp);
  EXPECT_EQ(rb.pipe_count, 0);
  EXPECT_GT(rh.pipe_count, 0);
}

TEST(ResourceEstimatorTest, BaselineBramGrowsWithFusionDepth) {
  const auto p = scl::stencil::make_jacobi2d(512, 512, 128);
  const fpga::ResourceModel model(fpga::virtex7_690t());
  DesignConfig c;
  c.kind = DesignKind::kBaseline;
  c.parallelism = {2, 2, 1};
  c.tile_size = {64, 64, 1};
  c.fused_iterations = 4;
  const auto r4 = estimate_design_resources(p, c, model);
  c.fused_iterations = 32;
  const auto r32 = estimate_design_resources(p, c, model);
  EXPECT_GT(r32.total.bram18, r4.total.bram18);
}

TEST(ResourceEstimatorTest, WorstKernelTracked) {
  const auto p = scl::stencil::make_jacobi2d(512, 512, 128);
  const fpga::ResourceModel model(fpga::virtex7_690t());
  DesignConfig c;
  c.kind = DesignKind::kHeterogeneous;
  c.parallelism = {4, 4, 1};
  c.tile_size = {32, 32, 1};
  c.fused_iterations = 8;
  const auto r = estimate_design_resources(p, c, model);
  EXPECT_GT(r.worst_kernel.lut, 0);
  EXPECT_LT(r.worst_kernel.lut, r.total.lut);
  EXPECT_GT(r.buffer_elements_total, 0);
}

// --- optimizer -------------------------------------------------------------------

TEST(OptimizerTest, BaselineFitsBudget) {
  const auto p = scl::stencil::make_jacobi2d(2048, 2048, 256);
  const Optimizer opt(p, OptimizerOptions{});
  const DesignPoint base = opt.optimize_baseline();
  EXPECT_TRUE(base.resources.total.fits_within(opt.budget()));
  EXPECT_EQ(base.config.kind, DesignKind::kBaseline);
  EXPECT_GT(base.prediction.total_cycles, 0.0);
}

TEST(OptimizerTest, HeterogeneousKeepsParallelismAndUnroll) {
  const auto p = scl::stencil::make_jacobi2d(2048, 2048, 256);
  const Optimizer opt(p, OptimizerOptions{});
  const DesignPoint base = opt.optimize_baseline();
  const DesignPoint het = opt.optimize_heterogeneous(base);
  EXPECT_EQ(het.config.kind, DesignKind::kHeterogeneous);
  EXPECT_EQ(het.config.parallelism, base.config.parallelism);
  EXPECT_EQ(het.config.unroll, base.config.unroll);
  EXPECT_EQ(het.config.tile_size, base.config.tile_size);
  EXPECT_EQ(het.resources.total.dsp, base.resources.total.dsp);
}

TEST(OptimizerTest, HeterogeneousPredictedFaster) {
  const auto p = scl::stencil::make_jacobi2d(2048, 2048, 256);
  const Optimizer opt(p, OptimizerOptions{});
  const DesignPoint base = opt.optimize_baseline();
  const DesignPoint het = opt.optimize_heterogeneous(base);
  EXPECT_LT(het.prediction.total_cycles, base.prediction.total_cycles);
}

TEST(OptimizerTest, HeterogeneousFusesDeeperOrEqual) {
  // The paper's headline structural result: pipe sharing frees BRAM, so
  // the heterogeneous design can fuse at least as deep as the baseline.
  for (const char* name : {"Jacobi-2D", "HotSpot-2D", "Jacobi-3D"}) {
    const auto p = scl::stencil::find_benchmark(name).make_paper_scale();
    const Optimizer opt(p, OptimizerOptions{});
    const DesignPoint base = opt.optimize_baseline();
    const DesignPoint het = opt.optimize_heterogeneous(base);
    EXPECT_GE(het.config.fused_iterations, base.config.fused_iterations)
        << name;
  }
}

TEST(OptimizerTest, RejectsBadOptions) {
  const auto p = scl::stencil::make_jacobi1d(64, 8);
  OptimizerOptions bad;
  bad.resource_fraction = 0.0;
  EXPECT_THROW(Optimizer(p, bad), ContractError);
  bad.resource_fraction = 1.5;
  EXPECT_THROW(Optimizer(p, bad), ContractError);
}

TEST(OptimizerTest, ImpossibleBudgetThrowsResourceError) {
  const auto p = scl::stencil::make_jacobi2d(2048, 2048, 64);
  OptimizerOptions opts;
  opts.device.capacity = fpga::ResourceVector{100, 100, 1, 1};
  const Optimizer opt(p, opts);
  EXPECT_THROW(opt.optimize_baseline(), ResourceError);
}


TEST(OptimizerTest, ParetoFrontierIsSortedAndNonDominated) {
  const auto p = scl::stencil::make_jacobi2d(1024, 1024, 128);
  const Optimizer opt(p, OptimizerOptions{});
  const auto frontier = opt.pareto_frontier(DesignKind::kHeterogeneous);
  ASSERT_FALSE(frontier.empty());
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    // Ascending latency, strictly descending BRAM: no point dominates
    // another.
    EXPECT_LE(frontier[i - 1].prediction.total_cycles,
              frontier[i].prediction.total_cycles);
    EXPECT_GT(frontier[i - 1].resources.total.bram18,
              frontier[i].resources.total.bram18);
  }
  // Every frontier point fits the budget.
  for (const auto& point : frontier) {
    EXPECT_TRUE(point.resources.total.fits_within(opt.budget()));
  }
}

TEST(OptimizerTest, ParetoFrontierHeadMatchesBaselineOptimum) {
  const auto p = scl::stencil::make_jacobi2d(1024, 1024, 128);
  const Optimizer opt(p, OptimizerOptions{});
  const auto frontier = opt.pareto_frontier(DesignKind::kBaseline);
  const DesignPoint best = opt.optimize_baseline();
  ASSERT_FALSE(frontier.empty());
  EXPECT_DOUBLE_EQ(frontier.front().prediction.total_cycles,
                   best.prediction.total_cycles);
}
// --- framework end to end ----------------------------------------------------------

TEST(FrameworkTest, SynthesizeProducesConsistentReport) {
  const auto p = scl::stencil::make_jacobi2d(1024, 1024, 128);
  FrameworkOptions opts;
  const Framework fw(p, opts);
  const SynthesisReport rep = fw.synthesize();

  EXPECT_EQ(rep.features.name, "Jacobi-2D");
  EXPECT_GT(rep.baseline_sim.total_cycles, 0);
  EXPECT_GT(rep.heterogeneous_sim.total_cycles, 0);
  EXPECT_GT(rep.speedup, 1.0);
  // The model must underestimate the simulator for both designs (SS5.6).
  EXPECT_LT(rep.baseline.prediction.total_cycles,
            static_cast<double>(rep.baseline_sim.total_cycles));
  EXPECT_LT(rep.heterogeneous.prediction.total_cycles,
            static_cast<double>(rep.heterogeneous_sim.total_cycles));
  // Generated code present and structurally sound.
  EXPECT_GT(rep.code.kernel_count, 0);
  EXPECT_FALSE(rep.code.kernel_source.empty());
  EXPECT_FALSE(rep.code.host_source.empty());

  const std::string text = rep.to_string();
  EXPECT_NE(text.find("speedup"), std::string::npos);
  EXPECT_NE(text.find("baseline"), std::string::npos);
}

TEST(FrameworkTest, SimulationAndCodegenAreOptional) {
  const auto p = scl::stencil::make_jacobi2d(512, 512, 64);
  FrameworkOptions opts;
  opts.simulate = false;
  opts.generate_code = false;
  const Framework fw(p, opts);
  const SynthesisReport rep = fw.synthesize();
  EXPECT_EQ(rep.baseline_sim.total_cycles, 0);
  EXPECT_EQ(rep.speedup, 0.0);
  EXPECT_TRUE(rep.code.kernel_source.empty());
}

struct CountedSynthesis {
  SynthesisReport report;
  std::int64_t sim_runs = 0;      ///< how far scl_sim_runs_total moved
  std::int64_t verify_spans = 0;  ///< analysis/verify_design spans
};

/// Synthesizes `kernel` at paper scale on `device` (verification passes
/// 1-3, no code) with observability on, counting simulations and design
/// verifications.
CountedSynthesis synthesize_counting(const std::string& kernel,
                                     const std::string& device) {
  const auto p = scl::stencil::find_benchmark(kernel).make_paper_scale();
  FrameworkOptions opts;
  opts.optimizer.device = fpga::find_device(device);
  opts.generate_code = false;
  const bool was_enabled = support::obs::enabled();
  support::obs::set_enabled(true);
  support::obs::tracer().clear();
  auto& runs = support::obs::metrics().counter(
      "scl_sim_runs_total", "device simulations executed");
  const std::int64_t before = runs.value();
  CountedSynthesis out;
  out.report = Framework(p, opts).synthesize();
  out.sim_runs = runs.value() - before;
  for (const support::obs::SpanRecord& span :
       support::obs::tracer().snapshot()) {
    if (span.name == "analysis/verify_design") ++out.verify_spans;
  }
  support::obs::set_enabled(was_enabled);
  return out;
}

TEST(FrameworkTest, SimMetricsCountEveryFamily) {
  // Three distinct designs, temporal included: each is simulated and
  // verified once.
  const auto [rep, runs, verifies] =
      synthesize_counting("Jacobi-2D", "xc7vx690t");
  ASSERT_TRUE(rep.temporal.has_value());
  ASSERT_NE(rep.heterogeneous.config.key(), rep.baseline.config.key());
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(verifies, 3);
  EXPECT_GT(rep.temporal_sim.total_cycles, 0);
}

TEST(FrameworkTest, BaselineStandInIsSimulatedOnce) {
  // No heterogeneous Jacobi-1D design fits xcu280's cap, so the baseline
  // stands in for it: the same design, simulated and verified once for
  // both roles.
  const auto [rep, runs, verifies] =
      synthesize_counting("Jacobi-1D", "xcu280");
  ASSERT_EQ(rep.heterogeneous.config.key(), rep.baseline.config.key());
  ASSERT_TRUE(rep.temporal.has_value());
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(verifies, 2);

  // Verifying the stand-in a second time adds nothing here: the analysis
  // equals the one that merges all three roles.
  const auto p = scl::stencil::find_benchmark("Jacobi-1D").make_paper_scale();
  support::DiagnosticEngine every_role;
  for (const DesignPoint* point :
       {&rep.baseline, &rep.heterogeneous, &*rep.temporal}) {
    every_role.merge(
        verify_design(p, point->config, rep.device, point->resources));
  }
  EXPECT_EQ(rep.analysis.render_text(), every_role.render_text());
  EXPECT_EQ(rep.analysis.diagnostics().size(),
            every_role.diagnostics().size());

  // The reused result is exactly what a second simulation would give, so
  // the report (and the artifact built from it) cannot change.
  SynthesisReport fresh = rep;
  fresh.heterogeneous_sim =
      sim::Executor(rep.device)
          .run(p, rep.heterogeneous.config, sim::SimMode::kTimingOnly);
  const sim::SimResult& a = rep.heterogeneous_sim;
  const sim::SimResult& b = fresh.heterogeneous_sim;
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.total_ms, b.total_ms);
  EXPECT_EQ(a.phases.to_string(), b.phases.to_string());
  EXPECT_EQ(a.phases.total(), b.phases.total());
  EXPECT_EQ(a.region_executions, b.region_executions);
  EXPECT_EQ(a.cells_owned, b.cells_owned);
  EXPECT_EQ(a.cells_redundant, b.cells_redundant);
  EXPECT_EQ(a.pipe_elements, b.pipe_elements);
  EXPECT_EQ(a.global_memory_bytes, b.global_memory_bytes);
  EXPECT_EQ(render_markdown_report(rep), render_markdown_report(fresh));
}

TEST(FrameworkTest, EvaluateBypassesDse) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 32);
  const Framework fw(p, FrameworkOptions{});
  DesignConfig c;
  c.kind = DesignKind::kBaseline;
  c.fused_iterations = 4;
  c.parallelism = {2, 2, 1};
  c.tile_size = {32, 32, 1};
  const DesignPoint point = fw.evaluate(c);
  EXPECT_GT(point.prediction.total_cycles, 0.0);
  EXPECT_GT(point.resources.total.bram18, 0);
}

}  // namespace
}  // namespace scl::core
