// Temporal-shift family plumbing: layout calculus invariants, the
// DesignConfig validation rules of the family, admissibility of the
// temporal lower bound against the exact model/estimator, and the
// pruning-correctness of optimize_temporal.
#include "arch/temporal_layout.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/optimizer.hpp"
#include "model/lower_bound.hpp"
#include "model/perf_model.hpp"
#include "stencil/kernels.hpp"
#include "support/error.hpp"

namespace scl::arch {
namespace {

using scl::core::CandidateAxes;
using scl::core::Optimizer;
using scl::core::OptimizerOptions;
using scl::sim::DesignConfig;
using scl::sim::DesignKind;
using scl::stencil::StencilProgram;

DesignConfig temporal_config(const StencilProgram& program, std::int64_t strip,
                             std::int64_t t_deg, int v) {
  DesignConfig config;
  config.family = DesignFamily::kTemporalShift;
  config.kind = DesignKind::kBaseline;
  config.fused_iterations = t_deg;
  config.unroll = v;
  for (int d = 0; d < program.dims(); ++d) {
    config.tile_size[static_cast<std::size_t>(d)] =
        program.grid_box().extent(d);
  }
  config.tile_size[static_cast<std::size_t>(program.dims() - 1)] = strip;
  return config;
}

TEST(TemporalLayout, Jacobi2dGeometry) {
  const StencilProgram prog = scl::stencil::make_jacobi2d(64, 64, 8);
  const DesignConfig config = temporal_config(prog, 16, 4, 2);
  config.validate(prog);
  const TemporalLayout lay = make_temporal_layout(prog, config);

  EXPECT_EQ(lay.strip_dim, 1);
  EXPECT_EQ(lay.strip[0], 64);  // full extent along the outer dimension
  EXPECT_EQ(lay.strip[1], 16);
  // Jacobi radius 1 per side: the strip pads T cells of halo per side.
  EXPECT_EQ(lay.pad_lo[1], 4);
  EXPECT_EQ(lay.pad_hi[1], 4);
  EXPECT_EQ(lay.pad_lo[0], 0);
  EXPECT_EQ(lay.ext[1], 24);
  EXPECT_EQ(lay.cells, 64 * 24);
  EXPECT_EQ(lay.owned_cells, 64 * 16);

  // One stage reading a 5-point star: forward reach is one full row
  // (+1 along dim 0 = stride ext[1]).
  ASSERT_EQ(lay.stage_span.size(), 1u);
  EXPECT_EQ(lay.stage_span[0], lay.ext[1]);
  EXPECT_EQ(lay.step_delay, lay.ext[1]);
  EXPECT_EQ(lay.max_store_delay, lay.compute_delay(4, 0));
  EXPECT_EQ(lay.walk_ticks, lay.cells + lay.max_store_delay);

  // States 0..T-1 materialized (passthrough), each register holds at
  // least the step delay + 1 once it has a one-step-behind reader.
  for (int k = 0; k < 4; ++k) {
    const int idx = lay.reg_index(0, k);
    ASSERT_GE(idx, 0) << "state " << k;
    EXPECT_GE(lay.regs[static_cast<std::size_t>(idx)].len,
              k + 1 < 4 ? lay.step_delay + 1 : 1);
  }
  EXPECT_EQ(lay.reg_index(0, 4), -1);  // the final state streams to DDR
  std::int64_t total = 0;
  for (const TemporalReg& reg : lay.regs) total += reg.len;
  EXPECT_EQ(total, lay.sr_elements);

  EXPECT_EQ(lay.n_strips, 4);
  EXPECT_EQ(lay.n_passes, 2);
}

TEST(TemporalLayout, MultiFieldProgramsMaterializeEveryMutableState) {
  const StencilProgram prog = scl::stencil::make_fdtd2d(32, 32, 6);
  const DesignConfig config = temporal_config(prog, 8, 3, 1);
  config.validate(prog);
  const TemporalLayout lay = make_temporal_layout(prog, config);
  for (int f = 0; f < prog.field_count(); ++f) {
    if (prog.is_constant_field(f)) continue;
    for (int k = 0; k < 3; ++k) {
      EXPECT_GE(lay.reg_index(f, k), 0) << "field " << f << " state " << k;
    }
  }
  // Shift-register state grows monotonically with the temporal degree
  // (the resource chain cut depends on this).
  const TemporalLayout deeper = make_temporal_layout(
      prog, temporal_config(prog, 8, 6, 1));
  EXPECT_GT(deeper.sr_elements, lay.sr_elements);
  EXPECT_GT(deeper.max_store_delay, lay.max_store_delay);
}

TEST(TemporalLayout, ValidateRejectsMalformedTemporalConfigs) {
  const StencilProgram prog = scl::stencil::make_jacobi2d(64, 64, 10);
  DesignConfig config = temporal_config(prog, 16, 5, 1);
  EXPECT_NO_THROW(config.validate(prog));
  config.fused_iterations = 3;  // does not divide H = 10
  EXPECT_THROW(config.validate(prog), Error);
  config = temporal_config(prog, 16, 5, 1);
  config.parallelism = {2, 1, 1};
  EXPECT_THROW(config.validate(prog), Error);
  config = temporal_config(prog, 16, 5, 1);
  config.tile_size[0] = 32;  // outer dimensions keep the full extent
  EXPECT_THROW(config.validate(prog), Error);
  config = temporal_config(prog, 128, 5, 1);  // strip wider than the grid
  EXPECT_THROW(config.validate(prog), Error);
}

TEST(TemporalLayout, SpatialTwinIsAValidBaseline) {
  const StencilProgram prog = scl::stencil::make_hotspot2d(64, 64, 8);
  const DesignConfig config = temporal_config(prog, 16, 4, 2);
  const DesignConfig twin = spatial_twin(config);
  EXPECT_EQ(twin.family, DesignFamily::kPipeTiling);
  EXPECT_EQ(twin.kind, DesignKind::kBaseline);
  EXPECT_NO_THROW(twin.validate(prog));
  // The family word is the only key difference, and it leads the key.
  EXPECT_NE(config.key(), twin.key());
  EXPECT_LT(twin.key(), config.key());
}

TEST(TemporalLayout, LowerBoundAdmissibleAcrossTemporalSpace) {
  for (const char* name : {"Jacobi-2D", "HotSpot-2D", "FDTD-2D"}) {
    const auto& info = scl::stencil::find_benchmark(name);
    const StencilProgram prog = info.make_scaled({96, 96, 1}, 12);
    OptimizerOptions options;
    const Optimizer optimizer(prog, options);
    const model::LowerBoundModel bound_model(prog, options.device);
    const model::PerfModel exact(prog, options.device, options.cone_mode);
    const CandidateAxes axes = optimizer.space().temporal_axes();
    for (std::int64_t i = 0; i < axes.size(); ++i) {
      const DesignConfig config = axes.config(i);
      const model::LowerBound lb = bound_model.bound(config);
      const auto point = optimizer.evaluate(config);
      EXPECT_LE(lb.cycles, exact.predict(config).total_cycles * 1.0000001)
          << name << " " << config.summary(prog.dims());
      EXPECT_LE(lb.floor.bram18, point.resources.total.bram18)
          << name << " " << config.summary(prog.dims());
    }
  }
}

TEST(TemporalLayout, OptimizeTemporalPruneInvariant) {
  const StencilProgram prog = scl::stencil::make_jacobi2d(128, 128, 16);
  const Optimizer optimizer(prog, OptimizerOptions{});
  const auto a = optimizer.optimize_temporal();
  const auto b =
      scl::core::select_best(optimizer.explore(optimizer.temporal_space()));
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.config.family, DesignFamily::kTemporalShift);
  EXPECT_EQ(0, std::memcmp(&a.prediction, &b.prediction,
                           sizeof(model::Prediction)));
}

}  // namespace
}  // namespace scl::arch
