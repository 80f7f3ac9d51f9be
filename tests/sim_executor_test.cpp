// Functional correctness of the tiled designs against the golden reference,
// plus timing-path invariants. These are the load-bearing tests of the
// whole reproduction: if the overlapped cones, the validity calculus, or
// the pipe protocol were wrong anywhere, the bit-exact comparisons here
// would fail.
#include <gtest/gtest.h>

#include "fpga/device.hpp"
#include "sim/executor.hpp"
#include "stencil/kernels.hpp"
#include "stencil/parser.hpp"
#include "stencil/reference.hpp"

namespace scl::sim {
namespace {

using scl::stencil::BenchmarkInfo;
using scl::stencil::FieldSet;
using scl::stencil::ReferenceExecutor;
using scl::stencil::StencilProgram;
using scl::stencil::for_each_cell;
using scl::stencil::Index;

fpga::DeviceSpec test_device() { return fpga::virtex7_690t(); }

/// Runs `config` functionally and requires every field to match the
/// reference executor bit-exactly on the whole grid.
void expect_bit_exact(const StencilProgram& program,
                      const DesignConfig& config) {
  const Executor exec(test_device());
  const SimResult result = exec.run(program, config, SimMode::kFunctional);
  ASSERT_TRUE(result.fields.has_value());

  ReferenceExecutor ref(program);
  ref.run(program.iterations());

  for (int f = 0; f < program.field_count(); ++f) {
    std::int64_t mismatches = 0;
    Index first{-1, -1, -1};
    for_each_cell(program.grid_box(), [&](const Index& p) {
      const float got = (*result.fields)[static_cast<std::size_t>(f)].at(p);
      const float want = ref.field(f).at(p);
      if (got != want && mismatches++ == 0) first = p;
    });
    EXPECT_EQ(mismatches, 0)
        << program.name() << " field " << f << " ("
        << program.field(f).name << ") first mismatch at " << first[0] << ","
        << first[1] << "," << first[2] << " under " << config.summary(program.dims());
  }
}

DesignConfig make_config(DesignKind kind, int dims, std::int64_t h,
                         std::array<int, 3> par,
                         std::array<std::int64_t, 3> tile,
                         std::array<std::int64_t, 3> shrink = {0, 0, 0}) {
  DesignConfig c;
  c.kind = kind;
  c.fused_iterations = h;
  for (int d = 0; d < 3; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    c.parallelism[ds] = d < dims ? par[ds] : 1;
    c.tile_size[ds] = d < dims ? tile[ds] : 1;
    c.edge_shrink[ds] = d < dims ? shrink[ds] : 0;
  }
  return c;
}

// --- directed functional tests ---------------------------------------------

TEST(FunctionalTest, BaselineJacobi2dSingleTile) {
  const auto p = scl::stencil::make_jacobi2d(16, 16, 6);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 2, 3, {1, 1, 1},
                                  {16, 16, 1}));
}

TEST(FunctionalTest, BaselineJacobi2dFourTilesFused) {
  const auto p = scl::stencil::make_jacobi2d(24, 24, 8);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 2, 4, {2, 2, 1},
                                  {12, 12, 1}));
}

TEST(FunctionalTest, HeteroJacobi2dFourTilesFused) {
  const auto p = scl::stencil::make_jacobi2d(24, 24, 8);
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 4, {2, 2, 1},
                                  {12, 12, 1}));
}

TEST(FunctionalTest, HeteroJacobi2dBalanced) {
  const auto p = scl::stencil::make_jacobi2d(32, 32, 9);
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 3, {4, 4, 1},
                                  {8, 8, 1}, {2, 2, 0}));
}

TEST(FunctionalTest, RemainderRegionsAndRemainderPass) {
  // 26 is not divisible by the region extent 16, 7 not by h=3.
  const auto p = scl::stencil::make_jacobi2d(26, 26, 7);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 2, 3, {2, 2, 1},
                                  {8, 8, 1}));
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 3, {2, 2, 1},
                                  {8, 8, 1}));
}

TEST(FunctionalTest, EmptyTilesInRemainderRegion) {
  // Second region column has extent 4 < one tile, so trailing tiles clip
  // to empty and their neighbors' faces turn exterior.
  const auto p = scl::stencil::make_jacobi2d(20, 20, 4);
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 2, {2, 2, 1},
                                  {4, 4, 1}));
}

TEST(FunctionalTest, Jacobi1dDeepFusion) {
  const auto p = scl::stencil::make_jacobi1d(64, 12);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 1, 6, {4, 1, 1},
                                  {8, 1, 1}));
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 1, 6, {4, 1, 1},
                                  {8, 1, 1}));
}

TEST(FunctionalTest, Jacobi3dBothDesigns) {
  const auto p = scl::stencil::make_jacobi3d(12, 12, 12, 4);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 3, 2, {2, 2, 2},
                                  {6, 6, 6}));
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 3, 2, {2, 2, 2},
                                  {6, 6, 6}));
}

TEST(FunctionalTest, HotspotConstantPowerField) {
  const auto p = scl::stencil::make_hotspot2d(20, 20, 6);
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 3, {2, 2, 1},
                                  {10, 10, 1}));
}

TEST(FunctionalTest, MultiStageFdtd2d) {
  const auto p = scl::stencil::make_fdtd2d(24, 24, 6);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 2, 3, {2, 2, 1},
                                  {12, 12, 1}));
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 3, {2, 2, 1},
                                  {12, 12, 1}));
}

TEST(FunctionalTest, MultiStageFdtd3d) {
  const auto p = scl::stencil::make_fdtd3d(10, 10, 10, 4);
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 3, 2, {2, 2, 1},
                                  {5, 5, 10}));
}

// --- property sweep over all benchmarks x design points --------------------

struct SweepCase {
  const char* benchmark;
  DesignKind kind;
  std::int64_t h;
  std::array<int, 3> par;
  std::array<std::int64_t, 3> shrink;
};

class FunctionalSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FunctionalSweep, MatchesReferenceBitExact) {
  const SweepCase& sc = GetParam();
  const BenchmarkInfo& info = scl::stencil::find_benchmark(sc.benchmark);
  // Small instance: ~18 cells per active dimension, 3..8 iterations.
  std::array<std::int64_t, 3> extents{1, 1, 1};
  std::array<std::int64_t, 3> tile{1, 1, 1};
  for (int d = 0; d < info.dims; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    extents[ds] = 18;
    tile[ds] = 18 / (2 * sc.par[ds]) * 2;  // two regions-ish per dim
    if (tile[ds] < 1) tile[ds] = 1;
  }
  const std::int64_t iterations = sc.h * 2 + 1;  // force a remainder pass
  const StencilProgram p = info.make_scaled(extents, iterations);
  expect_bit_exact(p, make_config(sc.kind, info.dims, sc.h, sc.par, tile,
                                  sc.shrink));
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  const char* benchmarks[] = {"Jacobi-1D",  "Jacobi-2D",  "Jacobi-3D",
                              "HotSpot-2D", "HotSpot-3D", "FDTD-2D",
                              "FDTD-3D"};
  for (const char* b : benchmarks) {
    const int dims = scl::stencil::find_benchmark(b).dims;
    for (const DesignKind kind :
         {DesignKind::kBaseline, DesignKind::kHeterogeneous}) {
      for (const std::int64_t h : {1, 2, 3}) {
        std::array<int, 3> par{1, 1, 1};
        for (int d = 0; d < dims; ++d) par[static_cast<std::size_t>(d)] = 2;
        cases.push_back({b, kind, h, par, {0, 0, 0}});
      }
    }
    // A balanced heterogeneous point (needs K_d >= 3).
    std::array<int, 3> par3{1, 1, 1};
    par3[0] = 3;
    cases.push_back({b, DesignKind::kHeterogeneous, 2, par3, {1, 0, 0}});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, FunctionalSweep,
                         ::testing::ValuesIn(sweep_cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& param_info) {
                           const SweepCase& sc = param_info.param;
                           std::string name = sc.benchmark;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           name += sc.kind == DesignKind::kBaseline ? "_base"
                                                                    : "_het";
                           name += "_h" + std::to_string(sc.h);
                           name += "_k" + std::to_string(sc.par[0]);
                           if (sc.shrink[0] > 0) name += "_bal";
                           return name;
                         });

// --- timing-path invariants --------------------------------------------------

std::array<std::int64_t, 8> phase_fields(const PhaseBreakdown& p) {
  return {p.launch,        p.mem_read,          p.mem_write,
          p.compute_own,   p.compute_redundant, p.pipe_transfer,
          p.pipe_stall,    p.barrier_wait};
}

TEST(TimingTest, TimingOnlyMatchesFunctionalCycleCount) {
  // Cycle accounting has no data dependence, so the timing-only fast path
  // (one representative region per shape, no strip payloads) must
  // reproduce every figure of the functional run exactly. The cases cover
  // a single double-buffered stage, FDTD's in-place stage chain, a
  // multi-stage program whose last stage is double-buffered, and a 3-D
  // heterogeneous region with pipes on three axes; each has a remainder
  // pass.
  const StencilProgram fdtd_damped = scl::stencil::parse_program(R"(
stencil "FDTD-2D-damped" dims 2 grid 26 26 iterations 7
field ex init wave 0.3
field ey init wave 0.2
field hz init affine 2 3 0 5 53
stage ey writes ey: $ey(0,0) - 0.5f * ($hz(0,0) - $hz(-1,0))
stage ex writes ex: $ex(0,0) - 0.5f * ($hz(0,0) - $hz(0,-1))
stage hz writes hz:
    0.9f * $hz(0,0) - 0.7f * ($ex(0,1) - $ex(0,0) + $ey(1,0) - $ey(0,0))
    + 0.025f * ($hz(-1,0) + $hz(1,0) + $hz(0,-1) + $hz(0,1))
)");
  ASSERT_TRUE(fdtd_damped.stage_needs_double_buffer(2));
  struct Case {
    StencilProgram program;
    std::array<int, 3> par;
    std::array<std::int64_t, 3> tile;
  };
  const Case cases[] = {
      {scl::stencil::make_jacobi2d(26, 26, 7), {2, 2, 1}, {8, 8, 1}},
      {scl::stencil::make_fdtd2d(26, 26, 7), {2, 2, 1}, {8, 8, 1}},
      {fdtd_damped, {2, 2, 1}, {8, 8, 1}},
      {scl::stencil::make_jacobi3d(12, 12, 12, 5), {2, 2, 2}, {4, 4, 4}},
  };
  for (const Case& tc : cases) {
    for (const DesignKind kind :
         {DesignKind::kBaseline, DesignKind::kHeterogeneous}) {
      const DesignConfig c = make_config(kind, tc.program.dims(), 3, tc.par,
                                         tc.tile);
      const Executor exec(test_device());
      const SimResult functional =
          exec.run(tc.program, c, SimMode::kFunctional);
      const SimResult timing = exec.run(tc.program, c, SimMode::kTimingOnly);
      SCOPED_TRACE(tc.program.name() + " " + to_string(kind));
      EXPECT_EQ(functional.total_cycles, timing.total_cycles);
      EXPECT_EQ(phase_fields(functional.phases), phase_fields(timing.phases));
      EXPECT_EQ(functional.cells_owned, timing.cells_owned);
      EXPECT_EQ(functional.cells_redundant, timing.cells_redundant);
      EXPECT_EQ(functional.pipe_elements, timing.pipe_elements);
      EXPECT_EQ(functional.global_memory_bytes, timing.global_memory_bytes);
      EXPECT_EQ(functional.region_executions, timing.region_executions);
      if (kind == DesignKind::kHeterogeneous) {
        EXPECT_GT(timing.pipe_elements, 0);
      }
    }
  }
}

TEST(TimingTest, HeteroEliminatesIntraRegionRedundancy) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 16);
  const Executor exec(test_device());
  const DesignConfig base =
      make_config(DesignKind::kBaseline, 2, 8, {2, 2, 1}, {32, 32, 1});
  const DesignConfig het =
      make_config(DesignKind::kHeterogeneous, 2, 8, {2, 2, 1}, {32, 32, 1});
  const SimResult rb = exec.run(p, base, SimMode::kTimingOnly);
  const SimResult rh = exec.run(p, het, SimMode::kTimingOnly);
  EXPECT_LT(rh.cells_redundant, rb.cells_redundant);
  EXPECT_GT(rh.pipe_elements, 0);
  EXPECT_EQ(rb.pipe_elements, 0);
  // Owned updates are identical: every cell of every iteration.
  EXPECT_EQ(rh.cells_owned, rb.cells_owned);
}

TEST(TimingTest, HeteroBeatsBaselineOnDeepFusion) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 32);
  const Executor exec(test_device());
  const DesignConfig base =
      make_config(DesignKind::kBaseline, 2, 8, {2, 2, 1}, {16, 16, 1});
  const DesignConfig het =
      make_config(DesignKind::kHeterogeneous, 2, 8, {2, 2, 1}, {16, 16, 1});
  const SimResult rb = exec.run(p, base, SimMode::kTimingOnly);
  const SimResult rh = exec.run(p, het, SimMode::kTimingOnly);
  EXPECT_LT(rh.total_cycles, rb.total_cycles);
}

TEST(TimingTest, SingleTileDesignsTie) {
  // With one tile per region there are no pipes and no overlap to remove:
  // both designs must take exactly the same time.
  const auto p = scl::stencil::make_jacobi2d(32, 32, 8);
  const Executor exec(test_device());
  const DesignConfig base =
      make_config(DesignKind::kBaseline, 2, 4, {1, 1, 1}, {16, 16, 1});
  DesignConfig het = base;
  het.kind = DesignKind::kHeterogeneous;
  EXPECT_EQ(exec.run(p, base, SimMode::kTimingOnly).total_cycles,
            exec.run(p, het, SimMode::kTimingOnly).total_cycles);
}

TEST(TimingTest, MoreFusionReducesMemoryTraffic) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 32);
  const Executor exec(test_device());
  const DesignConfig h2 =
      make_config(DesignKind::kHeterogeneous, 2, 2, {2, 2, 1}, {16, 16, 1});
  const DesignConfig h8 =
      make_config(DesignKind::kHeterogeneous, 2, 8, {2, 2, 1}, {16, 16, 1});
  EXPECT_GT(exec.run(p, h2, SimMode::kTimingOnly).global_memory_bytes,
            exec.run(p, h8, SimMode::kTimingOnly).global_memory_bytes);
}

TEST(TimingTest, LaunchDelayAppearsInBreakdown) {
  const auto p = scl::stencil::make_jacobi2d(32, 32, 4);
  const Executor exec(test_device());
  const DesignConfig c =
      make_config(DesignKind::kBaseline, 2, 2, {2, 2, 1}, {16, 16, 1});
  const SimResult r = exec.run(p, c, SimMode::kTimingOnly);
  EXPECT_GT(r.phases.launch, 0);
  EXPECT_GT(r.phases.mem_read, 0);
  EXPECT_GT(r.phases.mem_write, 0);
  EXPECT_GT(r.phases.compute_own, 0);
  EXPECT_GT(r.phases.barrier_wait, 0);  // staggered launches leave waiters
}

TEST(TimingTest, ModestBalancingReducesBarrierWait) {
  // Needs regions with interior corners (multiple regions per pass) so the
  // edge tiles actually carry cone work that balancing can offload.
  const auto p = scl::stencil::make_jacobi2d(288, 288, 24);
  const Executor exec(test_device());
  const DesignConfig flat =
      make_config(DesignKind::kHeterogeneous, 2, 8, {3, 3, 1}, {32, 32, 1});
  const DesignConfig balanced = make_config(
      DesignKind::kHeterogeneous, 2, 8, {3, 3, 1}, {32, 32, 1}, {2, 2, 0});
  const SimResult rf = exec.run(p, flat, SimMode::kTimingOnly);
  const SimResult rb = exec.run(p, balanced, SimMode::kTimingOnly);
  EXPECT_LT(rb.phases.barrier_wait, rf.phases.barrier_wait);
  EXPECT_LT(rb.total_cycles, rf.total_cycles);
}

TEST(TimingTest, OverBalancingBackfires) {
  // Shrinking the edge tiles too far makes the grown interior tiles the
  // critical path every iteration — the optimizer must pick the factor,
  // not max it out.
  const auto p = scl::stencil::make_jacobi2d(288, 288, 24);
  const Executor exec(test_device());
  const DesignConfig modest = make_config(
      DesignKind::kHeterogeneous, 2, 8, {3, 3, 1}, {32, 32, 1}, {2, 2, 0});
  const DesignConfig extreme = make_config(
      DesignKind::kHeterogeneous, 2, 8, {3, 3, 1}, {32, 32, 1}, {12, 12, 0});
  EXPECT_LT(exec.run(p, modest, SimMode::kTimingOnly).total_cycles,
            exec.run(p, extreme, SimMode::kTimingOnly).total_cycles);
}

TEST(TimingTest, RedundancyGrowsWithDimension) {
  // The paper's explanation for why 3-D stencils gain more: cone overlap
  // grows exponentially with dimensionality.
  const Executor exec(test_device());
  const auto p2 = scl::stencil::make_jacobi2d(64, 64, 8);
  const auto p3 = scl::stencil::make_jacobi3d(16, 16, 16, 8);
  const DesignConfig c2 =
      make_config(DesignKind::kBaseline, 2, 4, {2, 2, 1}, {16, 16, 1});
  const DesignConfig c3 =
      make_config(DesignKind::kBaseline, 3, 4, {2, 2, 2}, {8, 8, 8});
  EXPECT_GT(exec.run(p3, c3, SimMode::kTimingOnly).redundancy_ratio(),
            exec.run(p2, c2, SimMode::kTimingOnly).redundancy_ratio());
}

TEST(TimingTest, PaperScaleTimingOnlyIsTractable) {
  // Jacobi-2D at the paper's full input scale (2048^2, 1024 iterations)
  // must simulate via shape-dedup in well under a second.
  const auto p = scl::stencil::make_jacobi2d(2048, 2048, 1024);
  const Executor exec(test_device());
  DesignConfig c =
      make_config(DesignKind::kBaseline, 2, 32, {4, 4, 1}, {128, 128, 1});
  c.unroll = 8;
  const SimResult r = exec.run(p, c, SimMode::kTimingOnly);
  EXPECT_GT(r.total_cycles, 0);
  EXPECT_EQ(r.region_executions, 32 * 16);
  // Every interior cell updated once per iteration.
  EXPECT_EQ(r.cells_owned, 2046ll * 2046ll * 1024ll);
}

// --- paper-scale golden table -----------------------------------------------

/// One timing-only simulation at the paper's input scale: the design the
/// DSE selects per family for every Table-2 kernel on the DDR part
/// (xc7vx690t) and the HBM part (xcu280), pinned as a literal config,
/// with every SimResult figure the simulator reports for it. Jacobi-1D on
/// xcu280 has no heterogeneous design inside the cap, so its
/// heterogeneous row is the baseline design.
struct GoldenSim {
  const char* kernel;
  const char* device;
  const char* family_name;
  arch::DesignFamily family;
  DesignKind kind;
  std::int64_t h;
  std::array<int, 3> parallelism;
  std::array<std::int64_t, 3> tile_size;
  std::array<std::int64_t, 3> edge_shrink;
  int unroll;
  int replication;
  std::int64_t total_cycles;
  /// launch, mem_read, mem_write, compute_own, compute_redundant,
  /// pipe_transfer, pipe_stall, barrier_wait
  std::array<std::int64_t, 8> phases;
  std::int64_t cells_owned;
  std::int64_t cells_redundant;
  std::int64_t pipe_elements;
  std::int64_t global_memory_bytes;
  std::int64_t region_executions;
};

constexpr auto kPipe = arch::DesignFamily::kPipeTiling;
constexpr auto kTemporal = arch::DesignFamily::kTemporalShift;
constexpr auto kBase = DesignKind::kBaseline;
constexpr auto kHet = DesignKind::kHeterogeneous;

// clang-format off
constexpr GoldenSim kGoldenSims[] = {
    {"Jacobi-1D", "xc7vx690t", "baseline", kPipe, kBase, 512, {16, 1, 1}, {8192, 1, 1}, {0, 0, 0}, 16, 1,
     1336640, {544000, 1175296, 1052400, 17123752, 1001048, 0, 0, 489744}, 134215680, 7848960, 0, 2220016, 2},
    {"Jacobi-1D", "xc7vx690t", "heterogeneous", kPipe, kHet, 512, {16, 1, 1}, {8192, 1, 1}, {8, 0, 0}, 16, 1,
     1266564, {544000, 1052656, 1052400, 17166336, 0, 0, 230290, 219342}, 134215680, 0, 30660, 2097376, 2},
    {"Jacobi-1D", "xc7vx690t", "temporal", kTemporal, kBase, 256, {1, 1, 1}, {131072, 1, 1}, {0, 0, 0}, 1, 1,
     1062808, {8000, 0, 0, 1050700, 4108, 0, 0, 0}, 524288, 2048, 0, 4202496, 4},
    {"Jacobi-2D", "xc7vx690t", "baseline", kPipe, kBase, 32, {4, 4, 1}, {128, 128, 1}, {0, 0, 0}, 16, 1,
     203483136, {139264000, 1159135232, 536805888, 809200384, 424026368, 0, 0, 187298304}, 4286582784, 2248427520, 0, 1693975040, 512},
    {"Jacobi-2D", "xc7vx690t", "heterogeneous", kPipe, kHet, 64, {4, 4, 1}, {128, 128, 1}, {8, 8, 0}, 16, 1,
     132494848, {69632000, 386535424, 268402944, 811048768, 158834880, 0, 371086720, 54376832}, 4286582784, 841107456, 108380160, 653955328, 256},
    {"Jacobi-2D", "xc7vx690t", "temporal", kTemporal, kBase, 256, {1, 1, 1}, {2048, 2048, 1}, {0, 0, 0}, 1, 1,
     70787000, {8000, 0, 0, 56623200, 14155800, 0, 0, 0}, 16777216, 4194304, 0, 150994944, 4},
    {"Jacobi-3D", "xc7vx690t", "baseline", kPipe, kBase, 5, {2, 2, 2}, {32, 32, 32}, {0, 0, 0}, 16, 1,
     242206019584, {60456960000, 973484747328, 438465778480, 274008510128, 118930720880, 0, 0, 72301439856}, 1093081751552, 474648632448, 0, 2820676680416, 839680},
    {"Jacobi-3D", "xc7vx690t", "heterogeneous", kPipe, kHet, 8, {2, 2, 2}, {32, 32, 32}, {0, 0, 0}, 16, 1,
     162313797632, {37748736000, 557759594496, 273773754368, 274064606208, 97520778240, 0, 30944267264, 26698644480}, 1093081751552, 389066711040, 112881893376, 1661053431808, 524288},
    {"Jacobi-3D", "xc7vx690t", "temporal", kTemporal, kBase, 8, {1, 1, 1}, {1024, 1024, 64}, {0, 0, 0}, 4, 1,
     309241802752, {4096000, 73372356608, 58697887744, 141733969920, 35433492480, 0, 0, 0}, 137438953472, 34359738368, 0, 1236950581248, 2048},
    {"HotSpot-2D", "xc7vx690t", "baseline", kPipe, kBase, 40, {2, 2, 1}, {256, 256, 1}, {0, 0, 0}, 16, 1,
     1531244800, {32000000, 1403148800, 419788900, 3150275100, 986930900, 0, 0, 132835500}, 16760836000, 5252130000, 0, 7285606800, 1600},
    {"HotSpot-2D", "xc7vx690t", "heterogeneous", kPipe, kHet, 48, {2, 2, 1}, {256, 256, 1}, {0, 0, 0}, 16, 1,
     1288747904, {26880000, 959766528, 352622676, 3151347128, 530025720, 0, 106153956, 28195608}, 16760836000, 2819559120, 138775808, 5244395856, 1344},
    {"HotSpot-2D", "xc7vx690t", "temporal", kTemporal, kBase, 40, {1, 1, 1}, {4096, 4096, 1}, {0, 0, 0}, 2, 1,
     1274726150, {50000, 416468500, 204245100, 641434525, 12528025, 0, 0, 0}, 419430400, 8192000, 0, 5098700800, 25},
    {"HotSpot-3D", "xc7vx690t", "baseline", kPipe, kBase, 5, {1, 2, 2}, {32, 32, 32}, {0, 0, 0}, 8, 1,
     1004849766400, {65536000000, 1821350883200, 423945931200, 1057803310400, 428927040000, 0, 0, 221835900800}, 2111865336000, 856614624000, 0, 8968604345600, 3276800},
    {"HotSpot-3D", "xc7vx690t", "heterogeneous", kPipe, kHet, 6, {1, 2, 2}, {32, 32, 32}, {0, 0, 0}, 8, 1,
     839148708608, {54722560000, 1346111992320, 353994852552, 1057904272368, 320846788360, 0, 121496766914, 101517601918}, 2111865336000, 640655037456, 142112861056, 6789920647968, 2736128},
    {"HotSpot-3D", "xc7vx690t", "temporal", kTemporal, kBase, 4, {1, 1, 1}, {4096, 4096, 16}, {0, 0, 0}, 2, 1,
     2147487724000, {4000000, 400293888000, 133431296000, 1075839026000, 537919514000, 0, 0, 0}, 536870912000, 268435456000, 0, 8589934592000, 2000},
    {"FDTD-2D", "xc7vx690t", "baseline", kPipe, kBase, 40, {2, 2, 1}, {256, 256, 1}, {0, 0, 0}, 16, 1,
     243645648, {4160000, 261218496, 163571213, 394867229, 115343053, 0, 0, 35422601}, 6287360500, 1837460800, 0, 1698360116, 208},
    {"FDTD-2D", "xc7vx690t", "heterogeneous", kPipe, kHet, 64, {2, 2, 1}, {256, 256, 1}, {0, 0, 0}, 16, 1,
     190292270, {2560000, 141909312, 100659208, 395025023, 77075427, 0, 41362814, 2577296}, 6287360500, 1227390528, 17734976, 969782560, 128},
    {"FDTD-2D", "xc7vx690t", "temporal", kTemporal, kBase, 20, {1, 1, 1}, {2048, 2048, 1}, {0, 0, 0}, 1, 1,
     635341450, {50000, 266220000, 261120000, 105883400, 2068050, 0, 0, 0}, 104857600, 2048000, 0, 2541158400, 25},
    {"FDTD-3D", "xc7vx690t", "baseline", kPipe, kBase, 6, {1, 2, 2}, {16, 32, 32}, {0, 0, 0}, 8, 1,
     6315816126464, {220200960000, 14072518139136, 4330385031168, 3245329738427, 3110344905037, 0, 0, 284485732088}, 25744644096000, 24718907922736, 0, 73569334096896, 11010048},
    {"FDTD-3D", "xc7vx690t", "heterogeneous", kPipe, kHet, 6, {1, 2, 2}, {16, 32, 32}, {0, 0, 0}, 8, 1,
     5317380383195, {220200960000, 11057957068032, 4330385031168, 3249237294771, 2073230057973, 5061506, 230693285552, 107812773778}, 25744644096000, 16451241149232, 716612589568, 61511089812480, 11010048},
    {"FDTD-3D", "xc7vx690t", "temporal", kTemporal, kBase, 2, {1, 1, 1}, {2048, 2048, 16}, {0, 0, 0}, 1, 1,
     28991099008000, {64000000, 14611905824000, 11689524704000, 2151683584000, 537920896000, 0, 0, 0}, 2147483648000, 536870912000, 0, 115964116992000, 32000},
    {"Jacobi-1D", "xcu280", "baseline", kPipe, kBase, 128, {16, 1, 1}, {2048, 1, 1}, {0, 0, 0}, 16, 4,
     1721216, {6528000, 487424, 439296, 13620464, 826128, 0, 0, 5638144}, 134215680, 8193024, 0, 8904640, 32},
    {"Jacobi-1D", "xcu280", "heterogeneous", kPipe, kBase, 128, {16, 1, 1}, {2048, 1, 1}, {0, 0, 0}, 16, 4,
     1721216, {6528000, 487424, 439296, 13620464, 826128, 0, 0, 5638144}, 134215680, 8193024, 0, 8904640, 32},
    {"Jacobi-1D", "xcu280", "temporal", kTemporal, kBase, 256, {1, 1, 1}, {131072, 1, 1}, {0, 0, 0}, 4, 1,
     273304, {8000, 0, 0, 264268, 1036, 0, 0, 0}, 524288, 2048, 0, 4202496, 4},
    {"Jacobi-2D", "xcu280", "baseline", kPipe, kBase, 12, {4, 4, 1}, {128, 128, 1}, {0, 0, 0}, 16, 2,
     72516261, {233920000, 79089888, 57880408, 506415192, 84787856, 0, 0, 198166832}, 4286582784, 728141760, 0, 3430302560, 1376},
    {"Jacobi-2D", "xcu280", "heterogeneous", kPipe, kHet, 32, {4, 4, 1}, {128, 128, 1}, {8, 8, 0}, 16, 2,
     48790176, {87040000, 25959424, 21536896, 507040512, 44242432, 0, 67027712, 27795840}, 4286582784, 401688576, 102088704, 1191911936, 512},
    {"Jacobi-2D", "xcu280", "temporal", kTemporal, kBase, 4, {1, 1, 1}, {2048, 64, 1}, {0, 0, 0}, 4, 32,
     87157248, {1536000, 0, 0, 76107264, 9513984, 0, 0, 0}, 1073741824, 134217728, 0, 9126805504, 8192},
    {"Jacobi-3D", "xcu280", "baseline", kPipe, kBase, 2, {2, 2, 4}, {16, 32, 32}, {0, 0, 0}, 8, 2,
     64229174272, {285769728000, 109835902976, 70461800448, 274686828544, 36186316800, 0, 0, 250726211584}, 1093081751552, 144128839680, 0, 5630173495296, 2097152},
    {"Jacobi-3D", "xcu280", "heterogeneous", kPipe, kHet, 1, {2, 2, 4}, {16, 32, 32}, {0, 0, 2}, 8, 2,
     102462902272, {571539456000, 177965760512, 140923641856, 274817630208, 0, 0, 0, 474159947776}, 1093081751552, 0, 0, 9927753924608, 4194304},
    {"Jacobi-3D", "xcu280", "temporal", kTemporal, kBase, 1, {1, 1, 1}, {1024, 1024, 16}, {0, 0, 0}, 8, 32,
     38965010432, {8192000, 0, 0, 34628280320, 4328538112, 0, 0, 0}, 1099511627776, 137438953472, 0, 9345848836096, 65536},
    {"HotSpot-2D", "xcu280", "baseline", kPipe, kBase, 5, {4, 4, 1}, {128, 128, 1}, {0, 0, 0}, 4, 2,
     753899600, {1849600000, 1043540000, 458189600, 6696597600, 412364000, 0, 0, 1602102400}, 16760836000, 1038376000, 0, 44469206400, 12800},
    {"HotSpot-2D", "xcu280", "heterogeneous", kPipe, kHet, 10, {4, 4, 1}, {128, 128, 1}, {2, 2, 0}, 4, 2,
     586369700, {924800000, 493229600, 229098400, 6697578800, 203075600, 0, 2370400, 831762400}, 16760836000, 521430000, 359942400, 21386459200, 6400},
    {"HotSpot-2D", "xcu280", "temporal", kTemporal, kBase, 5, {1, 1, 1}, {4096, 256, 1}, {0, 0, 0}, 2, 16,
     984199200, {1200000, 0, 0, 946044000, 36955200, 0, 0, 0}, 3355443200, 131072000, 0, 41313894400, 3200},
    {"HotSpot-3D", "xcu280", "baseline", kPipe, kBase, 2, {2, 2, 4}, {8, 32, 32}, {0, 0, 0}, 4, 2,
     247540586500, {1114384000000, 502673840000, 139887592000, 1060466024000, 206822292000, 0, 0, 936415636000}, 2111865336000, 412195620000, 0, 20054124272000, 8192000},
    {"HotSpot-3D", "xcu280", "heterogeneous", kPipe, kHet, 1, {2, 2, 4}, {8, 32, 32}, {0, 0, 0}, 4, 2,
     391618100000, {2228768000000, 761723616000, 279775184000, 1061152760000, 0, 0, 0, 1934470040000}, 2111865336000, 0, 0, 32313718944000, 16384000},
    {"HotSpot-3D", "xcu280", "temporal", kTemporal, kBase, 1, {1, 1, 1}, {4096, 4096, 16}, {0, 0, 0}, 8, 8,
     654317538000, {6000000, 138767436000, 61674420000, 403439715000, 50429967000, 0, 0, 0}, 2147483648000, 268435456000, 0, 27917287424000, 8000},
    {"FDTD-2D", "xcu280", "baseline", kPipe, kBase, 10, {4, 4, 1}, {64, 64, 1}, {0, 0, 0}, 8, 2,
     104366500, {462400000, 144701400, 86758450, 433235250, 142998050, 0, 0, 399770850}, 6287360500, 2096220000, 0, 6785878600, 3200},
    {"FDTD-2D", "xcu280", "heterogeneous", kPipe, kHet, 20, {4, 4, 1}, {64, 64, 1}, {4, 4, 0}, 8, 2,
     66553425, {231200000, 57543800, 43379225, 436091675, 60435400, 0, 214683025, 21521675}, 6287360500, 899080000, 102230400, 2951084900, 1600},
    {"FDTD-2D", "xcu280", "temporal", kTemporal, kBase, 5, {1, 1, 1}, {2048, 64, 1}, {0, 0, 0}, 1, 32,
     64212600, {600000, 9659400, 8354400, 39436800, 6162000, 0, 0, 0}, 419430400, 65536000, 0, 10852761600, 3200},
    {"FDTD-3D", "xcu280", "baseline", kPipe, kBase, 2, {2, 2, 4}, {16, 16, 16}, {0, 0, 0}, 2, 2,
     1391769724000, {4456720000000, 3162633576000, 1640595216000, 6506682820000, 2573627478750, 0, 0, 3928056493250}, 25744644096000, 10197056949000, 0, 151681461888000, 32768000},
    {"FDTD-3D", "xcu280", "heterogeneous", kPipe, kHet, 1, {2, 2, 4}, {16, 16, 16}, {0, 0, 0}, 2, 2,
     2002917517500, {8913440000000, 4637717180000, 3281190432000, 6524915060000, 427771099000, 0, 4247934040500, 4013712468500}, 25744644096000, 1685651778500, 939524096000, 249363787680000, 65536000},
    {"FDTD-3D", "xcu280", "temporal", kTemporal, kBase, 1, {1, 1, 1}, {2048, 2048, 8}, {0, 0, 0}, 1, 8,
     1925222596000, {34000000, 673031870000, 538425496000, 570984984000, 142746246000, 0, 0, 0}, 4294967296000, 1073741824000, 0, 231928233984000, 128000},
};
// clang-format on

TEST(TimingTest, PaperScaleGoldenTable) {
  // Every figure is exact: timing mode is deterministic, and a change to
  // the simulator's bookkeeping must not move any of them.
  for (const GoldenSim& g : kGoldenSims) {
    const StencilProgram p =
        scl::stencil::find_benchmark(g.kernel).make_paper_scale();
    DesignConfig c;
    c.family = g.family;
    c.kind = g.kind;
    c.fused_iterations = g.h;
    c.parallelism = g.parallelism;
    c.tile_size = g.tile_size;
    c.edge_shrink = g.edge_shrink;
    c.unroll = g.unroll;
    c.replication = g.replication;
    c.validate(p);
    const Executor exec(fpga::find_device(g.device));
    const SimResult r = exec.run(p, c, SimMode::kTimingOnly);
    SCOPED_TRACE(std::string(g.kernel) + " @ " + g.device + " " +
                 g.family_name);
    EXPECT_EQ(r.total_cycles, g.total_cycles);
    EXPECT_EQ(phase_fields(r.phases), g.phases);
    EXPECT_EQ(r.cells_owned, g.cells_owned);
    EXPECT_EQ(r.cells_redundant, g.cells_redundant);
    EXPECT_EQ(r.pipe_elements, g.pipe_elements);
    EXPECT_EQ(r.global_memory_bytes, g.global_memory_bytes);
    EXPECT_EQ(r.region_executions, g.region_executions);
  }
}

}  // namespace
}  // namespace scl::sim
