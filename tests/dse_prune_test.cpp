// Property tests for the branch-and-bound DSE layer:
//
//   * search(space) must choose designs byte-identical to the exhaustive
//     oracle, select_best(explore(space)), on every suite kernel (the
//     pruning-correctness half of the determinism contract; repeat-run
//     stability lives in dse_determinism_test.cpp),
//   * LowerBoundModel must be admissible — never above the exact model —
//     across whole candidate spaces of every suite kernel, both cone
//     modes, a DDR and an HBM part and the small-grid shapes, including
//     the heterogeneous edge-shrink configs; and tight (equal up to
//     rounding) on every baseline config,
//   * the closed-form cone sum must equal the per-iteration sum, and the
//     paper-scale baseline searches must evaluate exactly the pinned
//     candidate counts,
//   * ParetoFront must keep exactly the non-dominated points regardless
//     of insertion order (checked against an O(n^2) batch reference on
//     randomized inputs).
#include "core/optimizer.hpp"
#include "core/pareto_front.hpp"
#include "model/lower_bound.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "fpga/device.hpp"
#include "model/perf_model.hpp"
#include "stencil/kernels.hpp"
#include "stencil/parser.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace scl::core {
namespace {

using scl::stencil::BenchmarkInfo;
using scl::stencil::StencilProgram;

void expect_identical(const DesignPoint& a, const DesignPoint& b,
                      const std::string& what) {
  EXPECT_EQ(a.config, b.config) << what << ": configs differ";
  EXPECT_EQ(0, std::memcmp(&a.prediction, &b.prediction,
                           sizeof(model::Prediction)))
      << what << ": predictions differ";
  EXPECT_EQ(a.resources.total.bram18, b.resources.total.bram18)
      << what << ": resources differ";
}

/// The resource floors must never exceed the estimate `exact`, on any of
/// the four resources, and their DSP term is exact (buffers and pipes
/// use no DSP): both the candidate's floor and its (R, K, U) group's
/// logic floor.
::testing::AssertionResult floors_are_admissible(
    const model::LowerBoundModel& model, const sim::DesignConfig& config,
    const model::LowerBound& lb, const fpga::ResourceVector& exact) {
  for (const fpga::ResourceVector& floor :
       {lb.floor, model.logic_floor(config)}) {
    if (floor.dsp != exact.dsp || floor.lut > exact.lut ||
        floor.ff > exact.ff || floor.bram18 > exact.bram18) {
      return ::testing::AssertionFailure()
             << "floor " << floor.to_string() << " vs estimate "
             << exact.to_string();
    }
  }
  return ::testing::AssertionSuccess();
}

/// search(space) must pick the design the exhaustive oracle picks,
/// select_best(explore(space)), and throw exactly when nothing fits. The
/// exhaustive walk itself never prunes.
void expect_search_matches_oracle(const Optimizer& optimizer,
                                  const SearchSpace& space,
                                  const std::string& what) {
  std::optional<DesignPoint> searched;
  try {
    searched = optimizer.search(space);
  } catch (const ResourceError&) {
  }
  const std::int64_t pruned = optimizer.dse_stats().candidates_pruned;
  const std::vector<DesignPoint> feasible = optimizer.explore(space);
  EXPECT_EQ(optimizer.dse_stats().candidates_pruned, pruned)
      << what << ": the exhaustive walk must not prune";
  ASSERT_EQ(searched.has_value(), !feasible.empty())
      << what << ": pruning changed feasibility";
  if (searched) expect_identical(*searched, select_best(feasible), what);
}

/// A small instance of every suite kernel: big enough for a non-trivial
/// candidate space, small enough that the exhaustive reference stays
/// cheap under the sanitizers.
StencilProgram scaled(const BenchmarkInfo& info) {
  switch (info.dims) {
    case 1:
      return info.make_scaled({16384, 1, 1}, 48);
    case 2:
      return info.make_scaled({192, 192, 1}, 32);
    default:
      return info.make_scaled({48, 48, 48}, 16);
  }
}

TEST(DsePruneTest, PrunedOptimumMatchesExhaustiveOnEverySuiteKernel) {
  // Every suite kernel on a DDR part and both HBM parts (where the
  // replication axis is live), in all three searches.
  for (const BenchmarkInfo& info : scl::stencil::paper_benchmarks()) {
    const StencilProgram program = scaled(info);
    for (const char* device : {"xc7vx690t", "xcu280", "s10mx"}) {
      const std::string what = info.name + " on " + device;
      OptimizerOptions options;
      options.device = fpga::find_device(device);
      const Optimizer optimizer(program, options);

      expect_search_matches_oracle(optimizer, optimizer.baseline_space(),
                                   what + " baseline");
      // The heterogeneous search must also agree on infeasibility:
      // pruning may never turn a solvable search into a ResourceError (or
      // vice versa). The scaled 1-D instance exercises exactly this
      // branch.
      expect_search_matches_oracle(
          optimizer,
          optimizer.heterogeneous_space(optimizer.optimize_baseline()),
          what + " heterogeneous");
      expect_search_matches_oracle(optimizer, optimizer.temporal_space(),
                                   what + " temporal");
      EXPECT_GT(optimizer.dse_stats().candidates_pruned, 0)
          << what << ": pruning never engaged";
    }
  }
}

TEST(DsePruneTest, SeedBatchCandidatesAreNeverCountedAsPruned) {
  // Phase A evaluates whole seed batches; a batch member past the first
  // feasible one is evaluated, so it must not also count as pruned.
  // Every distinct evaluation is exactly one cache miss (Phase B reuses
  // the seed batches' designs as hits).
  for (const BenchmarkInfo& info : scl::stencil::paper_benchmarks()) {
    const StencilProgram program = scaled(info);
    OptimizerOptions options;
    const Optimizer optimizer(program, options);
    (void)optimizer.optimize_baseline();
    const std::int64_t total = optimizer.baseline_space().size();
    const DseStats stats = optimizer.dse_stats();
    EXPECT_LE(stats.candidates_pruned + stats.cache_misses, total)
        << info.name;
  }
}

TEST(DsePruneTest, LowerBoundIsAdmissibleAcrossBaselineSpaces) {
  for (const char* name : {"Jacobi-2D", "HotSpot-3D", "FDTD-2D"}) {
    const StencilProgram program = scaled(scl::stencil::find_benchmark(name));
    OptimizerOptions options;
    const Optimizer optimizer(program, options);
    const model::LowerBoundModel bound_model(program, options.device);
    std::int64_t checked = 0;
    const CandidateAxes axes =
        optimizer.space().axes(sim::DesignKind::kBaseline);
    for (std::int64_t i = 0; i < axes.size(); ++i) {
      const sim::DesignConfig config = axes.config(i);
      const model::LowerBound lb = bound_model.bound(config);
      const DesignPoint exact = optimizer.evaluate(config);
      ASSERT_LE(lb.cycles, exact.prediction.total_cycles)
          << name << " " << config.summary(program.dims());
      ASSERT_TRUE(floors_are_admissible(bound_model, config, lb,
                                        exact.resources.total))
          << name << " " << config.summary(program.dims());
      ++checked;
    }
    EXPECT_GT(checked, 100) << name << ": space unexpectedly tiny";
  }
}

TEST(DsePruneTest, LowerBoundIsAdmissibleAcrossHbmReplicatedSpaces) {
  // The replication axis is live on HBM parts (R in {1, 2, 4, ...}); the
  // bound must stay under the exact model for every replicated candidate
  // of both families, or branch-and-bound could prune a true optimum.
  for (const fpga::DeviceSpec& device :
       {fpga::alveo_u280(), fpga::stratix10_mx()}) {
    const StencilProgram program =
        scaled(scl::stencil::find_benchmark("Jacobi-2D"));
    OptimizerOptions options;
    options.device = device;
    const Optimizer optimizer(program, options);
    const model::LowerBoundModel bound_model(program, options.device);
    ASSERT_GT(optimizer.space().replication_factors().size(), 1u)
        << device.name << ": replication axis did not open up";
    std::int64_t checked = 0;
    std::int64_t replicated = 0;
    for (const CandidateAxes& axes :
         {optimizer.space().axes(sim::DesignKind::kBaseline),
          optimizer.space().temporal_axes()}) {
      for (std::int64_t i = 0; i < axes.size(); ++i) {
        const sim::DesignConfig config = axes.config(i);
        const model::LowerBound lb = bound_model.bound(config);
        const DesignPoint exact = optimizer.evaluate(config);
        ASSERT_LE(lb.cycles, exact.prediction.total_cycles)
            << device.name << " " << config.summary(program.dims());
        ASSERT_TRUE(floors_are_admissible(bound_model, config, lb,
                                          exact.resources.total))
            << device.name << " " << config.summary(program.dims());
        ++checked;
        if (config.replication > 1) ++replicated;
      }
    }
    EXPECT_GT(checked, 100) << device.name << ": space unexpectedly tiny";
    EXPECT_GT(replicated, 0) << device.name << ": no replicated candidates";
  }
}

TEST(DsePruneTest, HbmPrunedOptimumMatchesExhaustive) {
  // Pruning correctness must hold with the replication axis live.
  const StencilProgram program =
      scaled(scl::stencil::find_benchmark("Jacobi-2D"));
  OptimizerOptions options;
  options.device = fpga::alveo_u280();
  const Optimizer optimizer(program, options);
  expect_search_matches_oracle(optimizer, optimizer.baseline_space(),
                               "HBM baseline");
  expect_search_matches_oracle(optimizer, optimizer.temporal_space(),
                               "HBM temporal");
  expect_search_matches_oracle(
      optimizer, optimizer.heterogeneous_space(optimizer.optimize_baseline()),
      "HBM heterogeneous");
}

TEST(DsePruneTest, DdrDevicesKeepTheSingletonReplicationAxis) {
  // DDR regression: the replication axis must not perturb single-bank
  // searches — the axis collapses to {1} and the chosen optimum carries
  // R=1, which keeps every pre-replication DDR optimum bit-identical.
  const StencilProgram program =
      scaled(scl::stencil::find_benchmark("Jacobi-2D"));
  for (const char* name : {"xc7vx690t", "xc7vx485t", "xcku115"}) {
    OptimizerOptions options;
    options.device = fpga::find_device(name);
    const Optimizer optimizer(program, options);
    EXPECT_EQ(optimizer.space().replication_factors(),
              std::vector<int>{1})
        << name;
    const DesignPoint base = optimizer.optimize_baseline();
    EXPECT_EQ(base.config.replication, 1) << name;
    const DesignPoint het = optimizer.optimize_heterogeneous(base);
    EXPECT_EQ(het.config.replication, 1) << name;

    // Explicitly pinning the axis to {1} must reproduce the same optima.
    OptimizerOptions pinned = options;
    pinned.replication_candidates = {1};
    const Optimizer pinned_opt(program, pinned);
    expect_identical(pinned_opt.optimize_baseline(), base,
                     std::string(name) + " pinned baseline");
  }
}

TEST(DsePruneTest, LowerBoundIsAdmissibleForHeterogeneousCandidates) {
  const StencilProgram program =
      scaled(scl::stencil::find_benchmark("HotSpot-2D"));
  OptimizerOptions options;
  const Optimizer optimizer(program, options);
  const DesignPoint baseline = optimizer.optimize_baseline();
  const model::LowerBoundModel bound_model(program, options.device);
  std::int64_t checked = 0;
  for (const sim::DesignConfig& config :
       optimizer.space().heterogeneous_candidates(baseline.config)) {
    const model::LowerBound lb = bound_model.bound(config);
    const DesignPoint exact = optimizer.evaluate(config);
    ASSERT_LE(lb.cycles, exact.prediction.total_cycles)
        << config.summary(program.dims());
    ASSERT_TRUE(floors_are_admissible(bound_model, config, lb,
                                      exact.resources.total))
        << config.summary(program.dims());
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(DsePruneTest, RetainedFrontierIsAStaircase) {
  const StencilProgram program =
      scaled(scl::stencil::find_benchmark("Jacobi-3D"));
  const Optimizer optimizer(program, OptimizerOptions{});
  const DesignPoint baseline = optimizer.optimize_baseline();
  (void)optimizer.optimize_heterogeneous(baseline);
  const std::vector<DesignPoint>& frontier = optimizer.retained_frontier();
  ASSERT_FALSE(frontier.empty());
  // design_order-sorted, bram18 strictly decreasing.
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_TRUE(design_order(frontier[i - 1], frontier[i]));
    EXPECT_LT(frontier[i].resources.total.bram18,
              frontier[i - 1].resources.total.bram18);
  }
}

/// A Jacobi-like smoother whose iteration radii differ per side in every
/// dimension (offsets -2/+1, 0/+1 and -3/0), so the corner choice of the
/// cone bound matters.
StencilProgram skewed_program(int dims) {
  const char* reads[] = {"", "$u(-2) + $u(1)",
                         "$u(-2,0) + $u(1,0) + $u(0,1)",
                         "$u(-2,0,0) + $u(1,0,0) + $u(0,1,0) + $u(0,0,-3)"};
  const char* centre[] = {"", "$u(0)", "$u(0,0)", "$u(0,0,0)"};
  const char* grid[] = {"", "4096", "256 256", "64 64 64"};
  return scl::stencil::parse_program(
      std::string("stencil \"Skew\" dims ") + std::to_string(dims) +
      " grid " + grid[dims] + " iterations 1024\n" +
      "field u init affine 2 3 5 7 53\n" + "stage s writes u:\n    0.5f * " +
      centre[dims] + " + 0.1f * (" + reads[dims] + ")\n");
}

TEST(DsePruneTest, ConeCellsMatchThePerIterationSum) {
  for (int dims = 1; dims <= 3; ++dims) {
    const StencilProgram program = skewed_program(dims);
    const auto& radii = program.iter_radii();
    ASSERT_NE(radii[0][0], radii[0][1]) << "radii must be asymmetric";
    // K_d in {1, 2, 4} per dimension (4 with a balancing shrink), both
    // kinds: the corner's extent and cone growth follow the rule in
    // model/lower_bound.hpp.
    for (const int k : {1, 2, 4}) {
      for (const sim::DesignKind kind :
           {sim::DesignKind::kBaseline, sim::DesignKind::kHeterogeneous}) {
        sim::DesignConfig config;
        config.kind = kind;
        for (int d = 0; d < dims; ++d) {
          const auto ds = static_cast<std::size_t>(d);
          config.parallelism[ds] = k;
          config.tile_size[ds] = 16 + 8 * d;
          if (kind == sim::DesignKind::kHeterogeneous && k >= 3) {
            config.edge_shrink[ds] = 2 + d;
          }
        }
        const model::ConeGeometry cone = model::corner_cone(program, config);
        for (int d = 0; d < dims; ++d) {
          const auto ds = static_cast<std::size_t>(d);
          const std::vector<std::int64_t> extents = config.tile_extents(d);
          EXPECT_EQ(cone.extent[ds],
                    static_cast<double>(std::min(extents.front(),
                                                 extents.back())));
          const auto lo = static_cast<double>(radii[ds][0]);
          const auto hi = static_cast<double>(radii[ds][1]);
          EXPECT_EQ(cone.growth[ds],
                    kind == sim::DesignKind::kBaseline || k == 1
                        ? lo + hi
                        : std::max(lo, hi))
              << "dims " << dims << " K " << k << " d " << d;
        }
        // Reference: the O(h) loop, Σ_{j<h} Π_d (e_d + c_d·j), extended
        // one term per depth. Every term is an integer below 2^53, so
        // both sides are exact and must agree bit for bit.
        double reference = 0.0;
        for (std::int64_t h = 1; h <= 1024; ++h) {
          double cells = 1.0;
          for (int d = 0; d < dims; ++d) {
            const auto ds = static_cast<std::size_t>(d);
            cells *= cone.extent[ds] +
                     cone.growth[ds] * static_cast<double>(h - 1);
          }
          reference += cells;
          ASSERT_EQ(model::cone_cells(cone, dims, h), reference)
              << "dims " << dims << " K " << k << " h " << h;
        }
      }
    }
  }
}

/// Bound vs exact model over whole candidate spaces of one suite kernel:
/// the DDR and the HBM part, both cone modes, the small-grid clamp shapes
/// the cold small-grid workload requests (where the cone bound prunes
/// hardest), every baseline config and the heterogeneous candidates of
/// every parallelism arrangement.
class LowerBoundSweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LowerBoundSweepTest, BoundIsAdmissibleAndTightOnBaselines) {
  const BenchmarkInfo& info = scl::stencil::find_benchmark(GetParam());
  std::vector<std::array<std::int64_t, 3>> shapes;
  switch (info.dims) {
    case 1:
      shapes = {{4096, 1, 1}, {32768, 1, 1}};
      break;
    case 2:
      shapes = {{64, 64, 1}, {512, 512, 1}};
      break;
    default:
      shapes = {{16, 16, 16}, {64, 64, 64}};
      break;
  }
  std::int64_t baselines = 0;
  std::int64_t heterogeneous = 0;
  for (const auto& shape : shapes) {
    const StencilProgram program = info.make_scaled(shape, 16);
    for (const char* device_name : {"xc7vx690t", "xcu280"}) {
      OptimizerOptions options;
      options.device = fpga::find_device(device_name);
      const CandidateSpace space(program, options);
      const model::LowerBoundModel bound_model(program, options.device);
      const fpga::ResourceModel resource_model(options.device);
      std::vector<sim::DesignConfig> configs;
      std::vector<std::array<int, 3>> arrangements;
      const CandidateAxes axes = space.axes(sim::DesignKind::kBaseline);
      for (std::int64_t i = 0; i < axes.size(); ++i) {
        const sim::DesignConfig config = axes.config(i);
        configs.push_back(config);
        if (config.replication == 1 &&
            std::find(arrangements.begin(), arrangements.end(),
                      config.parallelism) == arrangements.end()) {
          arrangements.push_back(config.parallelism);
          const std::vector<sim::DesignConfig> het =
              space.heterogeneous_candidates(config);
          configs.insert(configs.end(), het.begin(), het.end());
        }
      }
      for (const model::ConeMode mode :
           {model::ConeMode::kRefined, model::ConeMode::kPaperExact}) {
        const model::PerfModel perf_model(program, options.device, mode);
        for (const sim::DesignConfig& config : configs) {
          const model::LowerBound lb = bound_model.bound(config);
          const double exact = perf_model.predict_cycles(config);
          const fpga::ResourceVector resources =
              estimate_design_resources(program, config, resource_model)
                  .total;
          ASSERT_LE(lb.cycles, exact)
              << info.name << " " << device_name << " "
              << config.summary(program.dims());
          ASSERT_TRUE(
              floors_are_admissible(bound_model, config, lb, resources))
              << info.name << " " << device_name << " "
              << config.summary(program.dims());
          if (config.kind == sim::DesignKind::kBaseline) {
            // Every baseline tile prices the same cone the bound does,
            // so only the rounding slack separates them.
            ASSERT_GE(lb.cycles, exact * (1.0 - 2e-9))
                << info.name << " " << device_name << " "
                << config.summary(program.dims());
            ++baselines;
          } else {
            ++heterogeneous;
          }
        }
      }
    }
  }
  EXPECT_GT(baselines, 1000) << info.name;
  EXPECT_GT(heterogeneous, 100) << info.name;
}

TEST_P(LowerBoundSweepTest, BoundIsAdmissibleOnTemporalCandidates) {
  const BenchmarkInfo& info = scl::stencil::find_benchmark(GetParam());
  std::vector<std::array<std::int64_t, 3>> shapes;
  switch (info.dims) {
    case 1:
      shapes = {{4096, 1, 1}, {32768, 1, 1}};
      break;
    case 2:
      shapes = {{64, 64, 1}, {512, 512, 1}};
      break;
    default:
      shapes = {{16, 16, 16}, {64, 64, 64}};
      break;
  }
  std::int64_t checked = 0;
  for (const auto& shape : shapes) {
    const StencilProgram program = info.make_scaled(shape, 16);
    for (const char* device_name : {"xc7vx690t", "xcu280", "s10mx"}) {
      OptimizerOptions options;
      options.device = fpga::find_device(device_name);
      const CandidateSpace space(program, options);
      const model::LowerBoundModel bound_model(program, options.device);
      const model::PerfModel perf_model(program, options.device,
                                        options.cone_mode);
      const fpga::ResourceModel resource_model(options.device);
      const CandidateAxes axes = space.temporal_axes();
      for (std::int64_t i = 0; i < axes.size(); ++i) {
        const sim::DesignConfig config = axes.config(i);
        const model::LowerBound lb = bound_model.bound(config);
        ASSERT_LE(lb.cycles, perf_model.predict_cycles(config))
            << info.name << " " << device_name << " "
            << config.summary(program.dims());
        ASSERT_TRUE(floors_are_admissible(
            bound_model, config, lb,
            estimate_design_resources(program, config, resource_model)
                .total))
            << info.name << " " << device_name << " "
            << config.summary(program.dims());
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100) << info.name;
}

TEST_P(LowerBoundSweepTest, GroupWalkKeepsExactlyTheFittingFloors) {
  // bound_axes skips whole (R, K, U) groups on their logic floor and
  // stops each chain at its first over-cap floor. Against a full bound()
  // of every candidate of the paper-scale spaces, under the device
  // budget and under a quarter of it: the walk keeps exactly the
  // candidates whose floor fits, with bit-identical latency bounds.
  const BenchmarkInfo& info = scl::stencil::find_benchmark(GetParam());
  const StencilProgram program = info.make_paper_scale();
  for (const char* device_name : {"xc7vx690t", "xcu280", "s10mx"}) {
    OptimizerOptions options;
    options.device = fpga::find_device(device_name);
    const Optimizer optimizer(program, options);
    const model::LowerBoundModel bound_model(program, options.device);
    const fpga::ResourceVector budget = optimizer.budget();
    const fpga::ResourceVector quarter{budget.ff / 4, budget.lut / 4,
                                       budget.dsp / 4, budget.bram18 / 4};
    for (const fpga::ResourceVector& cap : {budget, quarter}) {
      for (const CandidateAxes& axes :
           {optimizer.space().axes(sim::DesignKind::kBaseline),
            optimizer.space().temporal_axes()}) {
        const BoundedSpace walk = bound_axes(axes, bound_model, cap);
        const std::string what = info.name + " " + device_name + " " +
                                 cap.to_string() + " " +
                                 arch::to_string(axes.prototype.family);
        ASSERT_EQ(walk.skipped +
                      static_cast<std::int64_t>(walk.survivors.size()),
                  axes.size())
            << what;
        EXPECT_LE(walk.bounded, axes.size()) << what;
        std::size_t next = 0;
        for (std::int64_t i = 0; i < axes.size(); ++i) {
          const sim::DesignConfig config = axes.config(i);
          const model::LowerBound lb = bound_model.bound(config);
          const bool kept = next < walk.survivors.size() &&
                            walk.survivors[next].index == i;
          ASSERT_EQ(lb.floor.fits_within(cap), kept)
              << what << " " << config.summary(program.dims());
          if (!kept) continue;
          ASSERT_EQ(0, std::memcmp(&lb.cycles, &walk.survivors[next].cycles,
                                   sizeof(double)))
              << what << " " << config.summary(program.dims());
          ++next;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, LowerBoundSweepTest,
                         ::testing::Values("Jacobi-1D", "Jacobi-2D",
                                           "HotSpot-2D", "FDTD-2D",
                                           "Jacobi-3D", "HotSpot-3D",
                                           "FDTD-3D"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(DsePruneTest, PaperScaleBaselineCandidateCountsArePinned) {
  // Deterministic work counters of the paper-scale baseline searches.
  // `before` is the evaluated count of the BRAM-only bound; the resource
  // floor and the group walk may only lower it. `bounded` counts the
  // bounds the group walk computed: whole (R, K, U) groups that cannot
  // meet the DSP/LUT/FF budget are never bounded. `reused` counts the
  // Phase-B walks served by a design a seed batch already priced
  // (DseStats::cache_hits). The exact pins make any later loosening fail
  // loudly.
  struct Pin {
    const char* kernel;
    const char* device;
    std::int64_t before;
    std::int64_t evaluated;
    std::int64_t bounded;
    std::int64_t reused;
  };
  const Pin pins[] = {
      {"Jacobi-3D", "xc7vx690t", 28, 28, 13340, 8},
      {"HotSpot-3D", "xc7vx690t", 242, 32, 8185, 8},
      {"FDTD-3D", "xc7vx690t", 60, 32, 6419, 8},
      {"Jacobi-3D", "xcu280", 4843, 147, 44124, 8},
      {"HotSpot-3D", "xcu280", 7338, 238, 31870, 8},
      {"FDTD-3D", "xcu280", 6267, 112, 19236, 8},
      {"Jacobi-3D", "s10mx", 10806, 421, 44814, 8},
      {"HotSpot-3D", "s10mx", 13582, 223, 30369, 8},
      {"FDTD-3D", "s10mx", 14271, 216, 17046, 8},
  };
  for (const Pin& pin : pins) {
    const StencilProgram program =
        scl::stencil::find_benchmark(pin.kernel).make_paper_scale();
    OptimizerOptions options;
    options.device = fpga::find_device(pin.device);
    const Optimizer optimizer(program, options);
    (void)optimizer.optimize_baseline();
    const DseStats stats = optimizer.dse_stats();
    EXPECT_EQ(stats.candidates_evaluated, pin.evaluated)
        << pin.kernel << " " << pin.device;
    EXPECT_LE(stats.candidates_evaluated, pin.before)
        << pin.kernel << " " << pin.device;
    EXPECT_EQ(stats.candidates_bounded, pin.bounded)
        << pin.kernel << " " << pin.device;
    EXPECT_EQ(stats.cache_hits, pin.reused)
        << pin.kernel << " " << pin.device;
  }
}

DesignPoint synthetic_point(scl::Rng& rng) {
  DesignPoint point;
  // Narrow value ranges on purpose: collisions in cycles and bram18 are
  // where dominance logic can go wrong.
  point.prediction.total_cycles =
      static_cast<double>(rng.uniform_int(1, 12)) * 1000.0;
  point.resources.total.bram18 = rng.uniform_int(1, 10);
  point.resources.total.ff = rng.uniform_int(1, 4);
  point.resources.total.lut = rng.uniform_int(1, 4);
  point.resources.total.dsp = rng.uniform_int(1, 4);
  // Distinct-enough config keys (exact duplicates still possible, which
  // the front must also handle).
  point.config.fused_iterations = rng.uniform_int(1, 64);
  point.config.unroll = static_cast<int>(rng.uniform_int(1, 16));
  point.config.tile_size[0] = rng.uniform_int(1, 64);
  return point;
}

/// O(n^2) reference: p survives iff no other point orders before it with
/// bram18 <= its own (matching Optimizer::pareto_frontier()'s staircase).
std::vector<DesignPoint> reference_front(std::vector<DesignPoint> points) {
  std::sort(points.begin(), points.end(), design_order);
  points.erase(std::unique(points.begin(), points.end(),
                           [](const DesignPoint& a, const DesignPoint& b) {
                             return !design_order(a, b) &&
                                    !design_order(b, a);
                           }),
               points.end());
  std::vector<DesignPoint> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < i && !dominated; ++j) {
      dominated = points[j].resources.total.bram18 <=
                  points[i].resources.total.bram18;
    }
    if (!dominated) front.push_back(points[i]);
  }
  return front;
}

TEST(DsePruneTest, ParetoFrontMatchesBatchReferenceOnRandomInputs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    scl::Rng rng(seed * 7919);
    std::vector<DesignPoint> points;
    const std::int64_t n = rng.uniform_int(1, 200);
    points.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) points.push_back(synthetic_point(rng));

    ParetoFront front;
    for (const DesignPoint& point : points) front.insert(point);

    const std::vector<DesignPoint> expected = reference_front(points);
    ASSERT_EQ(front.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      expect_identical(front.points()[i], expected[i],
                       "seed " + std::to_string(seed));
    }
  }
}

TEST(DsePruneTest, ParetoFrontIsInsertionOrderInvariant) {
  scl::Rng rng(42);
  std::vector<DesignPoint> points;
  for (int i = 0; i < 150; ++i) points.push_back(synthetic_point(rng));

  ParetoFront forward;
  for (const DesignPoint& point : points) forward.insert(point);

  // A deterministic shuffle (Fisher-Yates with the seeded Rng).
  std::vector<DesignPoint> shuffled = points;
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(shuffled[i], shuffled[j]);
  }
  ParetoFront backward;
  for (auto it = shuffled.rbegin(); it != shuffled.rend(); ++it) {
    backward.insert(*it);
  }

  ASSERT_EQ(forward.size(), backward.size());
  for (std::size_t i = 0; i < forward.size(); ++i) {
    expect_identical(forward.points()[i], backward.points()[i], "shuffled");
  }
}

}  // namespace
}  // namespace scl::core
