// Tests for the design verifier: the diagnostics engine, the bound
// expression evaluator, golden diagnostics on seeded broken designs, and the
// clean-design guarantee over every bundled benchmark.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/interval.hpp"
#include "analysis/ir/ir.hpp"
#include "analysis/ir/lower.hpp"
#include "core/resource_estimator.hpp"
#include "core/verify.hpp"
#include "fpga/device.hpp"
#include "stencil/kernels.hpp"
#include "support/diagnostics.hpp"

namespace scl::analysis {
namespace {

using scl::sim::DesignConfig;
using scl::sim::DesignKind;
using scl::support::DiagnosticEngine;
using scl::support::Severity;

DesignConfig hetero2d(std::int64_t h, int k, std::int64_t tile) {
  DesignConfig config;
  config.kind = DesignKind::kHeterogeneous;
  config.fused_iterations = h;
  config.parallelism = {k, k, 1};
  config.tile_size = {tile, tile, 1};
  return config;
}

AnalysisInput jacobi2d_input() {
  static const scl::stencil::StencilProgram program =
      scl::stencil::make_jacobi2d(256, 256, 64);
  return make_analysis_input(program, hetero2d(4, 2, 32),
                             fpga::virtex7_690t());
}

bool has_code(const DiagnosticEngine& diags, const char* code) {
  const auto& all = diags.diagnostics();
  return std::any_of(all.begin(), all.end(), [&](const auto& d) {
    return d.code == code;
  });
}

// --- diagnostics engine -----------------------------------------------------

TEST(DiagnosticsTest, CountsAndSeverities) {
  DiagnosticEngine diags;
  EXPECT_TRUE(diags.empty());
  diags.error("SCL101", "missing channel");
  diags.warning("SCL104", "orphan pipe");
  EXPECT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags.error_count(), 1);
  EXPECT_EQ(diags.warning_count(), 1);
  EXPECT_TRUE(diags.has_errors());
}

TEST(DiagnosticsTest, RenderTextIncludesLocationAndNotes) {
  DiagnosticEngine diags;
  auto& diag = diags.error("SCL102", "FIFO too small");
  diag.location = {"pipe", "p_k0_k1", -1};
  diag.notes.push_back("required 64 elements");
  const std::string text = diags.render_text();
  EXPECT_NE(text.find("SCL102"), std::string::npos);
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("p_k0_k1"), std::string::npos);
  EXPECT_NE(text.find("note: required 64 elements"), std::string::npos);
}

TEST(DiagnosticsTest, RenderJsonMatchesDocumentedSchema) {
  DiagnosticEngine diags;
  auto& diag = diags.error("SCL201", "burst \"escapes\" grid");
  diag.location = {"kernel", "stencil_k0", 12};
  diag.notes.push_back("lower bound: r0 - 1");
  diags.warning("SCL106", "depth not a power of two");
  const std::string json = diags.render_json();
  // Top-level keys of the documented schema.
  EXPECT_NE(json.find("\"diagnostics\": ["), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\": 1"), std::string::npos);
  // Per-diagnostic keys.
  for (const char* key :
       {"\"code\"", "\"severity\"", "\"message\"", "\"location\"",
        "\"component\"", "\"detail\"", "\"line\"", "\"notes\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Quotes inside messages must be escaped.
  EXPECT_NE(json.find("burst \\\"escapes\\\" grid"), std::string::npos);
  EXPECT_EQ(json.find("burst \"escapes\""), std::string::npos);
}

TEST(DiagnosticsTest, MergePreservesOrder) {
  DiagnosticEngine a;
  a.error("SCL101", "first");
  DiagnosticEngine b;
  b.warning("SCL104", "second");
  a.merge(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.diagnostics()[0].code, "SCL101");
  EXPECT_EQ(a.diagnostics()[1].code, "SCL104");
}

// --- bound expressions ------------------------------------------------------
//
// Pass 2 compiles boundary_gen's strings with the kernel-IR parser and
// evaluates them over a slot environment; the fused-iteration distance
// `pass_h - it` is evaluated as pass_h = dt, it = 0.

ir::Env bound_env() {
  ir::Env env(ir::SlotTable::fixed());
  for (int slot = 0; slot < ir::kFixedSlotCount; ++slot) {
    env[slot] = Interval::point(0);
  }
  return env;
}

Interval eval_bound(const std::string& text, const ir::Env& env) {
  return ir::eval_expr(ir::parse_bound_expr(text), env);
}

TEST(IntervalTest, EvaluatesAffineClampExpressions) {
  ir::Env env = bound_env();
  env[ir::kSlotR0] = Interval::point(128);
  env[ir::kSlotPassH] = Interval::point(3);  // dt = pass_h - it = 3
  EXPECT_EQ(eval_bound("max(0, r0 - 2 * (pass_h - it))", env),
            Interval::point(122));
  EXPECT_EQ(eval_bound("min(256, (r0 + 32) + 1 * (pass_h - it))", env),
            Interval::point(163));
  EXPECT_EQ(eval_bound("-3 + r0", env), Interval::point(125));
}

TEST(IntervalTest, WideIntervalsPropagate) {
  ir::Env env = bound_env();
  env[ir::kSlotR1] = Interval{0, 10};
  EXPECT_EQ(eval_bound("2 * r1 + 1", env), (Interval{1, 21}));
  EXPECT_EQ(eval_bound("max(5, r1)", env), (Interval{5, 10}));
}

TEST(IntervalTest, RejectsUnknownVariableAndSyntaxErrors) {
  EXPECT_THROW(ir::parse_bound_expr("mystery + 1"), Error);
  EXPECT_THROW(ir::parse_bound_expr("max(1,"), Error);
  // Trailing tokens are rejected, not silently dropped.
  EXPECT_THROW(ir::parse_bound_expr("1 ? 2 : 3"), Error);
}

// Analysis inputs are untrusted (seeded-defect tests feed absurd
// magnitudes); wrapping at the int64 edges would be UB and could flip an
// out-of-bounds interval back into range, masking the defect.
TEST(IntervalTest, ArithmeticSaturatesAtInt64Edges) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const Interval top = Interval::point(kMax);
  const Interval bottom = Interval::point(kMin);
  EXPECT_EQ(top + Interval::point(1), Interval::point(kMax));
  EXPECT_EQ(bottom + Interval::point(-1), Interval::point(kMin));
  EXPECT_EQ(bottom - Interval::point(1), Interval::point(kMin));
  EXPECT_EQ(top - Interval::point(-1), Interval::point(kMax));
  EXPECT_EQ(top * Interval::point(2), Interval::point(kMax));
  EXPECT_EQ(top * Interval::point(-2), Interval::point(kMin));
  EXPECT_EQ(bottom * Interval::point(2), Interval::point(kMin));
  EXPECT_EQ(bottom * Interval::point(-2), Interval::point(kMax));
  // Saturation must keep lo <= hi on mixed-sign wide intervals.
  const Interval wide{kMin, kMax};
  const Interval squared = wide * wide;
  EXPECT_LE(squared.lo, squared.hi);
  EXPECT_EQ(squared.hi, kMax);
}

TEST(IntervalTest, OverlongLiteralSaturatesInsteadOfWrapping) {
  const ir::Env env = bound_env();
  // 2^63 - 1 is the largest parseable value; one digit more must clamp,
  // not wrap negative.
  const Interval v = eval_bound("99999999999999999999999", env);
  EXPECT_EQ(v, Interval::point(std::numeric_limits<std::int64_t>::max()));
  const Interval product =
      eval_bound("9223372036854775807 * 9223372036854775807", env);
  EXPECT_EQ(product,
            Interval::point(std::numeric_limits<std::int64_t>::max()));
}

// --- golden diagnostics on seeded broken designs ----------------------------

TEST(AnalyzerTest, UndersizedFifoDepthIsReported) {
  AnalysisInput input = jacobi2d_input();
  ASSERT_FALSE(input.pipes.empty());
  input.pipes[0].depth = 1;  // far below one exchange phase's strip volume
  DiagnosticEngine diags;
  analyze_pipe_graph(input, &diags);
  EXPECT_TRUE(has_code(diags, "SCL102"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(AnalyzerTest, AllFifosUndersizedDeadlocks) {
  AnalysisInput input = jacobi2d_input();
  for (auto& pipe : input.pipes) pipe.depth = 1;
  DiagnosticEngine diags;
  analyze_pipe_graph(input, &diags);
  // Symmetric blocked writes between adjacent kernels form a cycle.
  EXPECT_TRUE(has_code(diags, "SCL102"));
  EXPECT_TRUE(has_code(diags, "SCL103"));
}

TEST(AnalyzerTest, MissingHaloChannelIsReported) {
  AnalysisInput input = jacobi2d_input();
  ASSERT_FALSE(input.pipes.empty());
  input.pipes.erase(input.pipes.begin());  // drop one delivering channel
  DiagnosticEngine diags;
  analyze_pipe_graph(input, &diags);
  EXPECT_TRUE(has_code(diags, "SCL101"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(AnalyzerTest, MalformedPipeEndpointsAreReported) {
  AnalysisInput input = jacobi2d_input();
  codegen::PipeDecl self;
  self.from_kernel = 0;
  self.to_kernel = 0;
  self.name = "p_k0_k0";
  self.depth = 512;
  input.pipes.push_back(self);
  codegen::PipeDecl diagonal;
  diagonal.from_kernel = 0;
  diagonal.to_kernel = 3;  // coords (0,0) and (1,1): not face-adjacent
  diagonal.name = "p_k0_k3";
  diagonal.depth = 512;
  input.pipes.push_back(diagonal);
  DiagnosticEngine diags;
  analyze_pipe_graph(input, &diags);
  std::int64_t malformed = 0;
  for (const auto& diag : diags.diagnostics()) {
    if (diag.code == "SCL105") ++malformed;
  }
  EXPECT_EQ(malformed, 2);
}

TEST(AnalyzerTest, NonPowerOfTwoDepthWarns) {
  AnalysisInput input = jacobi2d_input();
  ASSERT_FALSE(input.pipes.empty());
  input.pipes[0].depth = 1000;  // large enough, but not a power of two
  DiagnosticEngine diags;
  analyze_pipe_graph(input, &diags);
  EXPECT_TRUE(has_code(diags, "SCL106"));
  EXPECT_FALSE(has_code(diags, "SCL102"));
}

TEST(AnalyzerTest, BurstBoundsOutsideGridAreReported) {
  const AnalysisInput input = jacobi2d_input();
  codegen::LoopBounds bounds;
  bounds.lo = {"r0 - 5", "0", "0"};
  bounds.hi = {"r0 + 300", "1", "1"};  // grid is 256 wide
  DiagnosticEngine diags;
  check_buffer_bounds(input, 0, bounds, &diags);
  EXPECT_TRUE(has_code(diags, "SCL201"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(AnalyzerTest, UnparsableBoundDowngradesToWarning) {
  const AnalysisInput input = jacobi2d_input();
  codegen::LoopBounds bounds;
  bounds.lo = {"r0 ? 0 : 1", "0", "0"};
  bounds.hi = {"r0 + 1", "1", "1"};
  DiagnosticEngine diags;
  check_buffer_bounds(input, 0, bounds, &diags);
  EXPECT_TRUE(has_code(diags, "SCL209"));
  EXPECT_FALSE(diags.has_errors());
}

/// Every SCL209 message in `diags`, joined by newlines; fails the test
/// when there is none.
std::string scl209_messages(const DiagnosticEngine& diags) {
  std::string messages;
  for (const auto& diag : diags.diagnostics()) {
    if (diag.code == "SCL209") messages += diag.message + "\n";
  }
  EXPECT_FALSE(messages.empty()) << diags.render_text();
  return messages;
}

// SCL209 names the expression that failed, not a fixed side, once per
// (kernel, bound text): every stage access fails on the same bound.
TEST(AnalyzerTest, Scl209NamesTheUnparsableUpperBound) {
  const AnalysisInput input = jacobi2d_input();
  codegen::LoopBounds bounds = codegen::stage_compute_bounds(input.ctx, 0, 0);
  bounds.hi[0] = "min((r0 + 32) +, 255)";
  DiagnosticEngine diags;
  check_stage_accesses(input, 0, 0, bounds, &diags);
  const std::string message = scl209_messages(diags);
  EXPECT_EQ(message, "loop bound 'min((r0 + 32) +, 255)' is outside the "
                     "affine bound language; interval analysis skipped it\n")
      << diags.render_text();
  EXPECT_EQ(message.find(bounds.lo[0]), std::string::npos) << message;
  EXPECT_FALSE(diags.has_errors()) << diags.render_text();
}

TEST(AnalyzerTest, Scl209NamesTheUnparsableBufferBound) {
  const AnalysisInput input = jacobi2d_input();
  codegen::LoopBounds bounds = codegen::buffer_bounds(input.ctx, 0);
  bounds.hi[1] = "min(r1 + 36, 256";  // unclosed clamp
  DiagnosticEngine diags;
  check_buffer_bounds(input, 0, bounds, &diags);
  const std::string message = scl209_messages(diags);
  EXPECT_NE(message.find("'min(r1 + 36, 256'"), std::string::npos)
      << message;
  EXPECT_EQ(message.find(bounds.lo[1]), std::string::npos) << message;
}

TEST(AnalyzerTest, Scl209NamesTheUnparsableOwnedLowerBound) {
  const AnalysisInput input = jacobi2d_input();
  codegen::LoopBounds bounds = codegen::owned_bounds(input.ctx, 0, 0);
  bounds.lo[0] = "max(r0 + dt, 1)";  // `dt` is not a bound variable
  DiagnosticEngine diags;
  check_owned_bounds(input, 0, 0, bounds, &diags);
  const std::string message = scl209_messages(diags);
  EXPECT_NE(message.find("'max(r0 + dt, 1)'"), std::string::npos) << message;
  EXPECT_EQ(message.find(bounds.hi[0]), std::string::npos) << message;
}

TEST(AnalyzerTest, OwnedWriteOutsideUpdatableRegionIsReported) {
  const AnalysisInput input = jacobi2d_input();
  // Jacobi's border is Dirichlet: the updatable region starts at 1, so a
  // burst write covering [0, 10) along dim 0 touches boundary cells.
  codegen::LoopBounds bounds;
  bounds.lo = {"0", "1", "0"};
  bounds.hi = {"10", "2", "1"};
  DiagnosticEngine diags;
  check_owned_bounds(input, 0, 0, bounds, &diags);
  EXPECT_TRUE(has_code(diags, "SCL203"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(AnalyzerTest, HealthyOwnedBoundsStayClean) {
  const AnalysisInput input = jacobi2d_input();
  DiagnosticEngine diags;
  check_owned_bounds(input, 0, 0, codegen::owned_bounds(input.ctx, 0, 0),
                     &diags);
  EXPECT_TRUE(diags.empty()) << diags.render_text();
}

TEST(AnalyzerTest, StageAccessOutsideBufferBoxIsReported) {
  const AnalysisInput input = jacobi2d_input();
  // Compute bounds widened far past the kernel's local-buffer box: the
  // ±1 neighbor reads then land outside both the dynamic window and the
  // static array extent.
  codegen::LoopBounds bounds;
  bounds.lo = {"r0 - 200", "1", "0"};
  bounds.hi = {"r0 + 300", "2", "1"};
  DiagnosticEngine diags;
  check_stage_accesses(input, 0, 0, bounds, &diags);
  EXPECT_TRUE(has_code(diags, "SCL202"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(AnalyzerTest, HealthyStageAccessesStayClean) {
  const AnalysisInput input = jacobi2d_input();
  DiagnosticEngine diags;
  check_stage_accesses(input, 0, 0,
                       codegen::stage_compute_bounds(input.ctx, 0, 0),
                       &diags);
  EXPECT_TRUE(diags.empty()) << diags.render_text();
}

// --- resource cross-check ---------------------------------------------------

class ResourcePassTest : public ::testing::Test {
 protected:
  ResourcePassTest()
      : program_(scl::stencil::make_jacobi2d(256, 256, 64)),
        config_(hetero2d(4, 2, 32)),
        device_(fpga::virtex7_690t()),
        input_(make_analysis_input(program_, config_, device_)) {
    const fpga::ResourceModel model(device_);
    charged_ = core::charged_resources(
        core::estimate_design_resources(program_, config_, model));
  }

  scl::stencil::StencilProgram program_;
  DesignConfig config_;
  fpga::DeviceSpec device_;
  AnalysisInput input_;
  ChargedResources charged_;
};

TEST_F(ResourcePassTest, HonestChargeIsClean) {
  DiagnosticEngine diags;
  analyze_resources(input_, charged_, &diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render_text();
}

TEST_F(ResourcePassTest, PipeCountDriftIsReported) {
  ChargedResources charged = charged_;
  charged.pipe_count -= 1;
  DiagnosticEngine diags;
  analyze_resources(input_, charged, &diags);
  EXPECT_TRUE(has_code(diags, "SCL301"));
}

TEST_F(ResourcePassTest, BufferElementDriftIsReported) {
  ChargedResources charged = charged_;
  charged.buffer_elements /= 2;
  DiagnosticEngine diags;
  analyze_resources(input_, charged, &diags);
  EXPECT_TRUE(has_code(diags, "SCL302"));
}

TEST_F(ResourcePassTest, FifoUnderchargeIsReported) {
  ChargedResources charged = charged_;
  charged.pipe_fifo_elements = 1;
  DiagnosticEngine diags;
  analyze_resources(input_, charged, &diags);
  EXPECT_TRUE(has_code(diags, "SCL303"));
}

TEST_F(ResourcePassTest, OverCapacityWarns) {
  ChargedResources charged = charged_;
  charged.total.bram18 = device_.capacity.bram18 + 1;
  DiagnosticEngine diags;
  analyze_resources(input_, charged, &diags);
  EXPECT_TRUE(has_code(diags, "SCL310"));
  EXPECT_FALSE(diags.has_errors());
}

// --- clean designs stay clean -----------------------------------------------

TEST(AnalyzerTest, AllBundledBenchmarksVerifyClean) {
  const fpga::DeviceSpec device = fpga::virtex7_690t();
  const fpga::ResourceModel model(device);
  for (const auto& info : scl::stencil::paper_benchmarks()) {
    std::array<std::int64_t, 3> extents{1, 1, 1};
    DesignConfig config;
    config.kind = DesignKind::kHeterogeneous;
    config.fused_iterations = 4;
    for (int d = 0; d < info.dims; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      extents[ds] = 128;
      config.parallelism[ds] = 2;
      config.tile_size[ds] = 32;
    }
    const scl::stencil::StencilProgram program =
        info.make_scaled(extents, 64);
    // These hand-picked tile sizes can overrun the device capacity for
    // the 3-D benchmarks (a correct SCL310 warning); the semantic passes
    // must stay silent regardless.
    auto expect_clean = [&](const DiagnosticEngine& diags,
                            const char* label) {
      EXPECT_FALSE(diags.has_errors())
          << info.name << " " << label << ":\n" << diags.render_text();
      for (const auto& diag : diags.diagnostics()) {
        EXPECT_EQ(diag.code, "SCL310")
            << info.name << " " << label << ": " << diag.message;
      }
    };
    const auto resources =
        core::estimate_design_resources(program, config, model);
    expect_clean(core::verify_design(program, config, device, resources),
                 "heterogeneous");

    // The overlapped baseline (no pipes at all) must verify clean too.
    DesignConfig baseline = config;
    baseline.kind = DesignKind::kBaseline;
    const auto base_resources =
        core::estimate_design_resources(program, baseline, model);
    expect_clean(
        core::verify_design(program, baseline, device, base_resources),
        "baseline");
  }
}

TEST(AnalyzerTest, DeeperFusionAndBalancingStayClean) {
  const fpga::DeviceSpec device = fpga::virtex7_690t();
  const auto program = scl::stencil::make_jacobi2d(512, 512, 128);
  DesignConfig config = hetero2d(16, 4, 32);
  config.edge_shrink = {4, 4, 0};
  const fpga::ResourceModel model(device);
  const auto resources =
      core::estimate_design_resources(program, config, model);
  const DiagnosticEngine diags =
      core::verify_design(program, config, device, resources);
  EXPECT_TRUE(diags.empty()) << diags.render_text();
}

}  // namespace
}  // namespace scl::analysis
