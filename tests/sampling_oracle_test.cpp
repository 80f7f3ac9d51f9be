// The bound verifiers (pass 2 over boundary_gen's formulas, pass 4 over
// the emitted kernels) evaluate at sampled host-sweep points: the first,
// one interior and the last region origin per dimension, and the extreme
// pass depths. The bounds are piecewise affine, so those vertices are a
// heuristic, not a proof. This test is the oracle: on small grids where
// the cone margin h*r exceeds the region extent — so the clamp kinks of
// the buffer-origin and compute bounds fall between sampled origins — it
// runs both passes at every origin the host reaches and every pass depth,
// and requires the same diagnostics as the sampled run, on clean designs
// and on seeded defects.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/ir/dataflow.hpp"
#include "codegen/boundary_gen.hpp"
#include "codegen/opencl_emitter.hpp"
#include "core/resource_estimator.hpp"
#include "core/verify.hpp"
#include "fpga/device.hpp"
#include "fpga/resource_model.hpp"
#include "stencil/kernels.hpp"

namespace scl {
namespace {

using analysis::Sampling;
using sim::DesignConfig;
using sim::DesignKind;
using stencil::StencilProgram;
using support::DiagnosticEngine;

/// What identifies a diagnostic, without the message text (which names
/// the interval and the environment that first showed it, and those
/// legitimately differ between the two samplings).
using DiagKey = std::tuple<std::string, int, std::string, std::string, int>;

std::set<DiagKey> keys(const DiagnosticEngine& diags) {
  std::set<DiagKey> out;
  for (const support::Diagnostic& d : diags.diagnostics()) {
    out.emplace(d.code, static_cast<int>(d.severity), d.location.component,
                d.location.detail, d.location.line);
  }
  return out;
}

std::string render(const std::set<DiagKey>& keys) {
  std::string out;
  for (const auto& [code, severity, component, detail, line] : keys) {
    out += code + " " + component + ":" + detail + ":" +
           std::to_string(line) + "\n";
  }
  return out.empty() ? "(none)\n" : out;
}

const fpga::DeviceSpec& device() {
  static const fpga::DeviceSpec spec = fpga::find_device("xc7vx690t");
  return spec;
}

/// Small grids: 40 cells in 1-D, 20 x 18 in 2-D, 12 x 11 x 10 in 3-D.
StencilProgram small_program(const stencil::BenchmarkInfo& info) {
  static constexpr std::array<std::array<std::int64_t, 3>, 3> kExtents = {
      {{40, 1, 1}, {20, 18, 1}, {12, 11, 10}}};
  return info.make_scaled(kExtents[static_cast<std::size_t>(info.dims - 1)],
                          11);
}

struct NamedConfig {
  std::string name;
  DesignConfig config;
};

/// Pipe-tiling designs whose cone margin h * r exceeds the region extent,
/// and one temporal-shift cascade with a narrow strip.
std::vector<NamedConfig> small_designs(const StencilProgram& program) {
  std::vector<NamedConfig> out;
  {
    DesignConfig c;
    c.kind = DesignKind::kHeterogeneous;
    c.fused_iterations = 4;
    for (int d = 0; d < program.dims(); ++d) {
      c.parallelism[static_cast<std::size_t>(d)] = 2;
      c.tile_size[static_cast<std::size_t>(d)] = 2;
    }
    out.push_back({"heterogeneous", c});
  }
  {
    DesignConfig c;
    c.kind = DesignKind::kBaseline;
    c.fused_iterations = 5;
    for (int d = 0; d < program.dims(); ++d) {
      c.tile_size[static_cast<std::size_t>(d)] = 3;
    }
    out.push_back({"baseline", c});
  }
  {
    DesignConfig c;
    c.family = arch::DesignFamily::kTemporalShift;
    c.kind = DesignKind::kBaseline;
    c.fused_iterations = 11;  // T must divide the iteration count
    for (int d = 0; d < program.dims(); ++d) {
      c.tile_size[static_cast<std::size_t>(d)] =
          program.grid_box().extent(d);
    }
    c.tile_size[static_cast<std::size_t>(program.dims() - 1)] = 4;
    out.push_back({"temporal", c});
  }
  for (const NamedConfig& named : out) named.config.validate(program);
  return out;
}

DiagnosticEngine run_pass4(const StencilProgram& program,
                           const DesignConfig& config,
                           const std::string& source, Sampling sampling) {
  analysis::ir::IrContext ctx = analysis::ir::make_ir_context(program, config);
  ctx.sampling = sampling;
  DiagnosticEngine diags;
  analysis::ir::analyze_kernel_source(source, ctx, &diags);
  return diags;
}

/// Seeded text mutations of the emitted kernels: an off-by-one local
/// buffer extent, a swapped loop bound and a dropped pipe write. Only
/// those whose target exists in `source` are returned.
std::vector<std::pair<std::string, std::string>> mutations(
    const std::string& source) {
  std::vector<std::pair<std::string, std::string>> out;
  {
    // "#define K0_B0_EXT <n>" -> n - 1.
    const std::string needle = "#define K0_B0_EXT ";
    const std::size_t at = source.find(needle);
    if (at != std::string::npos) {
      const std::size_t begin = at + needle.size();
      const std::size_t end = source.find('\n', begin);
      const std::int64_t ext = std::stoll(source.substr(begin, end - begin));
      std::string s = source;
      s.replace(begin, end - begin, std::to_string(ext - 1));
      out.emplace_back("off-by-one K0_B0_EXT", s);
    }
  }
  {
    // The first dim-0 loop "for (int i0 = LO; i0 < HI; ++i0)" with its
    // bounds swapped.
    const std::string head = "for (int i0 = ";
    const std::size_t at = source.find(head);
    if (at != std::string::npos) {
      const std::size_t lo_begin = at + head.size();
      const std::size_t lo_end = source.find("; i0 < ", lo_begin);
      const std::size_t hi_begin = lo_end + 7;
      const std::size_t hi_end = source.find("; ++i0)", hi_begin);
      if (lo_end != std::string::npos && hi_end != std::string::npos) {
        const std::string lo = source.substr(lo_begin, lo_end - lo_begin);
        const std::string hi = source.substr(hi_begin, hi_end - hi_begin);
        std::string s = source;
        s.replace(hi_begin, hi.size(), lo);
        s.replace(lo_begin, lo.size(), hi);
        out.emplace_back("swapped loop bound", s);
      }
    }
  }
  {
    const std::size_t call = source.find("write_pipe_block(");
    if (call != std::string::npos) {
      std::string s = source;
      s.erase(call, source.find(';', call) - call + 1);
      out.emplace_back("dropped pipe write", s);
    }
  }
  return out;
}

class SamplingOracleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SamplingOracleTest, EmittedKernelsAgreeWithEveryOrigin) {
  const StencilProgram program =
      small_program(stencil::find_benchmark(GetParam()));
  int defects_seen = 0;
  for (const NamedConfig& design : small_designs(program)) {
    const std::string source =
        codegen::generate_opencl(program, design.config, device())
            .kernel_source;
    std::vector<std::pair<std::string, std::string>> cases = {
        {"clean", source}};
    for (auto& mutation : mutations(source)) cases.push_back(mutation);
    for (const auto& [label, text] : cases) {
      SCOPED_TRACE(design.name + " / " + label);
      const std::set<DiagKey> sampled = keys(
          run_pass4(program, design.config, text, Sampling::kVertices));
      const std::set<DiagKey> exhaustive = keys(
          run_pass4(program, design.config, text, Sampling::kExhaustive));
      EXPECT_EQ(sampled, exhaustive) << "sampled:\n"
                                     << render(sampled) << "exhaustive:\n"
                                     << render(exhaustive);
      if (label == "clean") {
        EXPECT_TRUE(exhaustive.empty()) << render(exhaustive);
      } else if (!exhaustive.empty()) {
        ++defects_seen;
      }
    }
  }
  // The mutations must actually be caught somewhere, or the agreement
  // above proves nothing.
  EXPECT_GT(defects_seen, 0);
}

/// Passes 1-3 of one design, or one seeded pass-2 check.
DiagnosticEngine run_design(const StencilProgram& program,
                            const DesignConfig& config, Sampling sampling,
                            const std::string& defect) {
  analysis::AnalysisInput input =
      analysis::make_analysis_input(program, config, device());
  input.sampling = sampling;
  if (defect.empty()) {
    const fpga::ResourceModel model(device());
    const analysis::ChargedResources charged = core::charged_resources(
        core::estimate_design_resources(program, config, model));
    return analysis::analyze(input, &charged);
  }
  DiagnosticEngine diags;
  const int last = program.dims() - 1;
  const auto ls = static_cast<std::size_t>(last);
  for (int k = 0; k < input.ctx.kernel_count(); ++k) {
    if (defect == "buffer hi + 1") {
      codegen::LoopBounds b = codegen::buffer_bounds(input.ctx, k);
      b.hi[ls] += " + 1";
      analysis::check_buffer_bounds(input, k, b, &diags);
    } else if (defect == "owned lo - 1") {
      codegen::LoopBounds b = codegen::owned_bounds(input.ctx, k, 0);
      b.lo[0] += " - 1";
      analysis::check_owned_bounds(input, k, 0, b, &diags);
    } else {  // "stage hi + 1"
      codegen::LoopBounds b = codegen::stage_compute_bounds(input.ctx, k, 0);
      b.hi[ls] += " + 1";
      analysis::check_stage_accesses(input, k, 0, b, &diags);
    }
  }
  return diags;
}

TEST_P(SamplingOracleTest, DesignBoundsAgreeWithEveryOrigin) {
  const StencilProgram program =
      small_program(stencil::find_benchmark(GetParam()));
  int defects_seen = 0;
  for (const NamedConfig& design : small_designs(program)) {
    if (design.config.family != arch::DesignFamily::kPipeTiling) {
      // The temporal cascade has no tile loop bounds; its passes 1-3
      // still run, and must agree.
      EXPECT_EQ(
          keys(run_design(program, design.config, Sampling::kVertices, "")),
          keys(run_design(program, design.config, Sampling::kExhaustive,
                          "")));
      continue;
    }
    for (const std::string defect :
         {"", "buffer hi + 1", "owned lo - 1", "stage hi + 1"}) {
      SCOPED_TRACE(design.name + " / " + (defect.empty() ? "clean" : defect));
      const std::set<DiagKey> sampled = keys(
          run_design(program, design.config, Sampling::kVertices, defect));
      const std::set<DiagKey> exhaustive = keys(
          run_design(program, design.config, Sampling::kExhaustive, defect));
      EXPECT_EQ(sampled, exhaustive) << "sampled:\n"
                                     << render(sampled) << "exhaustive:\n"
                                     << render(exhaustive);
      if (defect.empty()) {
        EXPECT_TRUE(exhaustive.empty()) << render(exhaustive);
      } else if (!exhaustive.empty()) {
        ++defects_seen;
      }
    }
  }
  EXPECT_GT(defects_seen, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SamplingOracleTest,
    ::testing::Values("Jacobi-1D", "Jacobi-2D", "Jacobi-3D", "HotSpot-2D",
                      "HotSpot-3D", "FDTD-2D", "FDTD-3D"),
    [](const ::testing::TestParamInfo<const char*>& param) {
      std::string name = param.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace scl
