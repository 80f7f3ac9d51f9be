// Pass 4: abstract interpretation over the lowered kernel IR (SCL4xx).
//
// Where pass 2 (SCL2xx) re-derives the bound formulas codegen was
// *supposed* to emit, this pass proves properties of the expressions that
// were *actually* emitted, after lowering the generated OpenCL text
// (analysis/ir/lower). Checks:
//
//   SCL401  error    local-buffer index can leave [0, size)
//   SCL402  error    global array index can leave [0, grid cells)
//   SCL403  error    load from a local buffer no store can have written
//   SCL404  error    local buffer is stored but never loaded (dead stores)
//   SCL405  error    index arithmetic can overflow 32-bit signed `int`
//   SCL406  error    pipe token imbalance: writes != reads over one pass
//   SCL407  warning  loop body provably never executes (swapped bounds)
//   SCL408  error    __global output argument is never stored to
//   SCL409  warning  analysis incomplete (unmodeled construct / expression)
//
// Soundness strategy: the host sweeps region origins jointly (one
// (r0, r1, r2, pass_h) tuple per enqueue), so the analyzer evaluates the
// kernel at the cross product of per-dimension origin samples (first,
// one interior, last region — bounds are monotone piecewise-affine in the
// origin) and the pass-depth values the host can produce. Indices are
// checked with the fused-iteration counter `it` as the interval
// [1, pass_h]; pipe-token counts are exact, enumerating `it` concretely
// because send/receive strip bounds depend on it. IrContext::sampling
// switches to every origin and depth; tests use that as the oracle the
// vertex samples must agree with.
//
// Cost model: every expression was compiled once by the lowering, so a
// walk evaluates postfix ops against one slot-indexed Env (a flat vector
// of intervals; entering a loop is one store). Per-loop facts (pipe
// sets, enumerated loops) were also computed at lowering time.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "analysis/interval.hpp"
#include "analysis/ir/ir.hpp"
#include "support/diagnostics.hpp"

namespace scl::sim {
struct DesignConfig;
}  // namespace scl::sim
namespace scl::stencil {
class StencilProgram;
}  // namespace scl::stencil

namespace scl::analysis::ir {

/// Everything the abstract interpreter needs to know about the runtime
/// context the emitted kernels execute in (host-side sweep parameters).
struct IrContext {
  int dims = 1;
  std::array<std::int64_t, 3> grid_extents{1, 1, 1};
  std::array<std::int64_t, 3> region_extents{1, 1, 1};
  std::int64_t fused_iterations = 1;  ///< h: pass depth the host requests
  std::int64_t iterations = 1;        ///< total time steps of the program
  /// Per dimension: how far from either end of the sweep a bound can be
  /// clamped (analysis::clamp_reach); widens the origin samples.
  std::array<std::int64_t, 3> clamp_reach{0, 0, 0};
  Sampling sampling = Sampling::kVertices;

  std::int64_t grid_cells() const {
    std::int64_t cells = 1;
    for (int d = 0; d < dims; ++d) cells *= grid_extents[static_cast<std::size_t>(d)];
    return cells;
  }
};

/// Builds the runtime context exactly as the emitted host program does.
IrContext make_ir_context(const scl::stencil::StencilProgram& program,
                          const scl::sim::DesignConfig& config);

/// Deterministic work counters of one analyze_module call (bench rows
/// only; never serialized into artifacts). Counts accumulate.
struct DataflowStats {
  std::int64_t environments = 0;  ///< sampled (r0, r1, r2, pass_h) tuples
  std::int64_t walks = 0;         ///< kernel-body walks (index, token count)
  std::int64_t expressions = 0;   ///< expression evaluations
};

/// Runs every SCL4xx check over a lowered module; adds its work to
/// `stats` when given.
void analyze_module(const Module& module, const IrContext& ctx,
                    support::DiagnosticEngine* diags,
                    DataflowStats* stats = nullptr);

/// Convenience: lower `source` and analyze it. A lowering failure
/// (structurally broken text) is reported as an SCL409 error rather than
/// thrown, so callers always get diagnostics back.
void analyze_kernel_source(const std::string& source, const IrContext& ctx,
                           support::DiagnosticEngine* diags);

}  // namespace scl::analysis::ir
