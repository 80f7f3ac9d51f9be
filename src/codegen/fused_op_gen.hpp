// Fused stencil operation generator (paper §5.2, "Fused Stencil Operation
// Generator").
//
// Renders the body of one fused iteration for one tile kernel: per stage,
// the interior (independent) compute loop, the boundary (dependent) loops,
// the shadow-buffer commit for double-buffered stages, and the symmetric
// per-stage pipe exchange of the stage's output strips.
#pragma once

#include <string>

#include "codegen/boundary_gen.hpp"
#include "codegen/context.hpp"
#include "codegen/pipe_gen.hpp"

namespace scl::codegen {

/// Renders the complete `for (it ...)` fused-iteration loop of kernel `k`,
/// indented for inclusion in the kernel body.
std::string render_fused_iterations(const GenContext& ctx, int k);

/// Index macro name of kernel `k`, e.g. "K0_IDX".
std::string index_macro(const GenContext& ctx, int k);

/// Renders nested for-loops over `bounds` (one per dimension, `indent`
/// spaces deep) and places each line of `body` inside.
std::string render_loop_nest(const GenContext& ctx, const LoopBounds& bounds,
                             const std::string& body, int indent);

}  // namespace scl::codegen
