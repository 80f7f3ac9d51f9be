// Lowers emitted OpenCL kernel source into the analysis IR (ir.hpp).
//
// The generator's output is a disciplined subset of OpenCL-C: `#define`
// index macros, `pipe float` declarations, single-work-item kernels made
// of counted loop nests over flat array accesses and blocking pipe
// calls. The lowerer re-reads that text with the *frontend* lexer (the
// same tokenizer the OpenCL importer uses) and builds the statement IR.
// It deliberately re-derives nothing from the design config — what is
// analyzed is what was emitted.
//
// Expressions compile once, to the slot-indexed postfix ir::Expr. Each
// `#define` body is compiled on its first use into a template whose
// parameters are placeholders; later uses splice the compiled ops, so a
// macro is never re-expanded token by token. Names resolve to slots at
// the same time, and a final pass stores per-loop facts (pipe sets,
// whether nested bounds read the loop variable) on the statements.
//
// Constructs outside the subset do not abort the lowering: they become
// ir::Stmt::kOpaque leaves / Module::unmodeled entries, which the
// dataflow pass reports as SCL409 so the analysis is never silently
// partial. Structurally broken text (unterminated kernels, unbalanced
// parentheses) throws scl::Error.
#pragma once

#include <string>
#include <string_view>

#include "analysis/ir/ir.hpp"

namespace scl::analysis::ir {

/// Lowers one emitted kernel-source file. Throws scl::Error when the
/// text cannot be tokenized or a kernel never closes.
Module lower_kernel_source(const std::string& source);

/// Compiles one loop-bound string of codegen/boundary_gen with the same
/// parser. Only the fixed slots (r0..r2, pass_h, it) may appear. Throws
/// scl::Error "cannot parse bound expression '<text>': <why>" on a
/// syntax error, trailing input or an unknown variable.
Expr parse_bound_expr(std::string_view text);

}  // namespace scl::analysis::ir
