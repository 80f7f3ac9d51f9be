// Structural validator for generated sources.
//
// Not a compiler: a fast text check for the generator bugs that break the
// text itself, reported as support::Diagnostic entries:
//
//   SCL001  unbalanced delimiters          SCL002  unexpanded placeholder
//
// Pipe pairing (SCL010-016) is read from the lowered kernel IR instead
// (analysis::ir::check_pipe_pairing, run by core::verify_generated_ir).
#pragma once

#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace scl::codegen {

/// Checks a generated kernel translation unit (delimiters and
/// placeholders). Returns the list of problems found (empty = clean).
std::vector<support::Diagnostic> validate_kernel_source(
    const std::string& src);

/// Checks generated host source (delimiters and placeholders only).
std::vector<support::Diagnostic> validate_host_source(const std::string& src);

}  // namespace scl::codegen
