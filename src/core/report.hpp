// Markdown synthesis-report writer.
//
// Renders a SynthesisReport as a self-contained Markdown document: the
// extracted features, both design points with predicted/simulated latency
// and full resource tables, the execution-phase breakdowns, and (when code
// generation ran) the generated-source inventory. The CLI's --report flag
// and downstream CI pipelines consume this.
#pragma once

#include <string>

#include "core/framework.hpp"

namespace scl::core {

struct MarkdownReportOptions {
  /// Include the timing rows of the DSE section (wall-clock,
  /// candidates/sec). The synthesis artifact store renders with false:
  /// stored reports must be byte-deterministic across runs and machines.
  bool include_timing = true;
};

/// Renders the report as GitHub-flavored Markdown.
std::string render_markdown_report(const SynthesisReport& report,
                                   MarkdownReportOptions options = {});

}  // namespace scl::core
