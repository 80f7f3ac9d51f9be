#include "support/diagnostics.hpp"

#include "support/json.hpp"
#include "support/strings.hpp"

namespace scl::support {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

const std::vector<CatalogEntry>& diagnostic_catalog() {
  static const std::vector<CatalogEntry> kCatalog = {
      {"SCL001", Severity::kError, "source-structure",
       "generated source has unbalanced delimiters"},
      {"SCL002", Severity::kError, "source-structure",
       "generated source contains an unexpanded template placeholder"},
      {"SCL010", Severity::kError, "kernel-ir",
       "pipe declared but never written"},
      {"SCL011", Severity::kError, "kernel-ir",
       "pipe declared but never read"},
      {"SCL012", Severity::kError, "kernel-ir",
       "pipe written but not declared"},
      {"SCL013", Severity::kError, "kernel-ir",
       "pipe read but not declared"},
      {"SCL014", Severity::kError, "kernel-ir",
       "pipe written by multiple kernels"},
      {"SCL015", Severity::kError, "kernel-ir",
       "pipe read by multiple kernels"},
      {"SCL016", Severity::kError, "kernel-ir",
       "pipe read and written by the same kernel"},
      {"SCL101", Severity::kError, "pipe-graph",
       "halo face is never delivered: no pipe from the neighbor tile"},
      {"SCL102", Severity::kError, "pipe-graph",
       "pipe FIFO depth is below the boundary-layer volume one exchange "
       "phase pushes"},
      {"SCL103", Severity::kError, "pipe-graph",
       "blocked-write cycle in the pipe schedule deadlocks the region pass"},
      {"SCL104", Severity::kWarning, "pipe-graph",
       "pipe carries no boundary data: no stage reads across that face"},
      {"SCL105", Severity::kError, "pipe-graph",
       "pipe connects an invalid kernel pair (non-adjacent, duplicate, or "
       "missing neighbor)"},
      {"SCL106", Severity::kWarning, "pipe-graph",
       "pipe depth is not a power of two as xcl_reqd_pipe_depth requires"},
      {"SCL201", Severity::kError, "halo-bounds",
       "burst-read bounds escape the grid at some region origin"},
      {"SCL202", Severity::kError, "halo-bounds",
       "stage reads a field offset outside the local buffer box"},
      {"SCL203", Severity::kError, "halo-bounds",
       "burst write covers cells outside the updatable region"},
      {"SCL209", Severity::kWarning, "halo-bounds",
       "loop bound is outside the affine bound language; interval analysis "
       "skipped it"},
      {"SCL301", Severity::kError, "resource-model",
       "declared pipe-channel count disagrees with the resource model"},
      {"SCL302", Severity::kError, "resource-model",
       "generated local-buffer elements disagree with the resource model"},
      {"SCL303", Severity::kError, "resource-model",
       "charged FIFO elements disagree with the exchange schedule's "
       "in-flight volume"},
      {"SCL310", Severity::kWarning, "resource-model",
       "design demand exceeds the selected device's capacity"},
      {"SCL401", Severity::kError, "kernel-ir",
       "local-buffer index provably escapes the buffer extent"},
      {"SCL402", Severity::kError, "kernel-ir",
       "global-memory index provably escapes [0, grid cells)"},
      {"SCL403", Severity::kError, "kernel-ir",
       "local-buffer read no store can have initialized"},
      {"SCL404", Severity::kError, "kernel-ir",
       "local buffer is stored but never loaded (dead stores)"},
      {"SCL405", Severity::kError, "kernel-ir",
       "index arithmetic overflows 32-bit signed int"},
      {"SCL406", Severity::kError, "kernel-ir",
       "pipe writes and reads are unbalanced over one region pass"},
      {"SCL407", Severity::kWarning, "kernel-ir",
       "loop body never executes at any sampled region origin"},
      {"SCL408", Severity::kError, "kernel-ir",
       "__global output buffer is never stored"},
      {"SCL409", Severity::kWarning, "kernel-ir",
       "kernel-IR analysis incomplete: construct outside the modeled "
       "subset (error when lowering fails entirely)"},
  };
  return kCatalog;
}

Diagnostic& DiagnosticEngine::add(std::string code, Severity severity,
                                  std::string message) {
  Diagnostic diag;
  diag.code = std::move(code);
  diag.severity = severity;
  diag.message = std::move(message);
  diagnostics_.push_back(std::move(diag));
  return diagnostics_.back();
}

void DiagnosticEngine::merge(const DiagnosticEngine& other) {
  diagnostics_.insert(diagnostics_.end(), other.diagnostics_.begin(),
                      other.diagnostics_.end());
}

std::int64_t DiagnosticEngine::count(Severity severity) const {
  std::int64_t n = 0;
  for (const Diagnostic& diag : diagnostics_) {
    if (diag.severity == severity) ++n;
  }
  return n;
}

std::string DiagnosticEngine::render_text() const {
  std::string out;
  for (const Diagnostic& diag : diagnostics_) {
    out += str_cat(diag.code, " ", to_string(diag.severity));
    if (!diag.location.empty()) {
      out += " [";
      out += diag.location.component;
      if (!diag.location.detail.empty()) {
        if (!diag.location.component.empty()) out += " ";
        out += diag.location.detail;
      }
      if (diag.location.line >= 0) {
        out += str_cat(":", diag.location.line);
      }
      out += "]";
    }
    out += str_cat(": ", diag.message, "\n");
    for (const std::string& note : diag.notes) {
      out += str_cat("  note: ", note, "\n");
    }
  }
  return out;
}

std::string DiagnosticEngine::render_json() const {
  JsonWriter json(JsonStyle::kSpaced);
  json.begin_object();
  json.key("diagnostics").begin_array();
  for (const Diagnostic& diag : diagnostics_) {
    json.begin_object();
    json.member("code", diag.code);
    json.member("severity", to_string(diag.severity));
    json.member("message", diag.message);
    if (!diag.location.empty()) {
      json.key("location").begin_object();
      json.member("component", diag.location.component);
      json.member("detail", diag.location.detail);
      if (diag.location.line >= 0) json.member("line", diag.location.line);
      json.end_object();
    }
    if (!diag.notes.empty()) {
      json.key("notes").begin_array();
      for (const std::string& note : diag.notes) json.value(note);
      json.end_array();
    }
    json.end_object();
  }
  json.end_array();
  json.member("errors", error_count());
  json.member("warnings", warning_count());
  json.end_object();
  return json.take();
}

}  // namespace scl::support
