// Structured diagnostics for design verification.
//
// Every problem the static analyses (src/analysis/) or the generated-source
// validator (codegen/validator.cpp) can report is a Diagnostic: a stable
// error code, a severity, a human message, an optional location inside the
// design (kernel, pipe, stage, source line, ...), and a chain of
// explanatory notes. Codes are namespaced by topic:
//
//   SCL0xx — generated-source structure: delimiters and placeholders
//            (text validator), pipe pairing (read from the lowered
//            kernel IR)
//   SCL1xx — pipe graph (orphan channels, undersized FIFOs, deadlock,
//            missing halo delivery)
//   SCL2xx — halo & bounds interval analysis (out-of-grid bursts,
//            local-buffer overruns, neighbor reads outside the buffer box)
//   SCL3xx — resource feasibility (model/codegen drift)
//   SCL4xx — kernel-IR dataflow (abstract interpretation over the emitted
//            OpenCL: index bounds, uninitialized reads, dead stores,
//            int32 overflow, pipe token balance)
//
// diagnostic_catalog() is the single registry of every code above; tests
// enumerate it to guarantee each code stays exercised by a golden test.
//
// The engine collects diagnostics in emission order and renders them either
// as human-readable text (one "code severity: message" block per entry,
// notes indented beneath) or as a JSON document with the schema documented
// in docs/ARCHITECTURE.md §8.
#pragma once

#include <string>
#include <vector>

namespace scl::support {

enum class Severity { kNote, kWarning, kError };

const char* to_string(Severity severity);

/// Where in the design or generated source a diagnostic points. All fields
/// are optional; empty/negative means "not applicable".
struct DiagLocation {
  std::string component;  ///< e.g. "pipe", "kernel", "stage", "source"
  std::string detail;     ///< e.g. "p_k0_k1", "stencil_k3", "smooth"
  int line = -1;          ///< 1-based source line for SCL0xx diagnostics

  bool empty() const { return component.empty() && detail.empty() && line < 0; }
};

struct Diagnostic {
  std::string code;  ///< "SCL101" etc.; stable across releases
  Severity severity = Severity::kError;
  std::string message;
  DiagLocation location;
  std::vector<std::string> notes;  ///< explanatory chain, most causal first
};

/// One registered diagnostic code. `default_severity` is the severity the
/// emitting pass uses on its primary path (a few codes escalate in corner
/// cases, e.g. SCL409 becomes an error when lowering fails outright).
struct CatalogEntry {
  const char* code;
  Severity default_severity;
  const char* pass;     ///< emitting pass, e.g. "pipe-graph", "kernel-ir"
  const char* meaning;  ///< one-line description of what the code reports
};

/// The full registry of SCL codes, in ascending code order. Every code any
/// pass can emit appears here exactly once; tests/scl_codes_test.cpp fails
/// when a code is emitted from src/ but missing here, or listed here but
/// not exercised by a golden test.
const std::vector<CatalogEntry>& diagnostic_catalog();

/// Collects diagnostics and renders them. Emission order is preserved, and
/// the analyses emit in deterministic (kernel, dimension, side) order, so
/// renderings are byte-stable run to run.
class DiagnosticEngine {
 public:
  /// Starts a diagnostic; returns a reference valid until the next add().
  Diagnostic& add(std::string code, Severity severity, std::string message);

  /// Convenience wrappers.
  Diagnostic& error(std::string code, std::string message) {
    return add(std::move(code), Severity::kError, std::move(message));
  }
  Diagnostic& warning(std::string code, std::string message) {
    return add(std::move(code), Severity::kWarning, std::move(message));
  }

  /// Appends every diagnostic of `other`.
  void merge(const DiagnosticEngine& other);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }
  std::size_t size() const { return diagnostics_.size(); }

  std::int64_t error_count() const { return count(Severity::kError); }
  std::int64_t warning_count() const { return count(Severity::kWarning); }
  bool has_errors() const { return error_count() > 0; }

  /// Human-readable rendering, one block per diagnostic:
  ///   SCL101 error [pipe p_k0_k1]: message
  ///     note: ...
  std::string render_text() const;

  /// JSON rendering (see docs/ARCHITECTURE.md §8 for the schema):
  ///   {"diagnostics": [...], "errors": N, "warnings": M}
  std::string render_json() const;

 private:
  std::int64_t count(Severity severity) const;

  std::vector<Diagnostic> diagnostics_;
};

}  // namespace scl::support
