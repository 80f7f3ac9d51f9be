#include "codegen/validator.hpp"

#include <algorithm>
#include <utility>

#include "support/strings.hpp"

namespace scl::codegen {

using support::Diagnostic;
using support::Severity;

namespace {

Diagnostic make_error(std::string code, std::string message, int line = -1) {
  Diagnostic diag;
  diag.code = std::move(code);
  diag.severity = Severity::kError;
  diag.message = std::move(message);
  diag.location = {"source", "", line};
  return diag;
}

void check_balance(const std::string& src, std::vector<Diagnostic>* out,
                   char open, char close, const char* what) {
  std::int64_t depth = 0;
  int line = 1;
  for (const char c : src) {
    if (c == '\n') ++line;
    if (c == open) ++depth;
    if (c == close) {
      --depth;
      if (depth < 0) {
        out->push_back(make_error(
            "SCL001",
            str_cat("unbalanced ", what, ": extra '", close, "'"), line));
        return;
      }
    }
  }
  if (depth != 0) {
    out->push_back(make_error(
        "SCL001",
        str_cat("unbalanced ", what, ": ", depth, " unclosed '", open, "'")));
  }
}

void check_placeholders(const std::string& src,
                        std::vector<Diagnostic>* out) {
  const std::size_t pos = src.find('$');
  if (pos != std::string::npos) {
    const int line = 1 + static_cast<int>(
                             std::count(src.begin(),
                                        src.begin() + static_cast<std::ptrdiff_t>(pos),
                                        '\n'));
    out->push_back(make_error(
        "SCL002", str_cat("unexpanded formula placeholder at offset ", pos),
        line));
  }
}

}  // namespace

std::vector<Diagnostic> validate_kernel_source(const std::string& src) {
  std::vector<Diagnostic> issues;
  check_balance(src, &issues, '{', '}', "braces");
  check_balance(src, &issues, '(', ')', "parentheses");
  check_balance(src, &issues, '[', ']', "brackets");
  check_placeholders(src, &issues);

  return issues;
}

std::vector<Diagnostic> validate_host_source(const std::string& src) {
  std::vector<Diagnostic> issues;
  check_balance(src, &issues, '{', '}', "braces");
  check_balance(src, &issues, '(', ')', "parentheses");
  check_placeholders(src, &issues);
  return issues;
}

}  // namespace scl::codegen
