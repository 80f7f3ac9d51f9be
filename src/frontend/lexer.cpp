#include "frontend/lexer.hpp"

#include <cctype>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::frontend {

std::vector<Token> tokenize(const std::string& source) {
  std::vector<Token> out;
  out.reserve(source.size() / 2);  // emitted OpenCL averages ~3 bytes/token
  std::size_t i = 0;
  int line = 1;
  const std::size_t n = source.size();

  auto peek = [&](std::size_t ahead = 0) {
    return i + ahead < n ? source[i + ahead] : '\0';
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i < n && !(source[i] == '*' && peek(1) == '/')) {
        if (source[i] == '\n') ++line;
        ++i;
      }
      if (i >= n) throw Error(str_cat("unterminated comment at line ", line));
      i += 2;
      continue;
    }
    if (c == '#') {  // preprocessor line: skip (continuations unsupported)
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(source[i])) ||
                       source[i] == '_')) {
        ++i;
      }
      out.push_back(
          Token{TokenKind::kIdentifier, source.substr(start, i - start), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      const std::size_t start = i;
      while (i < n) {
        const char d = source[i];
        if (std::isdigit(static_cast<unsigned char>(d)) || d == '.') {
          ++i;
        } else if (d == 'e' || d == 'E') {
          ++i;
          if (i < n && (source[i] == '+' || source[i] == '-')) ++i;
        } else if (d == 'f' || d == 'F') {
          ++i;
          break;
        } else {
          break;
        }
      }
      out.push_back(
          Token{TokenKind::kNumber, source.substr(start, i - start), line});
      continue;
    }
    // Two-character operators the guard expressions use.
    static const char* kTwoChar[] = {"&&", "||", "<=", ">=", "==", "!="};
    bool matched = false;
    for (const char* op : kTwoChar) {
      if (c == op[0] && peek(1) == op[1]) {
        out.push_back(Token{TokenKind::kPunct, op, line});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    static const std::string kSingles = "()[]{},;=+-*/<>!&|?:%";
    if (kSingles.find(c) != std::string::npos) {
      out.push_back(Token{TokenKind::kPunct, std::string(1, c), line});
      ++i;
      continue;
    }
    throw Error(str_cat("unexpected character '", std::string(1, c),
                        "' at line ", line));
  }
  out.push_back(Token{TokenKind::kEnd, "", line});
  return out;
}

}  // namespace scl::frontend
