#include "analysis/ir/lower.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "frontend/lexer.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::analysis::ir {

using scl::frontend::Token;
using scl::frontend::TokenKind;

namespace {

/// One `#define`. The body stays as tokens until its first use, which
/// compiles it to an expression template (kParam ops stand for the
/// parameters); every later use splices the compiled ops.
struct Macro {
  enum class State { kRaw, kCompiling, kCompiled };

  bool function_like = false;
  std::vector<std::string> params;
  std::vector<Token> body;
  State state = State::kRaw;
  Expr expansion;
};

using MacroTable = std::unordered_map<std::string, Macro>;

/// The frontend lexer strips preprocessor lines, so macro definitions are
/// collected from the raw text first. The emitter only produces
/// single-line `#define NAME[(params)] body` forms.
MacroTable collect_macros(const std::string& source) {
  MacroTable macros;
  for (std::size_t start = 0; start < source.size();) {
    std::size_t end = source.find('\n', start);
    if (end == std::string::npos) end = source.size();
    const std::string_view raw(source.data() + start, end - start);
    start = end + 1;
    const std::size_t first = raw.find_first_not_of(" \t\r\f\v");
    if (first == std::string_view::npos || raw[first] != '#') continue;
    const std::string line = trim(raw);
    if (!starts_with(line, "#define ")) continue;
    std::size_t pos = 8;
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    std::string name;
    while (pos < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[pos])) ||
            line[pos] == '_')) {
      name.push_back(line[pos++]);
    }
    if (name.empty()) continue;
    Macro macro;
    if (pos < line.size() && line[pos] == '(') {
      macro.function_like = true;
      ++pos;
      std::string param;
      while (pos < line.size() && line[pos] != ')') {
        const char c = line[pos++];
        if (c == ',') {
          if (!param.empty()) macro.params.push_back(std::move(param));
          param.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
          param.push_back(c);
        }
      }
      if (!param.empty()) macro.params.push_back(std::move(param));
      if (pos < line.size()) ++pos;  // consume ')'
    }
    macro.body = scl::frontend::tokenize(line.substr(pos));
    if (!macro.body.empty() && macro.body.back().kind == TokenKind::kEnd) {
      macro.body.pop_back();
    }
    macros.emplace(std::move(name), std::move(macro));
  }
  return macros;
}

/// True when `tok` is the one-character punctuator `c`: the parser's hot
/// path, cheaper than a string compare.
bool is_punct(const Token& tok, char c) {
  return tok.kind == TokenKind::kPunct && tok.text.size() == 1 &&
         tok.text[0] == c;
}

/// Cursor over a token stream with the small helpers every
/// recursive-descent parser wants.
class Cursor {
 public:
  explicit Cursor(const std::vector<Token>* tokens) : tokens_(tokens) {}

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_->size() ? (*tokens_)[i] : end_token_;
  }
  const Token& next() {
    const Token& t = peek();
    if (pos_ < tokens_->size()) ++pos_;
    return t;
  }
  bool at_end() const {
    return pos_ >= tokens_->size() ||
           (*tokens_)[pos_].kind == TokenKind::kEnd;
  }
  bool consume(const char* text) {
    if (peek().is(text)) {
      next();
      return true;
    }
    return false;
  }
  void expect(const char* text) {
    if (!consume(text)) {
      throw Error(str_cat("expected '", text, "' but found '", peek().text,
                          "' at line ", peek().line));
    }
  }
  /// Skips one balanced (...) group, cursor on the opening paren.
  void skip_parens() {
    expect("(");
    int nesting = 1;
    while (nesting > 0) {
      if (at_end()) throw Error("unbalanced parentheses");
      const Token& t = next();
      if (t.is("(")) ++nesting;
      if (t.is(")")) --nesting;
    }
  }
  /// Skips to just past the next ';' (statement-level error recovery).
  void skip_statement() {
    while (!at_end() && !next().is(";")) {
    }
  }

 private:
  const std::vector<Token>* tokens_;
  std::size_t pos_ = 0;
  Token end_token_{TokenKind::kEnd, "", 0};
};

std::int64_t parse_int_literal(const Token& tok) {
  if (tok.kind != TokenKind::kNumber ||
      tok.text.find_first_of(".eEfF") != std::string::npos) {
    throw Error(str_cat("expected integer literal, found '", tok.text,
                        "' at line ", tok.line));
  }
  return std::strtoll(tok.text.c_str(), nullptr, 10);
}

/// Integer expression parser (the emitted index/bound language), emitting
/// postfix ops:
///   expr   := term (('+' | '-') term)*
///   term   := factor (('*' | '/' | '%') factor)*
///   factor := INT | IDENT | MACRO | MACRO '(' expr (',' expr)* ')'
///           | '-' factor | '(' expr ')' | '(' 'long' ')' factor
///           | ('max' | 'min') '(' expr ',' expr ')'
/// Identifiers resolve to slots here, once. A macro use splices the
/// macro's compiled expansion, so each `#define` is parsed once however
/// often the kernels use it.
class ExprParser {
 public:
  /// `slots` receives every variable name. Without one the language is
  /// restricted to the fixed slots (pass 2's bound strings) and any other
  /// name is an error. `macros` may be null (no macros).
  ExprParser(MacroTable* macros, SlotTable* slots)
      : macros_(macros), slots_(slots) {}

  Expr parse(Cursor& cur) {
    ops_.clear();
    expr(cur);
    Expr e;
    e.ops.assign(ops_.begin(), ops_.end());  // one exact allocation
    return e;
  }

 private:
  void expr(Cursor& cur) {
    term(cur);
    for (;;) {
      Expr::Kind kind;
      if (is_punct(cur.peek(), '+')) {
        kind = Expr::Kind::kAdd;
      } else if (is_punct(cur.peek(), '-')) {
        kind = Expr::Kind::kSub;
      } else {
        return;
      }
      cur.next();
      term(cur);
      ops_.push_back({kind, 0, 0});
    }
  }

  void term(Cursor& cur) {
    factor(cur);
    for (;;) {
      Expr::Kind kind;
      if (is_punct(cur.peek(), '*')) {
        kind = Expr::Kind::kMul;
      } else if (is_punct(cur.peek(), '/')) {
        kind = Expr::Kind::kDiv;
      } else if (is_punct(cur.peek(), '%')) {
        kind = Expr::Kind::kMod;
      } else {
        return;
      }
      cur.next();
      factor(cur);
      ops_.push_back({kind, 0, 0});
    }
  }

  void factor(Cursor& cur) {
    const Token& tok = cur.peek();
    if (is_punct(tok, '-')) {
      cur.next();
      factor(cur);
      ops_.push_back({Expr::Kind::kNeg, 0, 0});
      return;
    }
    if (is_punct(tok, '(')) {
      // `(long)<factor>`: the emitter widens the flat global index to
      // 64-bit device arithmetic (see codegen's GIDX macro).
      if (cur.peek(1).is("long") && is_punct(cur.peek(2), ')')) {
        cur.next();
        cur.next();
        cur.next();
        factor(cur);
        ops_.push_back({Expr::Kind::kCast64, 0, 0});
        return;
      }
      cur.next();
      expr(cur);
      cur.expect(")");
      return;
    }
    if (tok.kind == TokenKind::kNumber) {
      cur.next();
      ops_.push_back({Expr::Kind::kLiteral, 0, parse_int_literal(tok)});
      return;
    }
    if (tok.kind == TokenKind::kIdentifier) {
      cur.next();
      identifier(tok, cur);
      return;
    }
    throw Error(str_cat("unexpected token '", tok.text,
                        "' in integer expression at line ", tok.line));
  }

  void identifier(const Token& tok, Cursor& cur) {
    if (params_ != nullptr) {
      for (std::size_t p = 0; p < params_->size(); ++p) {
        if (tok.text == (*params_)[p]) {
          ops_.push_back({Expr::Kind::kParam, static_cast<std::int32_t>(p), 0});
          return;
        }
      }
    }
    if (macros_ != nullptr) {
      const auto it = macros_->find(tok.text);
      if (it != macros_->end()) {
        Macro& macro = it->second;
        if (!macro.function_like) {
          const Expr& body = expansion(tok, macro);
          ops_.insert(ops_.end(), body.ops.begin(), body.ops.end());
          return;
        }
        if (cur.peek().is("(")) {
          call(tok, macro, cur);
          return;
        }
        // A function-like macro name without a call stays a plain name.
      }
    }
    if (tok.is("max") || tok.is("min")) {
      cur.expect("(");
      expr(cur);
      cur.expect(",");
      expr(cur);
      cur.expect(")");
      ops_.push_back(
          {tok.is("max") ? Expr::Kind::kMax : Expr::Kind::kMin, 0, 0});
      return;
    }
    const int slot = slots_ != nullptr ? slots_->intern(tok.text)
                                       : SlotTable::fixed().find(tok.text);
    if (slot < 0) throw Error(str_cat("unknown variable '", tok.text, "'"));
    ops_.push_back({Expr::Kind::kVar, slot, 0});
  }

  /// `NAME(arg, ...)`: parses the arguments onto the op buffer, then
  /// replaces them with the macro's template instantiated on them.
  void call(const Token& tok, Macro& macro, Cursor& cur) {
    cur.expect("(");
    const std::size_t args_begin = ops_.size();
    const std::size_t ranges_begin = arg_ranges_.size();
    try {
      do {
        const std::size_t begin = ops_.size();
        expr(cur);
        arg_ranges_.emplace_back(begin, ops_.size());
      } while (cur.consume(","));
      cur.expect(")");
    } catch (const Error&) {
      if (!cur.at_end()) throw;
      throw Error(str_cat("unterminated macro call '", tok.text,
                          "' at line ", tok.line));
    }
    const std::size_t args = arg_ranges_.size() - ranges_begin;
    if (args != macro.params.size()) {
      throw Error(str_cat("macro '", tok.text, "' expects ",
                          macro.params.size(), " argument(s), got ", args,
                          " at line ", tok.line));
    }
    const Expr& body = expansion(tok, macro);
    instance_.clear();
    for (const Expr::Op& op : body.ops) {
      if (op.kind == Expr::Kind::kParam) {
        const auto [begin, end] =
            arg_ranges_[ranges_begin + static_cast<std::size_t>(op.slot)];
        instance_.insert(instance_.end(),
                         ops_.begin() + static_cast<std::ptrdiff_t>(begin),
                         ops_.begin() + static_cast<std::ptrdiff_t>(end));
      } else {
        instance_.push_back(op);
      }
    }
    arg_ranges_.resize(ranges_begin);
    ops_.resize(args_begin);
    ops_.insert(ops_.end(), instance_.begin(), instance_.end());
  }

  /// Compiles `macro`'s body on first use. Splicing compiled ops equals
  /// textual expansion only when the body is one factor and every
  /// parameter sits alone between delimiters, as in `((i0) - K0_B0_LO)`:
  /// then no operator precedence can reach into or out of a
  /// substitution. The emitter writes its macros that way; anything else
  /// is outside the modeled subset.
  const Expr& expansion(const Token& use, Macro& macro) {
    if (macro.state == Macro::State::kCompiled) return macro.expansion;
    if (macro.state == Macro::State::kCompiling) {
      throw Error("macro expansion exceeds depth limit (recursive #define?)");
    }
    macro.state = Macro::State::kCompiling;
    const auto delimits = [&](std::size_t i, const char* a, const char* b) {
      return i < macro.body.size() &&
             (macro.body[i].is(a) || macro.body[i].is(b));
    };
    for (std::size_t i = 0; i < macro.body.size(); ++i) {
      Token& t = macro.body[i];
      t.line = use.line;  // diagnostics point at the use, not the #define
      const bool is_param =
          t.kind == TokenKind::kIdentifier &&
          std::find(macro.params.begin(), macro.params.end(), t.text) !=
              macro.params.end();
      if (is_param && (i == 0 || !delimits(i - 1, "(", ",") ||
                       !delimits(i + 1, ")", ","))) {
        throw Error(str_cat("macro '", use.text, "' uses parameter '", t.text,
                            "' without parentheses at line ", use.line));
      }
    }
    // Compile on the tail of the op buffer, then move the ops out.
    Cursor body(&macro.body);
    const std::vector<std::string>* outer = params_;
    params_ = &macro.params;
    const std::size_t begin = ops_.size();
    factor(body);
    params_ = outer;
    if (!body.at_end()) {
      throw Error(str_cat("macro '", use.text,
                          "' does not expand to a self-contained expression "
                          "at line ",
                          use.line));
    }
    macro.expansion.ops.assign(
        ops_.begin() + static_cast<std::ptrdiff_t>(begin), ops_.end());
    ops_.resize(begin);
    macro.state = Macro::State::kCompiled;
    return macro.expansion;
  }

  MacroTable* macros_;
  SlotTable* slots_;
  /// Parameters of the function-like macro being compiled, if any.
  const std::vector<std::string>* params_ = nullptr;
  /// Postfix output; nested parses (macro arguments and bodies) work on
  /// its tail, so one buffer serves every expression.
  std::vector<Expr::Op> ops_;
  /// [begin, end) op ranges of the macro arguments being collected.
  std::vector<std::pair<std::size_t, std::size_t>> arg_ranges_;
  /// Scratch for one macro instantiation.
  std::vector<Expr::Op> instance_;
};

/// Scans right-hand-side tokens up to the terminating ';', collecting
/// every `array[index]` element read. Float arithmetic between the reads
/// is irrelevant to the dataflow checks and is skipped.
std::vector<ArrayRef> scan_loads(Cursor& cur, ExprParser& exprs) {
  std::vector<ArrayRef> loads;
  while (!cur.at_end() && !is_punct(cur.peek(), ';')) {
    const Token& tok = cur.next();
    if (tok.kind == TokenKind::kIdentifier && is_punct(cur.peek(), '[')) {
      cur.next();  // '['
      ArrayRef ref;
      ref.array = tok.text;
      ref.line = tok.line;
      ref.index = exprs.parse(cur);
      cur.expect("]");
      loads.push_back(std::move(ref));
    }
  }
  cur.consume(";");
  return loads;
}

class KernelParser {
 public:
  KernelParser(Cursor& cur, ExprParser& exprs, Module* module)
      : cur_(cur), exprs_(exprs), module_(module) {}

  Stmt parse_statement() {
    const Token& tok = cur_.peek();
    if (tok.is("for")) return parse_loop();
    if (tok.is("barrier")) {
      Stmt stmt;
      stmt.kind = Stmt::Kind::kBarrier;
      stmt.line = tok.line;
      cur_.next();
      cur_.skip_parens();
      cur_.consume(";");
      return stmt;
    }
    if (tok.is("write_pipe_block") || tok.is("read_pipe_block")) {
      return parse_pipe_call(tok.is("write_pipe_block"));
    }
    if (tok.is("float")) return parse_carrier_decl();
    if (tok.kind == TokenKind::kIdentifier && cur_.peek(1).is("[")) {
      return parse_store();
    }
    // Outside the modeled subset: record and resynchronize at ';'.
    Stmt stmt;
    stmt.kind = Stmt::Kind::kOpaque;
    stmt.line = tok.line;
    stmt.text = tok.text;
    module_->unmodeled.push_back(
        str_cat("statement starting with '", tok.text, "' at line ",
                tok.line));
    cur_.skip_statement();
    return stmt;
  }

 private:
  Stmt parse_loop() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kLoop;
    stmt.line = cur_.peek().line;
    cur_.expect("for");
    cur_.expect("(");
    cur_.expect("int");
    stmt.var = cur_.next().text;
    stmt.var_slot = module_->slots.intern(stmt.var);
    cur_.expect("=");
    stmt.lo = exprs_.parse(cur_);
    cur_.expect(";");
    const std::string cond_var = cur_.next().text;
    if (cur_.consume("<")) {
      stmt.inclusive = false;
    } else if (cur_.consume("<=")) {
      stmt.inclusive = true;
    } else {
      throw Error(str_cat("unsupported loop condition on '", cond_var,
                          "' at line ", stmt.line));
    }
    stmt.hi = exprs_.parse(cur_);
    cur_.expect(";");
    // `++var` or `var++`.
    cur_.consume("+");
    cur_.consume("+");
    cur_.next();  // the variable (either order leaves it last or first)
    cur_.consume("+");
    cur_.consume("+");
    cur_.expect(")");
    if (cur_.consume("{")) {
      while (!cur_.consume("}")) {
        if (cur_.at_end()) {
          throw Error(str_cat("unterminated loop body at line ", stmt.line));
        }
        stmt.body.push_back(parse_statement());
      }
    } else {
      stmt.body.push_back(parse_statement());
    }
    return stmt;
  }

  Stmt parse_pipe_call(bool is_write) {
    Stmt stmt;
    stmt.kind = is_write ? Stmt::Kind::kPipeWrite : Stmt::Kind::kPipeRead;
    stmt.line = cur_.peek().line;
    cur_.next();  // the call name
    cur_.expect("(");
    stmt.pipe = cur_.next().text;
    cur_.expect(",");
    cur_.consume("&");
    cur_.next();  // carrier variable
    cur_.expect(")");
    cur_.consume(";");
    return stmt;
  }

  /// `float v = <rhs>;` or `float v;` — the pipe-exchange carriers. The
  /// loads on the right-hand side are the dataflow-relevant part.
  Stmt parse_carrier_decl() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kStore;  // store to a scalar: no array target
    stmt.line = cur_.peek().line;
    cur_.expect("float");
    cur_.next();  // carrier name
    if (cur_.consume(";")) return stmt;
    if (cur_.consume("=")) {
      stmt.loads = scan_loads(cur_, exprs_);
      return stmt;
    }
    stmt.kind = Stmt::Kind::kOpaque;
    module_->unmodeled.push_back(
        str_cat("float declaration at line ", stmt.line));
    cur_.skip_statement();
    return stmt;
  }

  Stmt parse_store() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kStore;
    const Token& target = cur_.next();
    stmt.line = target.line;
    ArrayRef ref;
    ref.array = target.text;
    ref.line = target.line;
    cur_.expect("[");
    ref.index = exprs_.parse(cur_);
    cur_.expect("]");
    stmt.store = std::move(ref);
    cur_.expect("=");
    stmt.loads = scan_loads(cur_, exprs_);
    return stmt;
  }

  Cursor& cur_;
  ExprParser& exprs_;
  Module* module_;
};

void parse_kernel_params(Cursor& cur, Kernel* kernel) {
  cur.expect("(");
  while (!cur.consume(")")) {
    if (cur.at_end()) {
      throw Error(str_cat("unterminated parameter list of kernel '",
                          kernel->name, "'"));
    }
    const bool is_global = cur.consume("__global");
    const bool is_const = cur.consume("const");
    const std::string type = cur.next().text;  // float | int
    const bool is_pointer = cur.consume("*");
    cur.consume("restrict");
    const std::string name = cur.next().text;
    if (is_global && is_pointer) {
      (is_const ? kernel->global_inputs : kernel->global_outputs)
          .push_back(name);
    } else if (type == "int") {
      kernel->int_params.push_back(name);
    }
    cur.consume(",");
  }
}

Kernel parse_kernel(Cursor& cur, ExprParser& exprs, Module* module) {
  Kernel kernel;
  kernel.line = cur.peek().line;
  cur.expect("__kernel");
  while (cur.consume("__attribute__")) cur.skip_parens();
  cur.expect("void");
  kernel.name = cur.next().text;
  parse_kernel_params(cur, &kernel);
  cur.expect("{");
  KernelParser parser(cur, exprs, module);
  while (!cur.consume("}")) {
    if (cur.at_end()) {
      throw Error(str_cat("kernel '", kernel.name, "' never closes"));
    }
    // Local buffer declarations precede the statements.
    if (cur.peek().is("__local")) {
      cur.next();
      cur.expect("float");
      Buffer buffer;
      buffer.name = cur.next().text;
      buffer.line = cur.peek().line;
      cur.expect("[");
      buffer.size = exprs.parse(cur);
      cur.expect("]");
      cur.consume(";");
      kernel.locals.push_back(std::move(buffer));
      continue;
    }
    kernel.body.push_back(parser.parse_statement());
  }
  return kernel;
}

int index_of(const std::vector<std::string>& names, const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

/// Index of the item called `name` (Buffer, PipeChannel), or -1.
template <typename T>
int index_by_name(const std::vector<T>& items, const std::string& name) {
  const auto it = std::find_if(items.begin(), items.end(), [&](const T& item) {
    return item.name == name;
  });
  return it == items.end() ? -1 : static_cast<int>(it - items.begin());
}

/// Resolves names to indices and computes the per-loop facts the
/// dataflow walks need, once, so no walk re-derives them.
class Resolver {
 public:
  Resolver(const Module& module, Kernel* kernel)
      : module_(module), kernel_(kernel) {}

  /// Resolves `stmts`; returns the slots their loop bounds (at any depth)
  /// read, as a per-slot flag vector.
  std::vector<char> resolve(StmtList& stmts) {
    std::vector<char> bound_slots(module_.slots.size(), 0);
    for (Stmt& stmt : stmts) {
      if (stmt.store.has_value()) resolve(*stmt.store);
      for (ArrayRef& load : stmt.loads) resolve(load);
      if (stmt.kind == Stmt::Kind::kPipeRead ||
          stmt.kind == Stmt::Kind::kPipeWrite) {
        stmt.pipe_index = index_by_name(module_.pipes, stmt.pipe);
      }
      if (stmt.kind != Stmt::Kind::kLoop) continue;
      stmt.loop_id = kernel_->loop_count++;
      const std::vector<char> nested = resolve(stmt.body);
      stmt.bounds_use_var =
          nested[static_cast<std::size_t>(stmt.var_slot)] != 0;
      for (const Stmt& inner : stmt.body) {
        if (inner.kind == Stmt::Kind::kPipeRead ||
            inner.kind == Stmt::Kind::kPipeWrite) {
          stmt.has_pipe_op = true;
          if (inner.pipe_index >= 0) stmt.pipes.push_back(inner.pipe_index);
        }
        if (inner.has_pipe_op) stmt.has_pipe_op = true;
        stmt.pipes.insert(stmt.pipes.end(), inner.pipes.begin(),
                          inner.pipes.end());
      }
      std::sort(stmt.pipes.begin(), stmt.pipes.end());
      stmt.pipes.erase(std::unique(stmt.pipes.begin(), stmt.pipes.end()),
                       stmt.pipes.end());
      for (std::size_t slot = 0; slot < bound_slots.size(); ++slot) {
        bound_slots[slot] |= nested[slot];
      }
      for (const Expr* bound : {&stmt.lo, &stmt.hi}) {
        for (const Expr::Op& op : bound->ops) {
          if (op.kind == Expr::Kind::kVar) {
            bound_slots[static_cast<std::size_t>(op.slot)] = 1;
          }
        }
      }
    }
    return bound_slots;
  }

 private:
  void resolve(ArrayRef& ref) {
    ref.local = index_by_name(kernel_->locals, ref.array);
    ref.output = index_of(kernel_->global_outputs, ref.array);
    ref.global =
        ref.output >= 0 || index_of(kernel_->global_inputs, ref.array) >= 0;
  }

  const Module& module_;
  Kernel* kernel_;
};

}  // namespace

Module lower_kernel_source(const std::string& source) {
  MacroTable macros = collect_macros(source);
  const std::vector<Token> tokens = scl::frontend::tokenize(source);
  Cursor cur(&tokens);

  Module module;
  ExprParser exprs(&macros, &module.slots);
  while (!cur.at_end()) {
    const Token& tok = cur.peek();
    if (tok.is("pipe")) {
      cur.next();
      cur.expect("float");
      PipeChannel pipe;
      pipe.name = cur.next().text;
      pipe.line = tok.line;
      if (cur.consume("__attribute__")) {
        // ((xcl_reqd_pipe_depth(N))): pull N out of the nested parens.
        cur.expect("(");
        cur.expect("(");
        cur.next();  // xcl_reqd_pipe_depth
        cur.expect("(");
        pipe.depth = parse_int_literal(cur.next());
        cur.expect(")");
        cur.expect(")");
        cur.expect(")");
      }
      cur.consume(";");
      module.pipes.push_back(std::move(pipe));
      continue;
    }
    if (tok.is("__kernel")) {
      module.kernels.push_back(parse_kernel(cur, exprs, &module));
      continue;
    }
    module.unmodeled.push_back(str_cat("top-level construct '", tok.text,
                                       "' at line ", tok.line));
    cur.skip_statement();
  }
  for (Kernel& kernel : module.kernels) {
    Resolver(module, &kernel).resolve(kernel.body);
  }
  return module;
}

Expr parse_bound_expr(std::string_view text) {
  try {
    const std::vector<Token> tokens =
        scl::frontend::tokenize(std::string(text));
    Cursor cur(&tokens);
    Expr expr = ExprParser(nullptr, nullptr).parse(cur);
    if (!cur.at_end()) {
      throw Error(str_cat("trailing input '", cur.peek().text, "'"));
    }
    return expr;
  } catch (const Error& e) {
    throw Error(
        str_cat("cannot parse bound expression '", text, "': ", e.what()));
  }
}

}  // namespace scl::analysis::ir
