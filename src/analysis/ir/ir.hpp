// Kernel IR: a small statement-level intermediate representation of the
// OpenCL the code generator emits, plus the abstract-interpretation pass
// family (SCL4xx) that verifies it.
//
// The PR-2 verifier (SCL1xx-SCL3xx) checks the *design configuration* —
// pipe graph, re-derived halo bounds, resource charge — but never the
// generated text itself, so an emitter bug that produces out-of-bounds
// indexing or an unbalanced channel schedule ships silently. This layer
// closes that gap: the emitted kernel source is lowered (reusing the
// frontend lexer) into the structured IR below, and analysis/ir/dataflow
// runs interval abstract interpretation over it, proving properties of
// the *actual emitted expressions* instead of the formulas that were
// supposed to produce them.
//
// The IR models exactly the language subset the emitter produces:
// counted `for` loops over int induction variables, flat array stores and
// loads through expanded index macros, blocking pipe reads/writes, local
// scalar carriers (`float v`), and barriers. Anything outside the subset
// lowers to an opaque statement and is reported as SCL409 (analysis
// incomplete) rather than silently skipped.
//
// Expressions are compiled once, when the text is lowered, to postfix
// ops over variable slots (Expr), and evaluated many times against a
// flat slot-indexed environment (Env). Pass 2 (analysis/analyzer)
// compiles codegen/boundary_gen's bound strings with the same parser,
// so both bound verifiers share one expression language.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/interval.hpp"

namespace scl::analysis::ir {

/// Variable slots every expression shares: the host sweep's kernel
/// arguments and the fused-iteration counter. Other variables (loop
/// induction variables) get slots after these when a module is lowered.
enum FixedSlot : int {
  kSlotR0 = 0,
  kSlotR1,
  kSlotR2,
  kSlotPassH,
  kSlotIt,
  kFixedSlotCount,
};

/// Interned variable names, indexed by slot. The fixed slots come first,
/// in FixedSlot order. Names are resolved to slots once, when an
/// expression is built; evaluation never looks a name up.
class SlotTable {
 public:
  SlotTable();

  /// The slot of `name`, or -1 when it was never interned.
  int find(std::string_view name) const;
  /// The slot of `name`, adding it when new.
  int intern(std::string_view name);

  const std::string& name(int slot) const {
    return names_[static_cast<std::size_t>(slot)];
  }
  std::size_t size() const { return names_.size(); }

  /// The table holding only the fixed slots (pass 2's bound language).
  static const SlotTable& fixed();

 private:
  std::vector<std::string> names_;
};

/// Marks a slot whose variable is not in scope. No evaluation produces
/// it: every real interval has lo <= hi.
inline constexpr Interval kUnbound{std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()};

/// Slot-indexed variable environment: slot -> interval of possible
/// runtime values. Binding a loop variable is one store; `slots` names
/// the slots for diagnostics only.
struct Env {
  explicit Env(const SlotTable& table)
      : values(table.size(), kUnbound), slots(&table) {}

  Interval& operator[](int slot) {
    return values[static_cast<std::size_t>(slot)];
  }
  const Interval& operator[](int slot) const {
    return values[static_cast<std::size_t>(slot)];
  }

  std::vector<Interval> values;
  const SlotTable* slots;
};

/// Integer expression over variable slots, compiled once to postfix and
/// evaluated many times. Only the operators the emitter's index/bound
/// language uses exist; evaluation is interval arithmetic over
/// analysis::Interval.
struct Expr {
  enum class Kind {
    kLiteral,  ///< value
    kVar,      ///< the variable in `slot`
    kParam,    ///< macro parameter `slot` (macro templates only)
    kAdd,      ///< a + b
    kSub,      ///< a - b
    kMul,      ///< a * b
    kNeg,      ///< -a
    kMin,      ///< min(a, b)
    kMax,      ///< max(a, b)
    kCast64,   ///< (long)a: widens to 64-bit device arithmetic
    kDiv,      ///< a / b (C truncating; constant divisor > 0)
    kMod,      ///< a % b (C remainder; constant divisor > 0)
  };

  /// One postfix operation: operands are the one or two values below it
  /// on the evaluation stack.
  struct Op {
    Kind kind = Kind::kLiteral;
    std::int32_t slot = 0;
    std::int64_t value = 0;
  };

  std::vector<Op> ops;

  static Expr literal(std::int64_t v) {
    Expr e;
    e.ops.push_back({Kind::kLiteral, 0, v});
    return e;
  }
  /// Applies operator `kind` to one (kNeg, kCast64) or two operands.
  static Expr make(Kind kind, const std::vector<Expr>& args) {
    Expr e;
    for (const Expr& arg : args) {
      e.ops.insert(e.ops.end(), arg.ops.begin(), arg.ops.end());
    }
    e.ops.push_back({kind, 0, 0});
    return e;
  }

  /// Renders the expression back to C-ish text (diagnostics only).
  std::string to_string(const SlotTable& slots) const;
};

/// Interval evaluation of `expr` under `env`. A variable whose slot is
/// unbound throws scl::Error (the analyzer reports SCL409 and skips the
/// statement).
/// `int32_overflow`, when non-null, is set if any intermediate value can
/// escape the 32-bit signed range — the emitted arithmetic runs on
/// OpenCL `int`, so that is real wrap-around on the device. A kCast64
/// subtree widens to `long`: its result and every operation it feeds are
/// 64-bit on the device and exempt from the check (operands computed
/// *before* the cast are still `int` and still checked).
Interval eval_expr(const Expr& expr, const Env& env,
                   bool* int32_overflow = nullptr);

/// One array element access: `array[index]` after index-macro expansion.
/// The target is resolved when the kernel is lowered.
struct ArrayRef {
  std::string array;
  Expr index;
  int line = 0;
  int local = -1;      ///< index into Kernel::locals, or -1
  int output = -1;     ///< index into Kernel::global_outputs, or -1
  bool global = false; ///< names a __global argument
};

struct Stmt;
using StmtList = std::vector<Stmt>;

/// Structured-CFG statement. Loops carry their body; everything else is
/// a leaf. The emitter only produces reducible, counted loops, so the
/// loop tree *is* the CFG (one back-edge per loop, no gotos).
struct Stmt {
  enum class Kind {
    kLoop,       ///< for (int var = lo; var < hi; ++var) body   (or <=)
    kStore,      ///< store->array[store->index] = ...loads...
    kPipeWrite,  ///< write_pipe_block(pipe, &carrier)
    kPipeRead,   ///< read_pipe_block(pipe, &carrier)
    kBarrier,    ///< barrier(...)
    kOpaque,     ///< outside the modeled subset (reported as SCL409)
  };

  Kind kind = Kind::kOpaque;
  int line = 0;

  // kLoop
  std::string var;
  int var_slot = -1;
  Expr lo;
  Expr hi;
  bool inclusive = false;  ///< condition was `var <= hi` (the `it` loop)
  StmtList body;
  // Facts about the loop's subtree, computed once at lowering.
  int loop_id = -1;             ///< ordinal among the kernel's loops
  bool has_pipe_op = false;     ///< the body reads or writes a pipe
  bool bounds_use_var = false;  ///< a nested loop bound reads `var`
  std::vector<int> pipes;       ///< declared pipes the body touches

  // kStore
  std::optional<ArrayRef> store;
  std::vector<ArrayRef> loads;  ///< array reads on the right-hand side
                                ///< (also set for kPipeWrite carriers)

  // kPipeWrite / kPipeRead
  std::string pipe;
  int pipe_index = -1;  ///< index into Module::pipes, or -1 if undeclared

  // kOpaque
  std::string text;  ///< short description for the SCL409 note
};

/// A local (`__local float name[size]`) buffer declaration.
struct Buffer {
  std::string name;
  Expr size;  ///< compile-time constant after macro expansion
  int line = 0;
};

/// One lowered `__kernel` function.
struct Kernel {
  std::string name;
  std::vector<std::string> int_params;      ///< r0..r2, pass_h
  std::vector<std::string> global_inputs;   ///< `__global const float*` args
  std::vector<std::string> global_outputs;  ///< `__global float*` args
  std::vector<Buffer> locals;
  StmtList body;
  int loop_count = 0;  ///< loops in the body (Stmt::loop_id range)
  int line = 0;
};

/// A `pipe float` declaration.
struct PipeChannel {
  std::string name;
  std::int64_t depth = 0;
  int line = 0;
};

/// The lowered compilation unit.
struct Module {
  std::vector<PipeChannel> pipes;
  std::vector<Kernel> kernels;
  /// Every variable any expression of the module reads.
  SlotTable slots;
  /// Constructs the lowerer could not model (rendered into SCL409).
  std::vector<std::string> unmodeled;
};

}  // namespace scl::analysis::ir
