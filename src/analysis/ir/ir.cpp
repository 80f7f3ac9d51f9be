#include "analysis/ir/ir.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::analysis::ir {

namespace {

constexpr std::int64_t kInt32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

bool escapes_int32(const Interval& v) {
  return v.lo < kInt32Min || v.hi > kInt32Max;
}

/// Number of operands each operator pops off the evaluation stack.
int arity(Expr::Kind kind) {
  switch (kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kVar:
    case Expr::Kind::kParam:
      return 0;
    case Expr::Kind::kNeg:
    case Expr::Kind::kCast64:
      return 1;
    default:
      return 2;
  }
}

/// One evaluation-stack entry: an interval plus whether the value is
/// `long` on the device. A kCast64 result is wide, and so is every
/// operation with a wide operand (C promotion), so those values never
/// wrap an `int` and are exempt from the 32-bit escape check. Kept
/// trivially constructible so the inline stack costs nothing to set up.
struct Value {
  std::int64_t lo;
  std::int64_t hi;
  bool wide;

  Interval get() const { return {lo, hi}; }
  void set(const Interval& v) {
    lo = v.lo;
    hi = v.hi;
  }
};

/// Operand stack sized for the emitter's expressions; deeper ones (only
/// hand-written input) spill to the heap.
constexpr std::size_t kInlineStack = 48;

Interval divide(Expr::Kind kind, const Interval& a, const Interval& b) {
  // The emitter's only use is the linear-cell decomposition of the
  // temporal-shift walk, whose divisor is a compile-time strip extent;
  // anything more general is outside the modeled language.
  if (b.lo != b.hi || b.lo <= 0) {
    throw Error("non-constant or non-positive divisor in emitted expression");
  }
  const std::int64_t c = b.lo;
  if (kind == Expr::Kind::kDiv) {
    // C truncating division is monotone in the numerator for a positive
    // divisor.
    return {a.lo / c, a.hi / c};
  }
  if (a.lo >= 0 && a.lo / c == a.hi / c) {
    // Same quotient block: remainder is monotone within it.
    return {a.lo % c, a.hi % c};
  }
  if (a.lo >= 0) return {0, c - 1};
  return {-(c - 1), c - 1};
}

Interval eval_ops(const Expr& expr, const Env& env, bool* int32_overflow,
                  Value* stack) {
  std::size_t top = 0;  // entries in use
  for (const Expr::Op& op : expr.ops) {
    switch (op.kind) {
      case Expr::Kind::kLiteral:
        stack[top++] = {op.value, op.value, false};
        continue;
      case Expr::Kind::kVar: {
        const Interval& v = env[op.slot];
        if (v.lo > v.hi) {
          throw Error(str_cat("unknown variable '", env.slots->name(op.slot),
                              "' in emitted expression"));
        }
        stack[top++] = {v.lo, v.hi, false};
        continue;
      }
      case Expr::Kind::kParam:
        throw Error("malformed IR expression");
      case Expr::Kind::kCast64:
        if (top < 1) throw Error("malformed IR expression");
        stack[top - 1].wide = true;
        continue;
      case Expr::Kind::kNeg: {
        if (top < 1) throw Error("malformed IR expression");
        Value& a = stack[top - 1];
        a.set(Interval::point(0) - a.get());
        if (!a.wide && int32_overflow != nullptr && escapes_int32(a.get())) {
          *int32_overflow = true;
        }
        continue;
      }
      default:
        break;
    }
    if (top < 2) throw Error("malformed IR expression");
    const Value b = stack[--top];
    Value& a = stack[top - 1];
    Interval v;
    switch (op.kind) {
      case Expr::Kind::kAdd:
        v = a.get() + b.get();
        break;
      case Expr::Kind::kSub:
        v = a.get() - b.get();
        break;
      case Expr::Kind::kMul:
        v = a.get() * b.get();
        break;
      case Expr::Kind::kMin:
        v = interval_min(a.get(), b.get());
        break;
      case Expr::Kind::kMax:
        v = interval_max(a.get(), b.get());
        break;
      case Expr::Kind::kDiv:
      case Expr::Kind::kMod:
        v = divide(op.kind, a.get(), b.get());
        break;
      default:
        throw Error("malformed IR expression");
    }
    a.set(v);
    a.wide = a.wide || b.wide;
    if (!a.wide && int32_overflow != nullptr && escapes_int32(v)) {
      *int32_overflow = true;
    }
  }
  if (top != 1) throw Error("malformed IR expression");
  return stack[0].get();
}

}  // namespace

SlotTable::SlotTable() : names_{"r0", "r1", "r2", "pass_h", "it"} {}

int SlotTable::find(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int SlotTable::intern(std::string_view name) {
  const int slot = find(name);
  if (slot >= 0) return slot;
  names_.emplace_back(name);
  return static_cast<int>(names_.size() - 1);
}

const SlotTable& SlotTable::fixed() {
  static const SlotTable table;
  return table;
}

std::string Expr::to_string(const SlotTable& slots) const {
  std::vector<std::string> stack;
  for (const Op& op : ops) {
    std::string b;
    std::string a;
    const int n = arity(op.kind);
    if (static_cast<int>(stack.size()) < n) return "<expr>";
    if (n == 2) {
      b = std::move(stack.back());
      stack.pop_back();
    }
    if (n >= 1) {
      a = std::move(stack.back());
      stack.pop_back();
    }
    switch (op.kind) {
      case Kind::kLiteral:
        stack.push_back(str_cat(op.value));
        break;
      case Kind::kVar:
        stack.push_back(slots.name(op.slot));
        break;
      case Kind::kParam:
        stack.push_back(str_cat("$", op.slot));
        break;
      case Kind::kAdd:
        stack.push_back(str_cat("(", a, " + ", b, ")"));
        break;
      case Kind::kSub:
        stack.push_back(str_cat("(", a, " - ", b, ")"));
        break;
      case Kind::kMul:
        stack.push_back(str_cat("(", a, " * ", b, ")"));
        break;
      case Kind::kNeg:
        stack.push_back(str_cat("-", a));
        break;
      case Kind::kMin:
        stack.push_back(str_cat("min(", a, ", ", b, ")"));
        break;
      case Kind::kMax:
        stack.push_back(str_cat("max(", a, ", ", b, ")"));
        break;
      case Kind::kCast64:
        stack.push_back(str_cat("(long)", a));
        break;
      case Kind::kDiv:
        stack.push_back(str_cat("(", a, " / ", b, ")"));
        break;
      case Kind::kMod:
        stack.push_back(str_cat("(", a, " % ", b, ")"));
        break;
    }
  }
  return stack.size() == 1 ? stack.back() : "<expr>";
}

Interval eval_expr(const Expr& expr, const Env& env, bool* int32_overflow) {
  // The operand stack never holds more entries than there are ops.
  if (expr.ops.size() <= kInlineStack) {
    std::array<Value, kInlineStack> stack;
    return eval_ops(expr, env, int32_overflow, stack.data());
  }
  std::vector<Value> stack(expr.ops.size());
  return eval_ops(expr, env, int32_overflow, stack.data());
}

}  // namespace scl::analysis::ir
