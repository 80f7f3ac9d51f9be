// Interval arithmetic and sample points for the bound verifiers.
//
// Passes 2 (analysis/analyzer) and 4 (analysis/ir/dataflow) share one
// expression language: ir::Expr, compiled once by the parser in
// analysis/ir/lower and evaluated with the interval operators below over
// a slot-indexed ir::Env. Every bound codegen/boundary_gen emits is a
// piecewise-affine, monotone expression over the region origins r0..r2
// and the fused-iteration distance `pass_h - it`, built from literals,
// +, -, * and the OpenCL max()/min() clamps; pass 4 adds the index
// macros' / and % by constants and the (long) widening.
//
// Both passes evaluate at the same host-sweep origins (origin_samples):
// degenerate (point) intervals per sample, and wide intervals where a
// variable stays abstract (pass 4's `it`). The vertex samples are a
// heuristic for piecewise bounds, not a proof; tests compare them with
// the exhaustive sweep (Sampling::kExhaustive) on small grids.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace scl::sim {
struct DesignConfig;
}  // namespace scl::sim
namespace scl::stencil {
class StencilProgram;
}  // namespace scl::stencil

namespace scl::analysis {

/// Inclusive integer interval [lo, hi].
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  static Interval point(std::int64_t v) { return {v, v}; }

  bool is_point() const { return lo == hi; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

// The interval operators saturate at the int64 edges instead of wrapping:
// analysis inputs are untrusted (seeded-defect tests feed deliberately
// absurd magnitudes), and signed wraparound would be UB *and* could flip
// an out-of-bounds interval back into range, masking the very defect the
// analyzer exists to report. Saturation keeps lo <= hi and keeps the
// result a superset of the true range. They are inline: the expression
// evaluator applies them millions of times per synthesis.
namespace detail {

inline std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    return a > 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  }
  return r;
}

inline std::int64_t sat_sub(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_sub_overflow(a, b, &r)) {
    return b < 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  }
  return r;
}

inline std::int64_t sat_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    return (a > 0) == (b > 0) ? std::numeric_limits<std::int64_t>::max()
                              : std::numeric_limits<std::int64_t>::min();
  }
  return r;
}

}  // namespace detail

inline Interval operator+(const Interval& a, const Interval& b) {
  return {detail::sat_add(a.lo, b.lo), detail::sat_add(a.hi, b.hi)};
}

inline Interval operator-(const Interval& a, const Interval& b) {
  return {detail::sat_sub(a.lo, b.hi), detail::sat_sub(a.hi, b.lo)};
}

inline Interval operator*(const Interval& a, const Interval& b) {
  const std::int64_t p0 = detail::sat_mul(a.lo, b.lo);
  const std::int64_t p1 = detail::sat_mul(a.lo, b.hi);
  const std::int64_t p2 = detail::sat_mul(a.hi, b.lo);
  const std::int64_t p3 = detail::sat_mul(a.hi, b.hi);
  return {std::min(std::min(p0, p1), std::min(p2, p3)),
          std::max(std::max(p0, p1), std::max(p2, p3))};
}

inline Interval interval_max(const Interval& a, const Interval& b) {
  return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

inline Interval interval_min(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

/// Which host-reachable points the bound verifiers (passes 2 and 4)
/// evaluate at.
enum class Sampling {
  kVertices,    ///< first, one interior and last origin; extreme depths
  kExhaustive,  ///< every origin and depth (the tests' oracle)
};

/// Region origins along one dimension of the host sweep
/// `for (r = 0; r < grid; r += region)` at which the verifiers evaluate.
///
/// The emitted bounds clamp against the grid (and the Dirichlet border)
/// only within `reach` cells of either end of the sweep; an origin clear
/// of both ends sees every bound unclamped, so the local picture is the
/// same at every such origin and global indices grow monotonically with
/// it. kVertices therefore keeps the first region, the second, the last,
/// every origin where some clamp can be active (the clamp kinks of a
/// deep cone fall there), and the first origin clear of both ends.
/// kExhaustive keeps every origin (the tests' oracle).
std::vector<std::int64_t> origin_samples(std::int64_t grid,
                                         std::int64_t region,
                                         std::int64_t reach,
                                         Sampling sampling);

/// The `reach` of origin_samples along dimension d of a design: its
/// deepest cone (fused depth times the iteration radius), its widest
/// stage halo, and its Dirichlet border.
std::int64_t clamp_reach(const stencil::StencilProgram& program,
                         const sim::DesignConfig& config, int d);

}  // namespace scl::analysis
