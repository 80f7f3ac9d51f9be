// Admissible lower bounds on a design's latency and resources,
// derived from the same analytical model as PerfModel (paper Eqs. 1–11)
// by dropping every term that can only add cost.
//
// The bound must never exceed the exact model's value for the same
// config — that is what lets the Optimizer's branch-and-bound skip a
// candidate whose bound already exceeds the incumbent without ever
// changing the reported optimum. Derivation for the pipe-tiling family
// (see DESIGN.md §5 for the equation-by-equation mapping):
//
//   * N_region (Eq. 2) is exact: ceil(H/h) × Π_d ceil(N_d / (K_d·w_d)).
//     tile_extents() redistributes the edge shrink but conserves the
//     region extent, so no bounding is needed.
//   * Eq. 1 takes max_k of L_mem + L_comp over kernels, so pricing any one
//     kernel the exact model evaluates is a bound. The bound prices one
//     corner kernel (corner_cone): per dimension the end tile on the side
//     with the larger cone radius. Its extent is the smallest balanced
//     extent e_d (edge tiles lose the shrink), and its cone grows by c_d
//     per remaining fused iteration: c_d = r_lo + r_hi when both faces are
//     region exterior (baseline designs, or K_d = 1), else
//     c_d = max(r_lo, r_hi), the one exterior face of that corner. The
//     kPaperExact mode prices a single kernel with extent ≥ e_d and the
//     full r_lo + r_hi in every dimension, so the bound covers it too.
//   * L_mem (Eqs. 4–6): the corner reads its cone base, Π_d (e_d + c_d·h)
//     cells, for every field and writes its Π_d e_d tile cells for every
//     mutable field; shared-face halo margins only add. The bandwidth
//     share min(port ceiling, bank-group share / K) is exact.
//   * L_comp (Eqs. 7–10): fused iteration i walks Π_d (e_d + c_d·(h−i))
//     cells per stage at the stage's II, and exposed pipe waits (Eq. 11)
//     are ≥ 0, so L_comp ≥ Σ_{j=0}^{h−1} Π_d (e_d + c_d·j) × ΣII / N_PE.
//     cone_cells() expands the product into a polynomial of degree
//     ≤ dims ≤ 3 in j and sums it with the power sums S_0..S_3: O(dims²),
//     no loop over h.
//   * Rounding: the closed form adds the same terms as the exact model's
//     per-iteration loop in another order, and for baseline designs (every
//     tile prices the same cone) the two are equal in exact arithmetic.
//     The latency bound is therefore scaled by (1 − 1e-9), which covers
//     the exact model's accumulated rounding (kRoundingSlack in the .cpp).
//   * BRAM: each kernel buffers at least its padded tile for every field
//     (plus the shadow copies of double-buffered stages); pipe FIFO
//     blocks only add. bram_blocks_for() is monotone in elements, so
//     K × bram_blocks_for(padded_min_cells × (F + shadows)) bounds the
//     design total.
//
// Resource floor. LowerBound::floor bounds all four resources the budget
// caps, so the search can drop a design that cannot fit without pricing
// it. estimate_kernel() is linear: fixed + lanes × per_lane + blocks ×
// per_bram18 + pipe endpoints (fpga::ResourceModel::kernel_logic). A
// design instantiates n kernels of `lanes` lanes each:
//
//   * pipe-tiling: n = R·K, lanes = U; temporal: n = R, lanes = T·V.
//   * DSP is exact: n × lanes × DSP per lane. Buffers and pipes use none,
//     so it does not depend on the tile, and for pipe-tiling not on h.
//   * LUT/FF ≥ n × (fixed + lanes × per_lane) + BRAM floor × per-block
//     cost: the per-block cost is positive and the exact BRAM total is
//     at least the floor; pipe endpoints only add.
//
// Every component of the floor is non-decreasing in the chain depth (h,
// or T): the cone base grows with h; the temporal step delay grows with
// the padded strip (a read whose linear offset falls as the strip widens
// is already negative and never sets the span), and with it the register
// length, as do the T·V lanes. So a walk over a chain's ascending depths
// may stop at the first floor that breaks the cap. logic_floor() drops
// the BRAM term: it holds for every tile and depth of an (R, K, U) group
// (at the group's smallest depth), which lets the walk skip whole groups
// on DSP, LUT or FF alone.
//
// Staging. bound(config) is chain_terms(config) followed by
// bound(terms, depth): the first hoists what every depth of one chain
// shares (cone geometry, region count, bandwidth share), the second adds
// the depth terms. A walk that reuses one ChainTerms across a chain gets
// bit-identical bounds.
#pragma once

#include <array>
#include <cstdint>

#include "fpga/device.hpp"
#include "fpga/resource_model.hpp"
#include "sim/design.hpp"
#include "stencil/program.hpp"

namespace scl::model {

/// The pipe-tiling kernel the latency bound prices (see the derivation
/// above): per active dimension its tile extent e_d and the cells c_d its
/// cone adds per remaining fused iteration.
struct ConeGeometry {
  std::array<double, 3> extent{1.0, 1.0, 1.0};
  std::array<double, 3> growth{0.0, 0.0, 0.0};
};

/// The kernel the latency bound prices for a pipe-tiling `config`: per
/// dimension the corner tile on the wider-radius end.
ConeGeometry corner_cone(const scl::stencil::StencilProgram& program,
                         const sim::DesignConfig& config);

/// Σ_{j=0}^{h−1} Π_{d<dims} (extent_d + growth_d·j): the cells the kernel
/// walks over h fused iterations, in closed form (power sums, O(dims²)).
double cone_cells(const ConeGeometry& cone, int dims, std::int64_t h);

struct LowerBound {
  /// Admissible latency bound in cycles: bound(c).cycles <= exact
  /// PerfModel::predict(c).total_cycles for every valid config c.
  double cycles = 0.0;
  /// Admissible bound on the design's total resources: exact DSP, and
  /// FF/LUT/BRAM18 never above the estimate (see the derivation above).
  fpga::ResourceVector floor;
};

/// The depth-independent terms of one chain's bounds (see "Staging").
struct ChainTerms {
  /// The chain's config; its depth (fused_iterations) is ignored.
  sim::DesignConfig config;
  /// ceil(spatial regions / R): regions per replica and pass.
  std::int64_t replica_regions = 1;
  /// Pipe-tiling: the priced corner kernel, its tile cells, and the
  /// per-kernel bandwidth share.
  ConeGeometry cone;
  double write_cells = 1.0;
  double bw_share = 1.0;
  /// Temporal: cycles per region, max(L_comp, L_mem) (no h term).
  double region_cycles = 0.0;
};

/// Like PerfModel, all state is immutable after construction, so bound()
/// is a pure function of the config.
class LowerBoundModel {
 public:
  LowerBoundModel(const scl::stencil::StencilProgram& program,
                  fpga::DeviceSpec device);

  /// Bounds for one (valid) candidate config. Costs O(dims²) — no vector
  /// allocation, no per-iteration loop — which is what makes bounding
  /// the whole candidate space cheaper than evaluating a fraction of it.
  LowerBound bound(const sim::DesignConfig& config) const {
    return bound(chain_terms(config), config.fused_iterations);
  }

  /// The terms bound() shares across the depths of `config`'s chain.
  ChainTerms chain_terms(const sim::DesignConfig& config) const;

  /// bound() of the chain's config at depth `depth` (h, or T).
  LowerBound bound(const ChainTerms& terms, std::int64_t depth) const;

  /// DSP/LUT/FF of the datapath and control alone (bram18 = 0): a floor
  /// of every tile and every depth >= config.fused_iterations of the
  /// config's (R, K, U) group.
  fpga::ResourceVector logic_floor(const sim::DesignConfig& config) const;

  // Temporal-shift bounds (same admissibility contract): the walk covers
  // at least the strip's owned cells at II_max/V; memory moves at least
  // the owned cells once per direction; every mutable field keeps states
  // 1..T-1 alive at length >= step_delay + 1 (the boundary passthrough
  // reads each state one full step after it is produced) plus the state-0
  // head — all three are dropped-term relaxations of the exact temporal
  // model/estimator, so the branch-and-bound optimum stays bit-identical
  // with pruning on or off.

 private:
  double ii_sum(int unroll) const;
  double ii_max(int unroll) const;
  /// n kernels of `lanes` lanes holding at least `bram18` blocks.
  fpga::ResourceVector floor(std::int64_t kernels, std::int64_t lanes,
                             std::int64_t bram18) const;
  LowerBound temporal_bound(const ChainTerms& terms, std::int64_t t_deg) const;

  const scl::stencil::StencilProgram* program_;
  fpga::DeviceSpec device_;
  fpga::ResourceModel resource_model_;
  fpga::ResourceModel::KernelLogic logic_;
  /// Σ_s II_s precomputed per unroll factor (II is bank-scaled, hence
  /// unroll-invariant today, but the table keeps the bound honest if the
  /// HLS estimator ever changes that).
  std::array<double, 33> ii_sum_by_unroll_{};
  std::int64_t shadow_stages_ = 0;
};

}  // namespace scl::model
