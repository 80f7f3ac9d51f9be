// Design-space enumeration (paper §5.1), split out of the optimizer.
//
// CandidateSpace is a pure generator: given the program and the optimizer
// options it produces the candidate axes (parallelism arrangements, tile
// shapes, fusion depths) of each family, and the heterogeneous candidate
// list derived from a chosen baseline. It owns no models and performs no
// evaluation, so enumeration order — which the deterministic DSE contract
// depends on — is testable in isolation.
//
// Enumeration order is part of the contract: candidate indices run
// replication-major (spatial PE copies, ascending), then parallelism,
// then unroll, then tile shape, with fusion depth ascending fastest, so
// each run of consecutive indices that differ only in depth is one chain.
// The optimizer's search walks this exact order. On single-bank (DDR)
// devices the replication axis is the singleton {1}, so their
// enumeration order — and hence every DDR optimum — is bit-identical to
// the pre-replication space.
//
// Cross-family tie-break. With two design families in the space
// (arch/family.hpp), order stability must also hold *across* families:
// when a pipe-tiling and a temporal-shift design predict identical cost
// vectors, the winner must not depend on which family's search ran
// first. The contract is: the family word leads the DesignKey
// (sim/design.cpp), kPipeTiling = 0 before kTemporalShift = 1, so the
// deterministic ordering (core::design_order's final key comparison)
// always prefers the pipe-tiling design on exact ties. temporal_axes()
// follows the same per-family shape as axes(): unroll-major (vector
// width V), then strip width ascending, temporal degree T ascending
// fastest.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/design.hpp"
#include "stencil/program.hpp"

namespace scl::core {

struct OptimizerOptions;

/// One family's candidate space as five axes in the contract enumeration
/// order: replication, parallelism, unroll, tile shape, depth (fusion
/// depth h, or temporal degree T) fastest. Candidate `index` is the
/// mixed-radix number over the axes, so a search can hold an index
/// instead of a DesignConfig and build the config only when it needs it.
/// Consecutive runs of depths.size() indices form one chain, ascending in
/// depth: resource use grows monotonically with the depth (cone buffers,
/// shift registers), so a walk stops a chain at its first over-budget
/// depth. group_size() consecutive indices share one (R, K, U) group.
struct CandidateAxes {
  /// Family and kind; the axes fill in every other field.
  sim::DesignConfig prototype;
  std::vector<int> replications;
  std::vector<std::array<int, 3>> parallelisms;
  std::vector<int> unrolls;
  std::vector<std::array<std::int64_t, 3>> tiles;
  std::vector<std::int64_t> depths;

  std::int64_t size() const;
  /// Candidates per (R, K, U) group: tiles x depths.
  std::int64_t group_size() const;
  sim::DesignConfig config(std::int64_t index) const;
};

class CandidateSpace {
 public:
  CandidateSpace(const scl::stencil::StencilProgram& program,
                 const OptimizerOptions& options);

  /// Parallelism arrangements (K_d per dimension, product <= max_kernels).
  std::vector<std::array<int, 3>> parallelism_candidates() const;

  /// Spatial replication factors R to explore, ascending. Resolves
  /// OptimizerOptions::replication_candidates; empty derives from the
  /// device bank count ({1} for single-bank devices).
  std::vector<int> replication_factors() const;

  /// Candidate tile extents along dimension d (clamped to the grid).
  std::vector<std::int64_t> tile_candidates_for_dim(int d) const;

  /// Per-dimension tile extents to explore: uniform shapes, plus (for 3-D
  /// stencils) variants with the outermost dimension halved or quartered —
  /// the flattened-tile shapes the paper's Table 3 favors (16x32x32).
  std::vector<std::array<std::int64_t, 3>> tile_shape_candidates() const;

  /// Fusion depths h to explore (filtered to <= program iterations).
  std::vector<std::int64_t> fusion_candidates() const;

  /// The pipe-tiling space of `kind`: every (replication, parallelism,
  /// unroll, tile shape) combination over the fusion depths.
  CandidateAxes axes(sim::DesignKind kind) const;

  /// Strip widths for the temporal-shift family: the innermost-dimension
  /// tile candidates plus the full grid extent (the StencilStream
  /// "monotile" point), ascending.
  std::vector<std::int64_t> strip_candidates() const;

  /// Temporal degrees T: the fusion depths restricted to divisors of the
  /// iteration count (a fixed-depth cascade cannot run a partial pass).
  std::vector<std::int64_t> temporal_degree_candidates() const;

  /// The temporal-shift family (arch/family.hpp) on the same axes: one
  /// pipeline (K = 1x1x1), vector width V as the unroll, strip shapes
  /// (full grid extent but the innermost strip width) as the tiles, and
  /// the temporal degrees as the depths.
  CandidateAxes temporal_axes() const;

  /// The heterogeneous search derived from a chosen baseline (§5.4):
  /// parallelism/unroll/tile pinned, fusion depth x balancing shrink
  /// varying. Shrink is applied only along dimensions that can rebalance
  /// (K_d >= 3 with interior tiles to absorb the released cells); grid
  /// points whose shrink collapses to the shrink=0 candidate are skipped.
  std::vector<sim::DesignConfig> heterogeneous_candidates(
      const sim::DesignConfig& baseline) const;

 private:
  const scl::stencil::StencilProgram* program_;
  const OptimizerOptions* options_;
};

}  // namespace scl::core
