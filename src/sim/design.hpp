// Accelerator design points.
//
// A DesignConfig fixes everything the code generator, the analytical model
// and the simulator need to know about one synthesized accelerator:
//
//   * kind       — Baseline reproduces Nacci et al. [DAC'13]: independent
//                  per-tile cones with overlapped (redundant) halos.
//                  Heterogeneous is the paper's proposal: pipe-shared
//                  boundaries plus workload-balanced tile sizes.
//   * fused_iterations (h) — cone depth: iterations executed on-chip
//                  between global-memory synchronizations.
//   * parallelism (K_d) — tiles per region along each dimension; the
//                  product is the paper's K (kernels running in parallel).
//   * tile_size (w_d) — nominal tile extent per dimension.
//   * edge_shrink — workload balancing: cells removed from each
//                  region-edge tile per dimension and redistributed to the
//                  interior tiles (0 for unbalanced designs). Edge tiles
//                  still compute the shrinking cone toward region-exterior
//                  faces, so shrinking them equalizes per-pass work.
//   * unroll (N_PE) — processing elements per kernel.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/family.hpp"
#include "stencil/program.hpp"

namespace scl::sim {

enum class DesignKind { kBaseline, kHeterogeneous };

const char* to_string(DesignKind kind);

/// Canonical identity of a DesignConfig: every field that influences the
/// analytical model, the resource estimate, the simulator and codegen,
/// packed into one lexicographically comparable tuple. Two configs with
/// equal keys evaluate identically, which is what makes the key usable
/// as the final tie-breaker of the deterministic design ordering.
struct DesignKey {
  std::array<std::int64_t, 14> v{};

  friend bool operator==(const DesignKey&, const DesignKey&) = default;
  friend auto operator<=>(const DesignKey&, const DesignKey&) = default;
};

struct DesignConfig {
  /// Architecture family (arch/family.hpp). kPipeTiling interprets the
  /// fields exactly as documented above. kTemporalShift reuses them with
  /// the temporal family's meaning: kind stays kBaseline, parallelism is
  /// {1,1,1} (one deep pipeline), tile_size[dims-1] is the strip width w
  /// (full grid extent elsewhere), fused_iterations is the temporal
  /// degree T (must divide the iteration count: a fixed-depth cascade
  /// cannot execute a partial pass), and unroll is the vector width V.
  arch::DesignFamily family = arch::DesignFamily::kPipeTiling;
  DesignKind kind = DesignKind::kBaseline;
  std::int64_t fused_iterations = 1;
  std::array<int, 3> parallelism{1, 1, 1};
  std::array<std::int64_t, 3> tile_size{1, 1, 1};
  std::array<std::int64_t, 3> edge_shrink{0, 0, 0};
  int unroll = 1;

  /// Spatial replication factor R: independent PE groups, each a full copy
  /// of the design (K kernels for pipe-tiling, one cascade for
  /// temporal-shift), bound to disjoint global-memory bank groups. A
  /// pass's regions are strip-partitioned across the replicas; replicas
  /// never communicate (regions within a pass are independent). R = 1 is
  /// today's single-copy design on every DDR device.
  int replication = 1;

  /// Total kernels per replica and per region (the paper's K).
  std::int64_t total_kernels() const {
    return static_cast<std::int64_t>(parallelism[0]) * parallelism[1] *
           parallelism[2];
  }

  /// Kernels instantiated on the device: R replicas of K kernels.
  std::int64_t replicated_kernels() const {
    return total_kernels() * replication;
  }

  /// The balanced tile extents along dimension d, low to high. Edge tiles
  /// lose `edge_shrink[d]` cells each; interior tiles gain them as evenly
  /// as possible (lower-indexed interior tiles take the remainder).
  std::vector<std::int64_t> tile_extents(int d) const;

  /// Region extent along d: sum of the balanced tile extents, which is
  /// K_d x w_d whatever the edge shrink (closed form, no allocation).
  std::int64_t region_extent(int d) const;

  /// The paper's balancing factor f_d^k = extent_k / w_d.
  double balance_factor(int d, int k) const;

  /// Throws scl::Error if the configuration is malformed for `program`
  /// (non-positive sizes, balancing on kind=Baseline or on K_d<=2, shrink
  /// that empties a tile, h exceeding the program iteration count, ...).
  void validate(const scl::stencil::StencilProgram& program) const;

  /// Short human-readable description, e.g. "128x128 tiles, 4x4 CUs, h=32".
  std::string summary(int dims) const;

  /// Canonical identity (see DesignKey).
  DesignKey key() const;

  friend bool operator==(const DesignConfig&, const DesignConfig&) = default;
};

}  // namespace scl::sim
