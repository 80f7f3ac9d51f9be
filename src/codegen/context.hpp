// Shared code-generation context.
//
// Code is generated for one *nominal* region: tile origins are expressed
// relative to the runtime region origin (kernel arguments r0/r1/r2), so the
// same binary serves every region of the sweep; grid clipping happens in
// the emitted bounds via max()/min() against the grid extents.
#pragma once

#include <string>
#include <vector>

#include "fpga/device.hpp"
#include "sim/design.hpp"
#include "sim/region.hpp"
#include "stencil/program.hpp"

namespace scl::codegen {

struct GenContext {
  const scl::stencil::StencilProgram* program = nullptr;
  sim::DesignConfig config;
  fpga::DeviceSpec device;
  /// Nominal tiles with region-origin-relative boxes, R replicas of the
  /// K-kernel arrangement back to back (replica r owns kernel indices
  /// [r*K, (r+1)*K)); every replica has identical geometry. For the
  /// baseline design every face is exterior (independent overlapped
  /// cones).
  std::vector<sim::TilePlacement> tiles;

  static GenContext create(const scl::stencil::StencilProgram& program,
                           const sim::DesignConfig& config,
                           const fpga::DeviceSpec& device);

  const sim::TilePlacement& tile(int k) const {
    return tiles.at(static_cast<std::size_t>(k));
  }
  int kernel_count() const { return static_cast<int>(tiles.size()); }

  /// The sibling across `tile`'s face (d, side); kernel index or -1.
  int neighbor_index(const sim::TilePlacement& tile, int d, int side) const;

  // --- naming helpers ---
  /// C identifier of a field's local buffer, e.g. "buf_temp".
  std::string buffer_name(int field) const;
  /// Global-memory argument names, e.g. "temp_in" / "temp_out".
  std::string global_in_name(int field) const;
  std::string global_out_name(int field) const;
  /// Directed pipe between two kernels, e.g. "p_k0_k1".
  std::string pipe_name(int from_kernel, int to_kernel) const;
  /// Runtime region-origin variable for dimension d ("r0").
  std::string region_origin(int d) const;
};

/// The `__kernel` header of kernel function `stencil_k<k>`, through the
/// opening brace: per field a global input (all fields) and output
/// (mutable fields), the region origin, and the pass depth. Both families
/// emit it, and the host program binds its arguments in this order.
std::string render_kernel_signature(const GenContext& ctx, int k);

}  // namespace scl::codegen
