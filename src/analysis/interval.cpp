#include "analysis/interval.hpp"

#include <algorithm>

#include "sim/design.hpp"
#include "stencil/program.hpp"

namespace scl::analysis {

std::vector<std::int64_t> origin_samples(std::int64_t grid,
                                         std::int64_t region,
                                         std::int64_t reach,
                                         Sampling sampling) {
  region = std::max<std::int64_t>(region, 1);
  std::vector<std::int64_t> out{0};
  if (sampling == Sampling::kExhaustive) {
    for (std::int64_t r = region; r < grid; r += region) out.push_back(r);
    return out;
  }
  if (region < grid) {
    out.push_back(region);
    out.push_back(((grid - 1) / region) * region);
  }
  bool clear_seen = false;
  for (std::int64_t r = 0; r < grid; r += region) {
    const bool clamped = r < reach || r + region + reach > grid;
    if (clamped || !clear_seen) out.push_back(r);
    if (!clamped) {
      clear_seen = true;
      // Skip the clear stretch: resume where the high-end clamps start.
      const std::int64_t high = grid - region - reach;
      if (high > r) r = std::max(r, (high / region) * region);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::int64_t clamp_reach(const stencil::StencilProgram& program,
                         const sim::DesignConfig& config, int d) {
  const auto ds = static_cast<std::size_t>(d);
  const std::int64_t h = std::max<std::int64_t>(config.fused_iterations, 1);
  std::int64_t reach = 0;
  for (std::size_t side = 0; side < 2; ++side) {
    reach = std::max({reach, h * program.iter_radii()[ds][side],
                      program.max_stage_radii()[ds][side]});
  }
  std::int64_t border = 0;
  const stencil::Box& grid = program.grid_box();
  for (int f = 0; f < program.field_count(); ++f) {
    if (program.is_constant_field(f)) continue;  // never written
    const stencil::Box updated = program.updated_box(f);
    border = std::max({border, updated.lo[ds] - grid.lo[ds],
                       grid.hi[ds] - updated.hi[ds]});
  }
  return reach + border;
}

}  // namespace scl::analysis
