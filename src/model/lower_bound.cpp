#include "model/lower_bound.hpp"

#include <algorithm>

#include "fpga/hls.hpp"
#include "support/math.hpp"

namespace scl::model {

using scl::sim::DesignConfig;
using scl::sim::DesignKind;
using scl::stencil::StencilProgram;

namespace {

/// Relative slack on the latency bound. The closed-form cone sum and the
/// exact model's per-iteration loop add the same terms in a different
/// order, so where the bound is tight (every baseline design) the two can
/// differ by rounding alone. The exact model's recursive sum of its
/// n = h x stages positive terms is within (n - 1) * u of the true value
/// (u = 2^-53); 1e-9 covers n up to ~9e6 terms (at the deepest fusion,
/// h = 512, over 17,000 stages), and it is five orders below the 1.0005x
/// near-tie band, so no pruning decision can hinge on it.
constexpr double kRoundingSlack = 1e-9;

}  // namespace

ConeGeometry corner_cone(const StencilProgram& program,
                         const DesignConfig& config) {
  ConeGeometry cone;
  const auto& radii = program.iter_radii();
  const bool baseline = config.kind == DesignKind::kBaseline;
  for (int d = 0; d < program.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    // Corner tiles hold the smallest balanced extent: they lose the edge
    // shrink, interior tiles only gain (see DesignConfig::tile_extents).
    std::int64_t e_min = config.tile_size[ds];
    if (config.parallelism[ds] >= 3 && config.edge_shrink[ds] > 0) {
      e_min -= config.edge_shrink[ds];
    }
    cone.extent[ds] = static_cast<double>(e_min);
    // Both faces are region exterior on every baseline tile and on a
    // lone tile (K_d = 1); otherwise the corner on the wider-radius end
    // has one exterior face, and its other face trades halos by pipe.
    const auto lo = static_cast<double>(radii[ds][0]);
    const auto hi = static_cast<double>(radii[ds][1]);
    cone.growth[ds] =
        baseline || config.parallelism[ds] == 1 ? lo + hi : std::max(lo, hi);
  }
  return cone;
}

double cone_cells(const ConeGeometry& cone, int dims, std::int64_t h) {
  // Π_d (e_d + c_d * j) as a polynomial in j of degree <= dims <= 3.
  std::array<double, 4> coeff{1.0, 0.0, 0.0, 0.0};
  for (int d = 0; d < dims; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int p = d + 1; p >= 1; --p) {
      const auto ps = static_cast<std::size_t>(p);
      coeff[ps] = coeff[ps] * cone.extent[ds] + coeff[ps - 1] * cone.growth[ds];
    }
    coeff[0] *= cone.extent[ds];
  }
  // Power sums S_p = Σ_{j=0}^{n} j^p with n = h - 1 (Faulhaber). Every
  // factor is an integer and each division is exact, so the sums are
  // exact while they stay below 2^53.
  const double n = static_cast<double>(h - 1);
  const double s1 = n * (n + 1.0) / 2.0;
  const std::array<double, 4> sums{static_cast<double>(h), s1,
                                   n * (n + 1.0) * (2.0 * n + 1.0) / 6.0,
                                   s1 * s1};
  double cells = 0.0;
  for (int p = 0; p <= dims; ++p) {
    const auto ps = static_cast<std::size_t>(p);
    cells += coeff[ps] * sums[ps];
  }
  return cells;
}

LowerBoundModel::LowerBoundModel(const StencilProgram& program,
                                 fpga::DeviceSpec device)
    : program_(&program),
      device_(device),
      resource_model_(std::move(device)),
      logic_(resource_model_.kernel_logic(program)) {
  for (int u = 1; u < static_cast<int>(ii_sum_by_unroll_.size()); ++u) {
    double sum = 0.0;
    for (int s = 0; s < program.stage_count(); ++s) {
      sum += static_cast<double>(fpga::estimate_stage(program.stage(s), u).ii);
    }
    ii_sum_by_unroll_[static_cast<std::size_t>(u)] = sum;
  }
  for (int s = 0; s < program.stage_count(); ++s) {
    if (program.stage_needs_double_buffer(s)) ++shadow_stages_;
  }
}

double LowerBoundModel::ii_max(int unroll) const {
  double m = 1.0;
  for (int s = 0; s < program_->stage_count(); ++s) {
    m = std::max(m, static_cast<double>(
                        fpga::estimate_stage(program_->stage(s), unroll).ii));
  }
  return m;
}

double LowerBoundModel::ii_sum(int unroll) const {
  if (unroll >= 1 && unroll < static_cast<int>(ii_sum_by_unroll_.size())) {
    return ii_sum_by_unroll_[static_cast<std::size_t>(unroll)];
  }
  double sum = 0.0;
  for (int s = 0; s < program_->stage_count(); ++s) {
    sum += static_cast<double>(
        fpga::estimate_stage(program_->stage(s), unroll).ii);
  }
  return sum;
}

fpga::ResourceVector LowerBoundModel::floor(std::int64_t kernels,
                                            std::int64_t lanes,
                                            std::int64_t bram18) const {
  return (logic_.fixed + logic_.per_lane * lanes) * kernels +
         resource_model_.per_bram18() * bram18;
}

fpga::ResourceVector LowerBoundModel::logic_floor(
    const DesignConfig& config) const {
  if (config.family == scl::arch::DesignFamily::kTemporalShift) {
    return floor(config.replication,
                 config.fused_iterations * config.unroll, 0);
  }
  return floor(config.replicated_kernels(), config.unroll, 0);
}

ChainTerms LowerBoundModel::chain_terms(const DesignConfig& config) const {
  const StencilProgram& prog = *program_;
  ChainTerms terms;
  terms.config = config;
  // Eq. 2 exactly: tile_extents() conserves the region extent K_d * w_d
  // no matter how the edge shrink redistributes, so this term needs no
  // bounding at all. The replica split mirrors PerfModel::predict exactly
  // (ceil over the spatial regions), so it stays exact too; the same
  // holds for the temporal family's passes x strips.
  std::int64_t spatial_regions = 1;
  for (int d = 0; d < prog.dims(); ++d) {
    spatial_regions *=
        ceil_div(prog.grid_box().extent(d), config.region_extent(d));
  }
  terms.replica_regions =
      ceil_div(spatial_regions, static_cast<std::int64_t>(config.replication));

  if (config.family == scl::arch::DesignFamily::kTemporalShift) {
    // Owned strip cells only: the exact model walks the padded strip
    // (>= owned) and adds the store drain (>= 0); memory moves at least
    // the owned cells once in each direction (the feed covers the halo
    // too).
    double owned = 1.0;
    for (int d = 0; d < prog.dims(); ++d) {
      owned *= static_cast<double>(config.tile_size[static_cast<std::size_t>(d)]);
    }
    const double l_comp_lb = ii_max(config.unroll) * owned /
                             static_cast<double>(config.unroll);
    const double bw_share =
        std::min(device_.mem_port_bytes_per_cycle,
                 device_.replica_bytes_per_cycle(config.replication));
    const double l_mem_lb =
        owned *
        static_cast<double>(prog.field_count() + prog.mutable_field_count()) *
        StencilProgram::element_bytes() / bw_share;
    terms.region_cycles = std::max(l_comp_lb, l_mem_lb);
    return terms;
  }

  // The corner kernel's cone and tile (Eqs. 4-10). The bandwidth share is
  // the exact value the perf model charges, so the bank split costs no
  // slack.
  terms.cone = corner_cone(prog, config);
  for (int d = 0; d < prog.dims(); ++d) {
    terms.write_cells *= terms.cone.extent[static_cast<std::size_t>(d)];
  }
  terms.bw_share =
      std::min(device_.mem_port_bytes_per_cycle,
               device_.replica_bytes_per_cycle(config.replication) /
                   static_cast<double>(config.total_kernels()));
  return terms;
}

LowerBound LowerBoundModel::bound(const ChainTerms& terms,
                                  std::int64_t depth) const {
  const DesignConfig& config = terms.config;
  if (config.family == scl::arch::DesignFamily::kTemporalShift) {
    return temporal_bound(terms, depth);
  }
  const StencilProgram& prog = *program_;
  const double h = static_cast<double>(depth);
  const std::int64_t n_region =
      ceil_div(prog.iterations(), depth) * terms.replica_regions;

  // Eqs. 4-6: the corner kernel reads its cone base, e_d + c_d * h per
  // dimension (shared-face halo margins dropped), for every field and
  // writes its tile for every mutable field.
  double read_cells = 1.0;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    read_cells *= terms.cone.extent[ds] + terms.cone.growth[ds] * h;
  }
  const double bytes = StencilProgram::element_bytes();
  const double l_mem_lb =
      read_cells * static_cast<double>(prog.field_count()) * bytes /
          terms.bw_share +
      terms.write_cells * static_cast<double>(prog.mutable_field_count()) *
          bytes / terms.bw_share;

  // Eqs. 7-10: fused iteration i walks the corner kernel's cone,
  // Π_d (e_d + c_d * j) cells with j = h - i remaining iterations, per
  // stage at the stage's II; exposed pipe waits (Eq. 11) are >= 0.
  const double l_comp_lb = cone_cells(terms.cone, prog.dims(), depth) *
                           ii_sum(config.unroll) /
                           static_cast<double>(config.unroll);

  LowerBound lb;
  lb.cycles = static_cast<double>(n_region) * (l_mem_lb + l_comp_lb) *
              (1.0 - kRoundingSlack);

  // BRAM: K kernels, each holding at least the padded tile for every
  // field plus shadow copies; bram_blocks_for is monotone, pipe FIFO
  // blocks only add. Baseline kernels buffer the whole cone base (every
  // face is exterior), heterogeneous kernels at least the tile itself
  // (shared-face halos are >= 0).
  const double padded_min =
      config.kind == DesignKind::kBaseline ? read_cells : terms.write_cells;
  const auto elements_lb = static_cast<std::int64_t>(
      padded_min * static_cast<double>(prog.field_count() + shadow_stages_));
  lb.floor = floor(config.replicated_kernels(), config.unroll,
                   config.replicated_kernels() *
                       resource_model_.bram_blocks_for(
                           std::max<std::int64_t>(elements_lb, 1)));
  return lb;
}

LowerBound LowerBoundModel::temporal_bound(const ChainTerms& terms,
                                           std::int64_t t_deg) const {
  const StencilProgram& prog = *program_;
  const DesignConfig& config = terms.config;
  const auto& radii = prog.iter_radii();
  const int strip_dim = prog.dims() - 1;

  LowerBound lb;
  lb.cycles = static_cast<double>(ceil_div(prog.iterations(), t_deg) *
                                  terms.replica_regions) *
              terms.region_cycles;

  // BRAM: every mutable field keeps states 1..T-1 in registers of length
  // >= step_delay + 1 (the boundary passthrough taps each state one full
  // step behind its head) plus at least the state-0 head element; the
  // pooled rounding bram_blocks_for(sum) never exceeds the layout's
  // per-register total. step_delay is recomputed allocation-free here.
  std::array<std::int64_t, 3> ext{1, 1, 1};
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    ext[ds] = config.tile_size[ds];
    if (d == strip_dim) ext[ds] += t_deg * (radii[ds][0] + radii[ds][1]);
  }
  std::int64_t step_delay = 0;
  for (int s = 0; s < prog.stage_count(); ++s) {
    std::int64_t span = 0;
    for (const auto& read : prog.stage(s).reads) {
      std::int64_t lin = 0;
      for (int d = 0; d < prog.dims(); ++d) {
        std::int64_t stride = 1;
        for (int d2 = d + 1; d2 < prog.dims(); ++d2) {
          stride *= ext[static_cast<std::size_t>(d2)];
        }
        lin += read.offset[static_cast<std::size_t>(d)] * stride;
      }
      span = std::max(span, lin);
    }
    step_delay += span;
  }
  const std::int64_t elements_lb =
      prog.mutable_field_count() * ((t_deg - 1) * (step_delay + 1) + 1);
  lb.floor = floor(config.replication, t_deg * config.unroll,
                   config.replication *
                       resource_model_.bram_blocks_for(
                           std::max<std::int64_t>(elements_lb, 1)));
  return lb;
}

}  // namespace scl::model
