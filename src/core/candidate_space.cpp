#include "core/candidate_space.hpp"

#include <algorithm>

#include "core/optimizer.hpp"

namespace scl::core {

using scl::sim::DesignConfig;
using scl::sim::DesignKind;

CandidateSpace::CandidateSpace(const scl::stencil::StencilProgram& program,
                               const OptimizerOptions& options)
    : program_(&program), options_(&options) {}

std::vector<std::array<int, 3>> CandidateSpace::parallelism_candidates()
    const {
  const int dims = program_->dims();
  std::vector<std::array<int, 3>> out;
  const std::vector<int> per_dim{1, 2, 4, 8, 16};
  std::array<int, 3> k{1, 1, 1};
  auto emit = [&] {
    std::int64_t product = 1;
    for (int d = 0; d < dims; ++d) product *= k[static_cast<std::size_t>(d)];
    if (product <= options_->max_kernels && product >= 1) out.push_back(k);
  };
  if (dims == 1) {
    for (int a : per_dim) {
      k = {a, 1, 1};
      emit();
    }
  } else if (dims == 2) {
    for (int a : per_dim) {
      for (int b : per_dim) {
        k = {a, b, 1};
        emit();
      }
    }
  } else {
    for (int a : per_dim) {
      for (int b : per_dim) {
        for (int c : per_dim) {
          k = {a, b, c};
          emit();
        }
      }
    }
  }
  return out;
}

std::vector<int> CandidateSpace::replication_factors() const {
  std::vector<int> out = options_->replication_candidates;
  if (out.empty()) {
    const int banks = std::max(1, options_->device.memory.banks);
    for (int r = 1; r <= banks; r *= 2) out.push_back(r);
    if (out.back() != banks) out.push_back(banks);
  }
  std::vector<int> filtered;
  for (const int r : out) {
    if (r >= 1) filtered.push_back(r);
  }
  if (filtered.empty()) filtered.push_back(1);
  std::sort(filtered.begin(), filtered.end());
  filtered.erase(std::unique(filtered.begin(), filtered.end()),
                 filtered.end());
  return filtered;
}

std::vector<std::int64_t> CandidateSpace::tile_candidates_for_dim(
    int d) const {
  std::vector<std::int64_t> base = options_->tile_candidates;
  if (base.empty()) {
    switch (program_->dims()) {
      case 1:
        base = {1024, 2048, 4096, 8192, 16384};
        break;
      case 2:
        base = {32, 64, 128, 256};
        break;
      default:
        base = {8, 16, 32, 64};
        break;
    }
  }
  const std::int64_t w = program_->grid_box().extent(d);
  std::vector<std::int64_t> out;
  for (const std::int64_t t : base) {
    if (t <= w) out.push_back(t);
  }
  if (out.empty()) out.push_back(w);
  return out;
}

std::vector<std::int64_t> CandidateSpace::fusion_candidates() const {
  std::vector<std::int64_t> base = options_->fusion_candidates;
  if (base.empty()) {
    // Dense at the bottom, then geometric with midpoints — the optima the
    // paper reports (6, 16, 23, 63, 69, ...) are rarely powers of two.
    base = {1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96,
            128, 160, 192, 256, 384, 512};
  }
  std::vector<std::int64_t> out;
  for (const std::int64_t h : base) {
    if (h >= 1 && h <= program_->iterations()) out.push_back(h);
  }
  if (out.empty()) out.push_back(1);
  return out;
}

std::vector<std::array<std::int64_t, 3>> CandidateSpace::tile_shape_candidates()
    const {
  std::vector<std::array<std::int64_t, 3>> out;
  auto clamp_dim = [&](std::int64_t t, int d) {
    return std::max<std::int64_t>(
        1, std::min<std::int64_t>(t, program_->grid_box().extent(d)));
  };
  for (const std::int64_t tile : tile_candidates_for_dim(0)) {
    std::array<std::int64_t, 3> shape{1, 1, 1};
    for (int d = 0; d < program_->dims(); ++d) {
      shape[static_cast<std::size_t>(d)] = clamp_dim(tile, d);
    }
    out.push_back(shape);
    if (program_->dims() == 3) {
      for (const std::int64_t div : {2, 4}) {
        if (tile / div >= 4) {
          auto flat = shape;
          flat[0] = clamp_dim(tile / div, 0);
          out.push_back(flat);
        }
      }
    }
  }
  // Deduplicate (clamping can collapse shapes).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::int64_t CandidateAxes::group_size() const {
  return static_cast<std::int64_t>(tiles.size() * depths.size());
}

std::int64_t CandidateAxes::size() const {
  return static_cast<std::int64_t>(replications.size() *
                                   parallelisms.size() * unrolls.size()) *
         group_size();
}

DesignConfig CandidateAxes::config(std::int64_t index) const {
  auto digit = [&index](std::size_t radix) {
    const auto r = static_cast<std::int64_t>(radix);
    const auto d = static_cast<std::size_t>(index % r);
    index /= r;
    return d;
  };
  DesignConfig config = prototype;
  config.fused_iterations = depths[digit(depths.size())];
  config.tile_size = tiles[digit(tiles.size())];
  config.unroll = unrolls[digit(unrolls.size())];
  config.parallelism = parallelisms[digit(parallelisms.size())];
  config.replication = replications[digit(replications.size())];
  return config;
}

CandidateAxes CandidateSpace::axes(DesignKind kind) const {
  CandidateAxes axes;
  axes.prototype.kind = kind;
  axes.replications = replication_factors();
  axes.parallelisms = parallelism_candidates();
  axes.unrolls = options_->unroll_candidates;
  axes.tiles = tile_shape_candidates();
  axes.depths = fusion_candidates();
  return axes;
}

std::vector<std::int64_t> CandidateSpace::strip_candidates() const {
  const int sd = program_->dims() - 1;
  std::vector<std::int64_t> out = tile_candidates_for_dim(sd);
  out.push_back(program_->grid_box().extent(sd));  // monotile
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::int64_t> CandidateSpace::temporal_degree_candidates() const {
  std::vector<std::int64_t> out;
  for (const std::int64_t h : fusion_candidates()) {
    if (program_->iterations() % h == 0) out.push_back(h);
  }
  if (out.empty()) out.push_back(1);
  return out;
}

CandidateAxes CandidateSpace::temporal_axes() const {
  CandidateAxes axes;
  axes.prototype.family = arch::DesignFamily::kTemporalShift;
  axes.replications = replication_factors();
  axes.parallelisms = {{1, 1, 1}};
  axes.unrolls = options_->unroll_candidates;
  std::array<std::int64_t, 3> shape{1, 1, 1};
  for (int d = 0; d < program_->dims(); ++d) {
    shape[static_cast<std::size_t>(d)] = program_->grid_box().extent(d);
  }
  for (const std::int64_t strip : strip_candidates()) {
    shape[static_cast<std::size_t>(program_->dims() - 1)] = strip;
    axes.tiles.push_back(shape);
  }
  axes.depths = temporal_degree_candidates();
  return axes;
}

std::vector<DesignConfig> CandidateSpace::heterogeneous_candidates(
    const DesignConfig& baseline) const {
  std::vector<DesignConfig> out;
  DesignConfig config;
  config.kind = DesignKind::kHeterogeneous;
  config.replication = baseline.replication;
  config.unroll = baseline.unroll;
  config.parallelism = baseline.parallelism;
  config.tile_size = baseline.tile_size;
  for (const std::int64_t h : fusion_candidates()) {
    config.fused_iterations = h;
    for (const std::int64_t shrink : options_->shrink_candidates) {
      bool any_applied = shrink == 0;
      for (int d = 0; d < program_->dims(); ++d) {
        const auto ds = static_cast<std::size_t>(d);
        const bool can_balance = config.parallelism[ds] >= 3 &&
                                 shrink < config.tile_size[ds];
        config.edge_shrink[ds] = can_balance ? shrink : 0;
        any_applied |= can_balance;
      }
      if (!any_applied) continue;  // identical to the shrink=0 candidate
      out.push_back(config);
    }
  }
  return out;
}

}  // namespace scl::core
