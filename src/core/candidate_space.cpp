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

std::vector<CandidateChain> CandidateSpace::chains(DesignKind kind) const {
  const auto replications = replication_factors();
  const auto parallelisms = parallelism_candidates();
  const auto tiles = tile_shape_candidates();
  const auto fusions = fusion_candidates();
  std::vector<CandidateChain> out;
  out.reserve(replications.size() * parallelisms.size() *
              options_->unroll_candidates.size() * tiles.size());
  for (const int replication : replications) {
    for (const auto& par : parallelisms) {
      for (const int unroll : options_->unroll_candidates) {
        for (const auto& tile : tiles) {
          DesignConfig config;
          config.kind = kind;
          config.replication = replication;
          config.unroll = unroll;
          config.tile_size = tile;
          for (int d = 0; d < program_->dims(); ++d) {
            config.parallelism[static_cast<std::size_t>(d)] =
                par[static_cast<std::size_t>(d)];
          }
          CandidateChain chain;
          chain.configs.reserve(fusions.size());
          for (const std::int64_t h : fusions) {
            config.fused_iterations = h;
            chain.configs.push_back(config);
          }
          out.push_back(std::move(chain));
        }
      }
    }
  }
  return out;
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

std::vector<CandidateChain> CandidateSpace::temporal_chains() const {
  const auto replications = replication_factors();
  const auto strips = strip_candidates();
  const auto degrees = temporal_degree_candidates();
  std::vector<CandidateChain> out;
  out.reserve(replications.size() * options_->unroll_candidates.size() *
              strips.size());
  for (const int replication : replications) {
    for (const int unroll : options_->unroll_candidates) {
      for (const std::int64_t strip : strips) {
        DesignConfig config;
        config.family = arch::DesignFamily::kTemporalShift;
        config.kind = DesignKind::kBaseline;
        config.replication = replication;
        config.unroll = unroll;
        for (int d = 0; d < program_->dims(); ++d) {
          config.tile_size[static_cast<std::size_t>(d)] =
              program_->grid_box().extent(d);
        }
        config.tile_size[static_cast<std::size_t>(program_->dims() - 1)] =
            strip;
        CandidateChain chain;
        chain.configs.reserve(degrees.size());
        for (const std::int64_t t : degrees) {
          config.fused_iterations = t;
          chain.configs.push_back(config);
        }
        out.push_back(std::move(chain));
      }
    }
  }
  return out;
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

std::int64_t CandidateSpace::size() const {
  const auto count = [](const auto& axis) {
    return static_cast<std::int64_t>(axis.size());
  };
  const std::int64_t shared_axes =
      count(replication_factors()) * count(options_->unroll_candidates);
  const std::int64_t fusions = count(fusion_candidates());
  return shared_axes * count(parallelism_candidates()) *
             count(tile_shape_candidates()) * fusions +
         shared_axes * count(strip_candidates()) *
             count(temporal_degree_candidates()) +
         fusions * count(options_->shrink_candidates);
}

std::vector<CandidateSpace::ChainBlock> CandidateSpace::blocks(
    const std::vector<CandidateChain>& chains, std::int64_t grain_configs) {
  std::vector<ChainBlock> out;
  if (chains.empty()) return out;
  const std::int64_t grain = grain_configs < 1 ? 1 : grain_configs;
  std::size_t begin = 0;
  std::int64_t accumulated = 0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    accumulated += static_cast<std::int64_t>(chains[i].configs.size());
    if (accumulated >= grain) {
      out.emplace_back(begin, i + 1);
      begin = i + 1;
      accumulated = 0;
    }
  }
  if (begin < chains.size()) out.emplace_back(begin, chains.size());
  return out;
}

}  // namespace scl::core
