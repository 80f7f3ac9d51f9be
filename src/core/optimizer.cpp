#include "core/optimizer.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/observability/observability.hpp"
#include "support/strings.hpp"

namespace scl::core {

using scl::sim::DesignConfig;
using scl::sim::DesignKind;
using scl::stencil::StencilProgram;

bool design_order(const DesignPoint& a, const DesignPoint& b) {
  if (a.prediction.total_cycles != b.prediction.total_cycles) {
    return a.prediction.total_cycles < b.prediction.total_cycles;
  }
  const fpga::ResourceVector& ra = a.resources.total;
  const fpga::ResourceVector& rb = b.resources.total;
  if (ra.bram18 != rb.bram18) return ra.bram18 < rb.bram18;
  if (ra.ff != rb.ff) return ra.ff < rb.ff;
  if (ra.lut != rb.lut) return ra.lut < rb.lut;
  if (ra.dsp != rb.dsp) return ra.dsp < rb.dsp;
  return a.config.key() < b.config.key();
}

namespace {

/// Selection predicate of the running-best scan: should `candidate`
/// replace `incumbent`? Strictly fewer cycles always wins. Within a
/// 1.0005x near-tie band (the baseline's overlapped cones make the
/// latency insensitive to the parallelism arrangement) prefer more
/// compute units, then the squarer arrangement — both benefit the
/// heterogeneous design later derived from this choice (more interior
/// tiles, shorter pipe boundaries). Exact residual ties fall through to
/// the explicit deterministic comparator, never to enumeration order.
bool better_design(const DesignPoint& candidate,
                   const DesignPoint& incumbent) {
  const double c_new = candidate.prediction.total_cycles;
  const double c_old = incumbent.prediction.total_cycles;
  if (c_new < c_old) return true;
  if (c_new > 1.0005 * c_old) return false;
  auto spread = [](const std::array<int, 3>& arrangement) {
    return *std::max_element(arrangement.begin(), arrangement.end()) -
           *std::min_element(arrangement.begin(), arrangement.end());
  };
  const std::int64_t k_new = candidate.config.total_kernels();
  const std::int64_t k_old = incumbent.config.total_kernels();
  if (k_new != k_old) return k_new > k_old;
  const int s_new = spread(candidate.config.parallelism);
  const int s_old = spread(incumbent.config.parallelism);
  if (s_new != s_old) return s_new < s_old;
  // Same latency band, same arrangement quality: only an exact latency
  // tie may still flip the choice, through the stable comparator.
  if (c_new != c_old) return false;
  return design_order(candidate, incumbent);
}

/// Bounds each config of a flat list, index = list position.
BoundedSpace bound_configs(const std::vector<DesignConfig>& configs,
                           const model::LowerBoundModel& model,
                           const fpga::ResourceVector& cap) {
  BoundedSpace out;
  out.bounded = static_cast<std::int64_t>(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const model::LowerBound lb = model.bound(configs[i]);
    if (lb.floor.fits_within(cap)) {
      out.survivors.push_back({lb.cycles, static_cast<std::int64_t>(i)});
    } else {
      ++out.skipped;
    }
  }
  return out;
}

}  // namespace

BoundedSpace bound_axes(const CandidateAxes& axes,
                        const model::LowerBoundModel& model,
                        const fpga::ResourceVector& cap) {
  BoundedSpace out;
  const auto depths = static_cast<std::int64_t>(axes.depths.size());
  std::int64_t index = 0;
  DesignConfig config = axes.prototype;
  // The group's logic floor is taken at its smallest depth, the floor of
  // every deeper candidate.
  config.fused_iterations =
      *std::min_element(axes.depths.begin(), axes.depths.end());
  for (const int replication : axes.replications) {
    config.replication = replication;
    for (const std::array<int, 3>& parallelism : axes.parallelisms) {
      config.parallelism = parallelism;
      for (const int unroll : axes.unrolls) {
        config.unroll = unroll;
        if (!model.logic_floor(config).fits_within(cap)) {
          out.skipped += axes.group_size();
          index += axes.group_size();
          continue;
        }
        for (const std::array<std::int64_t, 3>& tile : axes.tiles) {
          config.tile_size = tile;
          const model::ChainTerms terms = model.chain_terms(config);
          for (std::int64_t j = 0; j < depths; ++j) {
            const model::LowerBound lb =
                model.bound(terms, axes.depths[static_cast<std::size_t>(j)]);
            ++out.bounded;
            if (!lb.floor.fits_within(cap)) {
              out.skipped += depths - j;  // deeper floors only grow
              break;
            }
            out.survivors.push_back({lb.cycles, index + j});
          }
          index += depths;
        }
      }
    }
  }
  return out;
}

Optimizer::Optimizer(const StencilProgram& program, OptimizerOptions options)
    : program_(&program),
      options_(std::move(options)),
      space_(program, options_),
      bound_model_(program, options_.device),
      engine_(program, options_.device, options_.cone_mode) {
  SCL_CHECK(options_.resource_fraction > 0.0 &&
                options_.resource_fraction <= 1.0,
            "resource fraction must be in (0, 1]");
}

fpga::ResourceVector Optimizer::budget() const {
  const fpga::ResourceVector cap = options_.device.capacity;
  auto scale = [&](std::int64_t v) {
    return static_cast<std::int64_t>(static_cast<double>(v) *
                                     options_.resource_fraction);
  };
  return {scale(cap.ff), scale(cap.lut), scale(cap.dsp), scale(cap.bram18)};
}

DesignPoint Optimizer::evaluate(const DesignConfig& config) const {
  return engine_.evaluate(config);
}

std::vector<DesignPoint> Optimizer::explore(DesignKind kind) const {
  return engine_.evaluate_chains(space_.chains(kind), budget());
}

DesignPoint Optimizer::select_best(
    const std::vector<DesignPoint>& feasible) const {
  // Running-best scan over the deterministic enumeration order.
  const DesignPoint* best = nullptr;
  for (const DesignPoint& point : feasible) {
    if (best == nullptr || better_design(point, *best)) best = &point;
  }
  SCL_CHECK(best != nullptr, "select_best needs a non-empty feasible set");
  return *best;
}

std::optional<DesignPoint> Optimizer::branch_and_bound(
    const std::function<BoundedSpace()>& bound_space,
    const std::function<DesignConfig(std::int64_t)>& config_at,
    std::int64_t chain_length, const fpga::ResourceVector& cap) const {
  // Phase A: bound the space, find a feasible incumbent by walking the
  // most promising bounds first, and decide the kept set from bounds
  // alone.
  std::vector<std::int64_t> kept;
  std::optional<DesignPoint> seed;
  {
    const auto span = support::obs::tracer().span("dse/prune", "dse");
    BoundedSpace space = bound_space();
    engine_.add_bounded(space.bounded);
    // Min-heap on (bound, enumeration index): it pops in exactly the
    // ascending sorted order, but the seed usually turns up in the first
    // batch or two, so only those pops pay the log factor — sorting the
    // survivors would not. Popped candidates collect behind `unpopped`.
    std::vector<BoundedCandidate>& heap = space.survivors;
    const auto pops_later = [](const BoundedCandidate& a,
                               const BoundedCandidate& b) {
      if (a.cycles != b.cycles) return a.cycles > b.cycles;
      return a.index > b.index;  // enumeration index breaks ties
    };
    std::make_heap(heap.begin(), heap.end(), pops_later);
    auto unpopped = heap.end();
    // Incumbent seed: evaluate bound-ascending in small batches until a
    // design fits. The tighter the seed, the smaller the kept set, but
    // any feasible design is a correct incumbent. The resource floor
    // only removed designs that cannot fit, so the first feasible design
    // in bound order, the seed, is the same with or without it.
    constexpr std::size_t kSeedBatch = 8;
    while (!seed && unpopped != heap.begin()) {
      std::vector<DesignConfig> batch;
      while (batch.size() < kSeedBatch && unpopped != heap.begin()) {
        std::pop_heap(heap.begin(), unpopped, pops_later);
        --unpopped;
        batch.push_back(config_at(unpopped->index));
      }
      for (const DesignPoint& point : engine_.evaluate_batch(batch)) {
        if (!point.resources.total.fits_within(cap)) continue;
        seed = point;
        break;
      }
    }
    // Floor-skipped candidates are pruned even when nothing fits.
    std::int64_t pruned = space.skipped;
    if (seed) {
      const double ceiling = kPruneMargin * seed->prediction.total_cycles;
      for (auto it = heap.begin(); it != heap.end(); ++it) {
        if (it->cycles <= ceiling) {
          kept.push_back(it->index);
        } else if (it < unpopped) {
          // Seed-probed candidates were evaluated, not skipped;
          // candidates dropped later by Phase B's early exit are not
          // counted either — this counter reports bound prunes only.
          ++pruned;
        }
      }
    }
    engine_.add_pruned(pruned);
    if (!seed) return std::nullopt;  // exhaustively infeasible
  }
  // Phase B: evaluate the kept subsets in enumeration order.
  // Candidates outside the kept set either cannot fit (resource floor)
  // or have exact latency >= their bound > kPruneMargin x incumbent >=
  // kPruneMargin x optimum, far beyond the near-tie band, so the
  // running-best scan over this subsequence picks the same design the
  // exhaustive scan would. Keeping the chain structure (each kept subset
  // is still ascending in depth) lets evaluate_chains early-exit the
  // over-budget tails exactly as the exhaustive path does.
  std::sort(kept.begin(), kept.end());
  std::vector<CandidateChain> chains;
  std::int64_t chain = -1;
  for (const std::int64_t index : kept) {
    if (index / chain_length != chain) {
      chain = index / chain_length;
      chains.emplace_back();
    }
    chains.back().configs.push_back(config_at(index));
  }
  const std::vector<DesignPoint> feasible = engine_.evaluate_chains(chains, cap);
  for (const DesignPoint& point : feasible) retained_.insert(point);
  if (feasible.empty()) return std::nullopt;  // unreachable: seed is kept
  return select_best(feasible);
}

std::optional<DesignPoint> Optimizer::branch_and_bound(
    const CandidateAxes& axes, const fpga::ResourceVector& cap) const {
  return branch_and_bound(
      [&] { return bound_axes(axes, bound_model_, cap); },
      [&](std::int64_t index) { return axes.config(index); },
      static_cast<std::int64_t>(axes.depths.size()), cap);
}

DesignPoint Optimizer::optimize_baseline() const {
  const DseStats before = engine_.stats();
  std::optional<DesignPoint> best;
  if (options_.prune) {
    best = branch_and_bound(space_.axes(DesignKind::kBaseline), budget());
  } else {
    const std::vector<DesignPoint> feasible = explore(DesignKind::kBaseline);
    for (const DesignPoint& point : feasible) retained_.insert(point);
    if (!feasible.empty()) best = select_best(feasible);
  }
  const DseStats after = engine_.stats();
  SCL_INFO() << "baseline DSE for " << program_->name() << ": "
             << after.candidates_evaluated - before.candidates_evaluated
             << " candidates evaluated, "
             << after.candidates_pruned - before.candidates_pruned
             << " pruned";
  if (!best) {
    throw ResourceError(
        str_cat("no baseline design for '", program_->name(),
                "' fits the device budget ", budget().to_string()));
  }
  return *best;
}

std::vector<DesignPoint> Optimizer::explore_temporal() const {
  return engine_.evaluate_chains(space_.temporal_chains(), budget());
}

DesignPoint Optimizer::optimize_temporal() const {
  const DseStats before = engine_.stats();
  std::optional<DesignPoint> best;
  if (options_.prune) {
    best = branch_and_bound(space_.temporal_axes(), budget());
  } else {
    const std::vector<DesignPoint> feasible = explore_temporal();
    for (const DesignPoint& point : feasible) retained_.insert(point);
    if (!feasible.empty()) best = select_best(feasible);
  }
  const DseStats after = engine_.stats();
  SCL_INFO() << "temporal DSE for " << program_->name() << ": "
             << after.candidates_evaluated - before.candidates_evaluated
             << " candidates evaluated, "
             << after.candidates_pruned - before.candidates_pruned
             << " pruned";
  if (!best) {
    throw ResourceError(
        str_cat("no temporal-shift design for '", program_->name(),
                "' fits the device budget ", budget().to_string()));
  }
  return *best;
}

DesignPoint Optimizer::optimize_heterogeneous(
    const DesignPoint& baseline) const {
  // Paper §5.4: the heterogeneous design is constrained by the baseline's
  // hardware size and keeps its parallelism; only the fusion depth, tile
  // size and balancing factors vary. DSP and BRAM are hard caps; FF/LUT
  // get a 3% tolerance (estimation noise at P&R granularity — relevant
  // only for 1-D stencils whose pipe logic is not amortized by buffer
  // savings).
  fpga::ResourceVector cap = baseline.resources.total;
  cap.ff = static_cast<std::int64_t>(static_cast<double>(cap.ff) * 1.03);
  cap.lut = static_cast<std::int64_t>(static_cast<double>(cap.lut) * 1.03);

  // Table 3 protocol: the heterogeneous design keeps the baseline's
  // nominal tile (its region sweep), so the reported "tile size of the
  // slowest kernel" is the baseline tile minus the balancing shrink.
  const std::vector<DesignConfig> candidates =
      space_.heterogeneous_candidates(baseline.config);
  const DseStats before = engine_.stats();
  std::optional<DesignPoint> best;
  if (options_.prune) {
    // Shrink does not vary resources monotonically, so each candidate is
    // its own single-config chain: the chain early exit degenerates to
    // the plain feasibility filter.
    best = branch_and_bound(
        [&] { return bound_configs(candidates, bound_model_, cap); },
        [&](std::int64_t index) {
          return candidates[static_cast<std::size_t>(index)];
        },
        1, cap);
  } else {
    const std::vector<DesignPoint> points = engine_.evaluate_batch(candidates);
    std::vector<DesignPoint> feasible;
    feasible.reserve(points.size());
    for (const DesignPoint& point : points) {
      if (point.resources.total.fits_within(cap)) feasible.push_back(point);
    }
    for (const DesignPoint& point : feasible) retained_.insert(point);
    if (!feasible.empty()) best = select_best(feasible);
  }
  const DseStats after = engine_.stats();
  SCL_INFO() << "heterogeneous DSE for " << program_->name() << ": "
             << after.candidates_evaluated - before.candidates_evaluated
             << " candidates evaluated, "
             << after.candidates_pruned - before.candidates_pruned
             << " pruned";
  if (!best) {
    throw ResourceError(
        str_cat("no heterogeneous design for '", program_->name(),
                "' fits within the baseline's resources ", cap.to_string()));
  }
  return *best;
}

std::vector<DesignPoint> Optimizer::pareto_frontier(
    sim::DesignKind kind) const {
  std::vector<DesignPoint> feasible = explore(kind);
  std::sort(feasible.begin(), feasible.end(), design_order);
  std::vector<DesignPoint> frontier;
  std::int64_t best_bram = std::numeric_limits<std::int64_t>::max();
  for (DesignPoint& point : feasible) {
    if (point.resources.total.bram18 < best_bram) {
      best_bram = point.resources.total.bram18;
      frontier.push_back(std::move(point));
    }
  }
  return frontier;
}

}  // namespace scl::core
