#include "core/optimizer.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "model/lower_bound.hpp"
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

}  // namespace

Optimizer::Optimizer(const StencilProgram& program, OptimizerOptions options)
    : program_(&program),
      options_(std::move(options)),
      space_(program, options_),
      engine_(program, options_.device, options_.cone_mode, options_.threads,
              options_.analyze_candidates, options_.deep_ir_analysis,
              // Room for every config the space holds, so even the
              // exhaustive searches stay on the lock-free slot table,
              // without paying for the largest table on small spaces.
              static_cast<std::size_t>(std::min<std::int64_t>(
                  space_.size(), EvalCache::kMaxCapacity))) {
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
  // Running-best scan over the deterministic enumeration order. The scan
  // itself is serial (and cheap); all evaluation already happened on the
  // pool, so the result cannot depend on thread scheduling.
  const DesignPoint* best = nullptr;
  for (const DesignPoint& point : feasible) {
    if (best == nullptr || better_design(point, *best)) best = &point;
  }
  SCL_CHECK(best != nullptr, "select_best needs a non-empty feasible set");
  return *best;
}

std::optional<DesignPoint> Optimizer::branch_and_bound(
    const std::vector<CandidateChain>& chains,
    const fpga::ResourceVector& cap) const {
  // Flat view of the chains, enumeration order. Bounding works per
  // candidate; Phase B restores the chain structure so the monotone
  // early exit on over-budget fusion tails still applies.
  std::vector<const DesignConfig*> flat;
  for (const CandidateChain& chain : chains) {
    for (const DesignConfig& config : chain.configs) flat.push_back(&config);
  }
  // Phase A (serial, hence deterministic for any thread count): bound
  // every candidate, find a feasible incumbent by walking the most
  // promising bounds first, and decide the kept set from bounds alone.
  std::vector<char> keep(flat.size(), 0);
  std::optional<DesignPoint> seed;
  {
    const auto span = support::obs::tracer().span("dse/prune", "dse");
    const model::LowerBoundModel bound_model(*program_, options_.device);
    std::vector<model::LowerBound> bounds(flat.size());
    std::vector<std::size_t> heap;
    heap.reserve(flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i) {
      bounds[i] = bound_model.bound(*flat[i]);
      // Even the BRAM lower bound misses the cap: provably infeasible,
      // never worth evaluating (not even as an incumbent).
      if (bounds[i].bram18 <= cap.bram18) heap.push_back(i);
    }
    // Min-heap on (bound, enumeration index): it pops in exactly the
    // ascending sorted order, but the seed usually turns up in the first
    // batch or two, so only those pops pay the log factor — sorting the
    // whole space would not.
    const auto pops_later = [&](std::size_t a, std::size_t b) {
      if (bounds[a].cycles != bounds[b].cycles) {
        return bounds[a].cycles > bounds[b].cycles;
      }
      return a > b;  // enumeration index breaks ties deterministically
    };
    std::make_heap(heap.begin(), heap.end(), pops_later);
    // Incumbent seed: evaluate bound-ascending in small batches until a
    // design fits. The tighter the seed, the smaller the kept set, but
    // any feasible design is a correct incumbent.
    constexpr std::size_t kSeedBatch = 8;
    std::vector<char> seen(flat.size(), 0);
    while (!seed && !heap.empty()) {
      std::vector<std::size_t> probe;
      std::vector<DesignConfig> batch;
      while (probe.size() < kSeedBatch && !heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), pops_later);
        probe.push_back(heap.back());
        heap.pop_back();
        batch.push_back(*flat[probe.back()]);
      }
      const std::vector<DesignPoint> points = engine_.evaluate_batch(batch);
      // The whole batch was evaluated, so none of it counts as pruned.
      for (const std::size_t i : probe) seen[i] = 1;
      for (const DesignPoint& point : points) {
        if (point.analysis_errors > 0) continue;
        if (!point.resources.total.fits_within(cap)) continue;
        seed = point;
        break;
      }
    }
    if (!seed) return std::nullopt;  // exhaustively infeasible
    const double ceiling = kPruneMargin * seed->prediction.total_cycles;
    std::int64_t pruned = 0;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      keep[i] = bounds[i].bram18 <= cap.bram18 && bounds[i].cycles <= ceiling;
      // Seed-probed candidates were evaluated, not skipped; candidates
      // dropped later by Phase B's early exit are not counted either —
      // this counter reports lower-bound prunes only.
      if (keep[i] == 0 && seen[i] == 0) ++pruned;
    }
    engine_.add_pruned(pruned);
  }
  // Phase B: evaluate the kept subsets in enumeration order on the pool.
  // Candidates outside the kept set have exact latency >= their bound
  // > kPruneMargin x incumbent >= kPruneMargin x optimum, far beyond the
  // near-tie band, so the running-best scan over this subsequence picks
  // the same design the exhaustive scan would. Keeping the chain
  // structure (each kept subset is still ascending in fusion depth)
  // lets evaluate_chains early-exit the over-budget tails exactly as
  // the exhaustive path does.
  std::vector<CandidateChain> kept;
  kept.reserve(chains.size());
  std::size_t at = 0;
  for (const CandidateChain& chain : chains) {
    CandidateChain subset;
    for (const DesignConfig& config : chain.configs) {
      if (keep[at++] != 0) subset.configs.push_back(config);
    }
    if (!subset.configs.empty()) kept.push_back(std::move(subset));
  }
  const std::vector<DesignPoint> feasible = engine_.evaluate_chains(kept, cap);
  for (const DesignPoint& point : feasible) retained_.insert(point);
  if (feasible.empty()) return std::nullopt;  // unreachable: seed is kept
  return select_best(feasible);
}

DesignPoint Optimizer::optimize_baseline() const {
  const DseStats before = engine_.stats();
  std::optional<DesignPoint> best;
  if (options_.prune) {
    best = branch_and_bound(space_.chains(DesignKind::kBaseline), budget());
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
             << " pruned on " << engine_.threads() << " thread(s)";
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
    best = branch_and_bound(space_.temporal_chains(), budget());
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
             << " pruned on " << engine_.threads() << " thread(s)";
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
    std::vector<CandidateChain> singleton(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      singleton[i].configs.push_back(candidates[i]);
    }
    best = branch_and_bound(singleton, cap);
  } else {
    const std::vector<DesignPoint> points = engine_.evaluate_batch(candidates);
    std::vector<DesignPoint> feasible;
    feasible.reserve(points.size());
    for (const DesignPoint& point : points) {
      if (point.analysis_errors > 0) continue;
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
             << " pruned on " << engine_.threads() << " thread(s)";
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
