// Performance optimizer / design-space exploration (paper §5.1).
//
// The optimizer drives the analytical model over the design space and
// returns the fastest configuration that fits the device:
//
//  * optimize_baseline() reproduces the state-of-the-art flow of Nacci et
//    al. [DAC'13]: it explores iteration-fusion depth, tile size and
//    parallelism (plus the unroll factor N_PE) for the overlapped-tiling
//    design under the device's resource budget.
//  * optimize_heterogeneous() reproduces the paper's evaluation protocol
//    (§5.4): parallelism and unroll are pinned to the baseline's, the
//    total resources are capped by what the *baseline* consumed, and the
//    fusion depth, tile size and workload-balancing factors are chosen by
//    the model.
//  * optimize_temporal() searches the temporal-blocked shift-register
//    family (arch/family.hpp) under the device's resource budget.
//
// Each optimize_* builds one SearchSpace from the pure CandidateSpace
// enumerator (candidate_space.hpp) — candidates addressed by index, the
// chain length and the resource cap — and runs the one branch-and-bound
// search(). Candidates are priced on the calling thread by the
// optimizer's own PerfModel and ResourceModel, and the winner is picked by
// select_best(), a total order, so search results, Pareto frontiers and
// the retained frontier depend only on the program and the options.
// explore() walks a space exhaustively; select_best(explore(space)) is
// the oracle the tests hold search(space) to.
#pragma once

#include <cstdint>
#include <vector>

#include "core/candidate_space.hpp"
#include "core/design_point.hpp"
#include "core/pareto_front.hpp"
#include "core/resource_estimator.hpp"
#include "fpga/device.hpp"
#include "fpga/resource_model.hpp"
#include "model/lower_bound.hpp"
#include "model/perf_model.hpp"
#include "sim/design.hpp"
#include "stencil/program.hpp"

namespace scl::core {

struct OptimizerOptions {
  fpga::DeviceSpec device = fpga::virtex7_690t();
  /// Usable fraction of the device (routing headroom).
  double resource_fraction = 0.8;
  /// Candidate fusion depths (filtered to <= H). Empty = powers of two.
  std::vector<std::int64_t> fusion_candidates;
  /// Candidate per-dimension tile extents. Empty = built-in defaults
  /// scaled by dimensionality.
  std::vector<std::int64_t> tile_candidates;
  /// Candidate unroll factors (N_PE).
  std::vector<int> unroll_candidates{1, 2, 4, 8, 16};
  /// Max kernels per region (the paper uses up to 16).
  std::int64_t max_kernels = 16;
  /// Candidate spatial replication factors R (PE copies bound to disjoint
  /// global-memory bank groups). Empty = derived from the device: {1} on
  /// single-bank (DDR) devices — keeping their searches bit-identical to
  /// the pre-replication DSE — otherwise the powers of two up to and
  /// including the bank count.
  std::vector<int> replication_candidates;
  /// Candidate edge-shrink values for workload balancing.
  std::vector<std::int64_t> shrink_candidates{0, 1, 2, 4, 8};
  model::ConeMode cone_mode = model::ConeMode::kRefined;
  /// Ignored: candidate evaluation runs on the calling thread. Kept only
  /// because perfbench/common.cpp still assigns it.
  int threads = 0;
};

/// Aggregated DSE counters for reporting (core/report.cpp renders them).
struct DseStats {
  /// Designs the searches walked: priced by the models or reused.
  std::int64_t candidates_evaluated = 0;
  std::int64_t candidates_pruned = 0;   ///< skipped via lower bounds
  std::int64_t candidates_bounded = 0;  ///< lower bounds computed
  /// Phase-B walks that reused a design a Phase-A seed batch had already
  /// priced. Named for the memo cache it replaced: the report, perfbench
  /// and --analyze-json read it.
  std::int64_t cache_hits = 0;
  /// candidates_evaluated - cache_hits: designs priced by the models.
  std::int64_t cache_misses = 0;
  double wall_seconds = 0.0;  ///< time inside evaluation walks

  double cache_hit_rate() const {
    const auto total = static_cast<double>(candidates_evaluated);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
  double candidates_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(candidates_evaluated) / wall_seconds
               : 0.0;
  }
};

/// One search: the candidates of one family addressed by index, under one
/// resource cap. A product space walks `axes`, each run of
/// axes.depths.size() consecutive indices one chain ascending in depth; a
/// list space walks `configs`, each candidate its own chain.
struct SearchSpace {
  /// Names the family in the log line and the ResourceError.
  const char* family = "";
  /// The cap every design must fit, and how the ResourceError names it.
  fpga::ResourceVector cap;
  const char* cap_name = "";
  CandidateAxes axes;
  /// Non-empty for a list space.
  std::vector<sim::DesignConfig> configs;

  std::int64_t size() const;
  std::int64_t chain_length() const;
  sim::DesignConfig config(std::int64_t index) const;
};

/// A candidate that Phase A of branch-and-bound kept for the seed heap:
/// its latency bound and its enumeration index.
struct BoundedCandidate {
  double cycles = 0.0;
  std::int64_t index = 0;
};

/// Phase A's bounding pass over one search space.
struct BoundedSpace {
  /// Candidates whose resource floor fits the cap, in enumeration order.
  std::vector<BoundedCandidate> survivors;
  /// Candidates whose bound was computed.
  std::int64_t bounded = 0;
  /// Candidates dropped because their resource floor breaks the cap,
  /// bounded or not.
  std::int64_t skipped = 0;
};

/// Bounds a product space group first, in the contract order R → K → U →
/// tile → depth. A group whose logic floor (model::LowerBoundModel::
/// logic_floor: exact DSP, datapath LUT/FF) breaks `cap` is skipped
/// whole; otherwise each chain's depth-independent terms are computed
/// once, and the chain stops at its first depth whose resource floor
/// breaks `cap` (the floor is monotone in the depth). Each survivor's
/// bound is bit-identical to model.bound(axes.config(index)). Holds
/// nothing per candidate beyond the survivors.
BoundedSpace bound_axes(const CandidateAxes& axes,
                        const model::LowerBoundModel& model,
                        const fpga::ResourceVector& cap);

/// The near-tie band of select_best(): designs within this factor of the
/// fastest feasible latency count as tied.
inline constexpr double kNearTie = 1.0005;

/// The selection rule, a total order on a feasible set. Let c* be the
/// lowest predicted latency. Among the designs at or below kNearTie x c*
/// (the baseline's overlapped cones make the latency insensitive to the
/// parallelism arrangement) prefer more compute units, then the squarer
/// arrangement — both benefit the heterogeneous design later derived from
/// this choice (more interior tiles, shorter pipe boundaries) — then
/// design_order. Every permutation of `feasible` selects the same design.
/// `feasible` must not be empty.
DesignPoint select_best(const std::vector<DesignPoint>& feasible);

class Optimizer {
 public:
  Optimizer(const scl::stencil::StencilProgram& program,
            OptimizerOptions options);

  /// Best overlapped-tiling design fitting the device budget.
  /// Throws scl::ResourceError when nothing fits.
  DesignPoint optimize_baseline() const { return search(baseline_space()); }

  /// Best pipe-shared heterogeneous design using the baseline's
  /// parallelism/unroll and at most the baseline's resources.
  DesignPoint optimize_heterogeneous(const DesignPoint& baseline) const {
    return search(heterogeneous_space(baseline));
  }

  /// Best temporal-blocked shift-register design (arch/family.hpp)
  /// fitting the device budget: vector width x strip width x temporal
  /// degree. Throws scl::ResourceError when nothing fits.
  DesignPoint optimize_temporal() const { return search(temporal_space()); }

  /// The spaces the three optimize_* searches walk.
  SearchSpace baseline_space() const;
  SearchSpace heterogeneous_space(const DesignPoint& baseline) const;
  SearchSpace temporal_space() const;

  /// Branch-and-bound over `space`: returns select_best(explore(space))
  /// while evaluating only the candidates whose latency bound is within
  /// kPruneMargin of a feasible seed. Throws scl::ResourceError when
  /// nothing fits. The feasible designs it evaluates feed
  /// retained_frontier().
  DesignPoint search(const SearchSpace& space) const;

  /// Every feasible design of `space`, in enumeration order: each chain
  /// is walked up to its first design that breaks the cap (resource use
  /// grows with the depth, so the rest of the chain cannot fit either).
  std::vector<DesignPoint> explore(const SearchSpace& space) const;

  /// Evaluates one configuration (prediction + resources) without
  /// feasibility filtering. Useful for sweeps and ablation studies. Each
  /// call prices the design afresh.
  DesignPoint evaluate(const sim::DesignConfig& config) const;

  /// All budget-feasible designs of `kind` that are Pareto-optimal in
  /// (predicted cycles, BRAM18), sorted by ascending cycles. The first
  /// entry is the latency optimum; walking the list trades speed for
  /// memory footprint.
  std::vector<DesignPoint> pareto_frontier(sim::DesignKind kind) const;

  /// The resource budget configurations must fit
  /// (device capacity x resource_fraction).
  fpga::ResourceVector budget() const;

  const OptimizerOptions& options() const { return options_; }
  const CandidateSpace& space() const { return space_; }

  /// Evaluation counters (candidates, reuses, wall-clock) accumulated
  /// over every search this optimizer ran.
  DseStats dse_stats() const;

  /// The (cycles, BRAM18) Pareto front of every feasible design the
  /// searches evaluated, accumulated across searches. It covers the
  /// latency-competitive band the search kept (bounds more than
  /// kPruneMargin above the seed are discarded unevaluated) — the
  /// high-latency/low-BRAM tail of the exhaustive frontier is
  /// intentionally absent; pareto_frontier() computes the full curve.
  const std::vector<DesignPoint>& retained_frontier() const {
    return retained_.points();
  }

  /// Pruning margin: a candidate is discarded only when its admissible
  /// latency bound exceeds kPruneMargin x the seed's exact latency. Any
  /// margin of at least kNearTie is sound: a design select_best() can
  /// pick has latency <= kNearTie x c* <= kNearTie x seed, and its bound
  /// is no higher. The margin stays at 1.10 because it sets the latency
  /// band of retained_frontier(), which the report and the artifact
  /// carry.
  static constexpr double kPruneMargin = 1.10;

 private:
  /// A design Phase A priced, by enumeration index.
  struct Probe {
    std::int64_t index = 0;
    DesignPoint point;
  };

  /// A product space over `axes` under the device budget.
  SearchSpace product_space(const char* family, CandidateAxes axes) const;
  /// Prediction + resources of one config, uncounted.
  DesignPoint price(const sim::DesignConfig& config) const;
  /// Walks the ascending `indices` of `space` chain by chain, stopping
  /// each chain at its first design that breaks the cap. Designs in
  /// `probes` (sorted by index) are reused, not priced again. Returns the
  /// feasible designs in index order.
  std::vector<DesignPoint> walk(const SearchSpace& space,
                                const std::vector<std::int64_t>& indices,
                                std::vector<Probe> probes) const;

  const scl::stencil::StencilProgram* program_;
  OptimizerOptions options_;
  CandidateSpace space_;
  model::LowerBoundModel bound_model_;
  model::PerfModel perf_model_;
  fpga::ResourceModel resource_model_;
  /// Mutable: counters and the retained front are by-products of const
  /// searches; evaluation itself is pure.
  mutable DseStats stats_;
  mutable ParetoFront retained_;
};

}  // namespace scl::core
