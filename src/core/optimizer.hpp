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
//
// Internally the search is split into a pure CandidateSpace enumerator
// and a memoizing EvaluationEngine (see candidate_space.hpp,
// evaluation_engine.hpp). Candidates are evaluated on the calling thread
// in enumeration order and selected by an explicit deterministic
// comparator, so explore results, Pareto frontiers and best() depend
// only on the program and the options.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/candidate_space.hpp"
#include "core/design_point.hpp"
#include "core/evaluation_engine.hpp"
#include "core/pareto_front.hpp"
#include "core/resource_estimator.hpp"
#include "fpga/device.hpp"
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
  /// Branch-and-bound pruning for the optimize_* searches: admissible
  /// lower bounds (model/lower_bound.hpp) discard candidates that
  /// provably cannot beat a deterministically chosen incumbent. The
  /// reported optimum is bit-identical with pruning on or off (see
  /// tests/dse_prune_test.cpp); explore() and pareto_frontier() always
  /// stay exhaustive.
  bool prune = true;
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

class Optimizer {
 public:
  Optimizer(const scl::stencil::StencilProgram& program,
            OptimizerOptions options);

  /// Best overlapped-tiling design fitting the device budget.
  /// Throws scl::ResourceError when nothing fits.
  DesignPoint optimize_baseline() const;

  /// Best pipe-shared heterogeneous design using the baseline's
  /// parallelism/unroll and at most the baseline's resources.
  DesignPoint optimize_heterogeneous(const DesignPoint& baseline) const;

  /// Best temporal-blocked shift-register design (arch/family.hpp)
  /// fitting the device budget: vector width x strip width x temporal
  /// degree, searched with the same branch-and-bound machinery and the
  /// same determinism contract as optimize_baseline. Throws
  /// scl::ResourceError when nothing fits.
  DesignPoint optimize_temporal() const;

  /// Every budget-feasible temporal-shift design, in enumeration order
  /// (the temporal counterpart of explore()).
  std::vector<DesignPoint> explore_temporal() const;

  /// Evaluates one configuration (prediction + resources) without
  /// feasibility filtering. Useful for sweeps and ablation studies.
  /// Memoized: repeated calls with the same config hit the eval cache.
  DesignPoint evaluate(const sim::DesignConfig& config) const;

  /// All budget-feasible designs of `kind` that are Pareto-optimal in
  /// (predicted cycles, BRAM18), sorted by ascending cycles. The first
  /// entry is the latency optimum; walking the list trades speed for
  /// memory footprint.
  std::vector<DesignPoint> pareto_frontier(sim::DesignKind kind) const;

  /// Every budget-feasible design of `kind`, in enumeration order — the
  /// raw material of pareto_frontier() and optimize_baseline().
  std::vector<DesignPoint> explore(sim::DesignKind kind) const;

  /// The resource budget configurations must fit
  /// (device capacity x resource_fraction).
  fpga::ResourceVector budget() const;

  const OptimizerOptions& options() const { return options_; }
  const CandidateSpace& space() const { return space_; }

  /// Evaluation counters (candidates, cache hits, wall-clock) accumulated
  /// over every search this optimizer ran.
  DseStats dse_stats() const { return engine_.stats(); }

  /// The (cycles, BRAM18) Pareto front of every feasible design the
  /// optimize_* searches evaluated, accumulated across searches. With
  /// pruning on this covers the latency-competitive band the search kept
  /// (bounds more than kPruneMargin above the incumbent are discarded
  /// unevaluated) — the high-latency/low-BRAM tail of the exhaustive
  /// frontier is intentionally absent; pareto_frontier() computes the
  /// full curve.
  const std::vector<DesignPoint>& retained_frontier() const {
    return retained_.points();
  }

  /// Pruning margin: a candidate is discarded only when its admissible
  /// latency bound exceeds kPruneMargin x the incumbent's exact latency.
  /// The running-best scan's 1.0005x near-tie band lets the incumbent
  /// drift above the true optimum by a bounded chain of near-tie
  /// replacements (worst case ~1.065x across the shipped candidate
  /// spaces); 1.10 leaves headroom beyond that, so every candidate the
  /// exhaustive scan could ever select survives the prune.
  static constexpr double kPruneMargin = 1.10;

 private:
  DesignPoint select_best(const std::vector<DesignPoint>& feasible) const;

  /// Branch-and-bound under resource cap `cap` over a space whose
  /// candidates are enumeration indices: `bound_space` bounds it (Phase
  /// A), `config_at` builds the config of an index, and runs of
  /// `chain_length` consecutive indices form one chain. A seed/keep phase
  /// is followed by one chain evaluation of the kept subsets (which
  /// preserves the monotone early exit on over-budget depth tails).
  /// Returns the same design the exhaustive filter-and-select path
  /// returns, or nullopt when nothing feasible exists. Feasible points
  /// feed retained_.
  std::optional<DesignPoint> branch_and_bound(
      const std::function<BoundedSpace()>& bound_space,
      const std::function<sim::DesignConfig(std::int64_t)>& config_at,
      std::int64_t chain_length, const fpga::ResourceVector& cap) const;

  /// branch_and_bound over a product space.
  std::optional<DesignPoint> branch_and_bound(
      const CandidateAxes& axes, const fpga::ResourceVector& cap) const;

  const scl::stencil::StencilProgram* program_;
  OptimizerOptions options_;
  CandidateSpace space_;
  model::LowerBoundModel bound_model_;
  /// Mutable: the engine's cache and counters advance under const
  /// searches; evaluation itself is pure.
  mutable EvaluationEngine engine_;
  /// Mutable for the same reason: a by-product of const searches.
  mutable ParetoFront retained_;
};

}  // namespace scl::core
