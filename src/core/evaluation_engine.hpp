// Memoizing candidate evaluation for design-space exploration.
//
// The engine is the stateless counterpart to CandidateSpace: it turns
// DesignConfigs into DesignPoints (prediction + resources) and knows
// nothing about search policy. It owns one PerfModel, one ResourceModel
// and the memoizing EvalCache, and evaluates on the calling thread:
// branch-and-bound leaves a search only hundreds of candidates, so one
// search runs serially and parallelism lives across requests
// (serve::Scheduler).
//
// Determinism contract: evaluation is a pure function of the config and
// batches and chains are walked in enumeration order, so
// evaluate_batch()/evaluate_chains() results depend only on their input.
#pragma once

#include <cstdint>
#include <vector>

#include "core/candidate_space.hpp"
#include "core/eval_cache.hpp"
#include "core/resource_estimator.hpp"
#include "fpga/resource_model.hpp"
#include "model/perf_model.hpp"
#include "sim/design.hpp"
#include "stencil/program.hpp"

namespace scl::core {

struct DesignPoint;

/// Aggregated DSE counters for reporting (core/report.cpp renders them).
struct DseStats {
  std::int64_t candidates_evaluated = 0;  ///< cache hits + misses
  std::int64_t candidates_pruned = 0;     ///< skipped via lower bounds
  std::int64_t candidates_bounded = 0;    ///< lower bounds computed
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  double wall_seconds = 0.0;  ///< time inside batch/chain evaluation

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

class EvaluationEngine {
 public:
  EvaluationEngine(const scl::stencil::StencilProgram& program,
                   const fpga::DeviceSpec& device, model::ConeMode cone_mode);

  /// Evaluates one configuration through the cache.
  DesignPoint evaluate(const sim::DesignConfig& config);

  /// Evaluates every config, in input order.
  std::vector<DesignPoint> evaluate_batch(
      const std::vector<sim::DesignConfig>& configs);

  /// Walks each chain's ascending fusion depths and stops at the first
  /// candidate whose resources exceed `budget` — resource use grows
  /// monotonically with h, so the rest of the chain cannot fit either.
  /// Returns the feasible points of every chain concatenated in chain
  /// order.
  std::vector<DesignPoint> evaluate_chains(
      const std::vector<CandidateChain>& chains,
      const fpga::ResourceVector& budget);

  EvalCache& cache() { return cache_; }
  const EvalCache& cache() const { return cache_; }

  /// Counters since construction (or the last reset_stats()).
  DseStats stats() const;
  void reset_stats();

  /// Credits `n` branch-and-bound prunes to the stats (and the
  /// scl_dse_pruned_total metric). The Optimizer calls this once per
  /// search phase, not per candidate.
  void add_pruned(std::int64_t n);

  /// Credits `n` computed lower bounds to the stats, once per search.
  void add_bounded(std::int64_t n);

 private:
  /// Cached evaluation without touching the evaluated-candidates
  /// counter; the batch and chain loops count once per call.
  DesignPoint evaluate_one(const sim::DesignConfig& config);
  /// Credits one batch or chain walk: `walked` candidates in `seconds`.
  void record_walk(std::int64_t walked, double seconds);

  const scl::stencil::StencilProgram* program_;
  model::PerfModel perf_model_;
  fpga::ResourceModel resource_model_;
  EvalCache cache_;
  std::int64_t evaluated_ = 0;
  std::int64_t pruned_ = 0;
  std::int64_t bounded_ = 0;
  double wall_seconds_ = 0.0;
};

}  // namespace scl::core
