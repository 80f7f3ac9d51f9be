// Parallel, memoizing candidate evaluation for design-space exploration.
//
// The engine is the stateless counterpart to CandidateSpace: it turns
// DesignConfigs into DesignPoints (prediction + resources) and knows
// nothing about search policy. Each worker slot owns its own PerfModel
// and ResourceModel instance, so evaluation never locks shared model
// state; the only shared structures are the memoizing EvalCache (sharded,
// see eval_cache.hpp) and the atomic statistics counters.
//
// Determinism contract: evaluation is a pure function of the config, the
// pool writes results by index, and chains are concatenated in enumeration
// order — so evaluate_batch()/evaluate_chains() return byte-identical
// vectors for any thread count, including 1 (the serial path).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/candidate_space.hpp"
#include "core/eval_cache.hpp"
#include "core/resource_estimator.hpp"
#include "fpga/device.hpp"
#include "model/perf_model.hpp"
#include "sim/design.hpp"
#include "stencil/program.hpp"
#include "support/thread_pool.hpp"

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
  int threads = 1;

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
  /// `threads` <= 0 resolves via SCL_THREADS / hardware concurrency
  /// (ThreadPool::resolve_threads). With `analyze_candidates` every
  /// evaluation also runs the static design verifier (analysis passes 1
  /// and 2) and records its error count in the DesignPoint; chain
  /// evaluation then drops flagged candidates from the feasible set.
  /// `deep_ir_analysis` additionally generates each candidate's OpenCL
  /// and runs the pass-4 kernel-IR checks; its errors share the same
  /// analysis_errors filter. Requires analyze_candidates.
  EvaluationEngine(const scl::stencil::StencilProgram& program,
                   const fpga::DeviceSpec& device, model::ConeMode cone_mode,
                   int threads, bool analyze_candidates = false,
                   bool deep_ir_analysis = false);

  /// Evaluates one configuration through the cache (always on the calling
  /// thread). Thread-safe.
  DesignPoint evaluate(const sim::DesignConfig& config);

  /// Evaluates every config on the pool in contiguous blocks of
  /// ~kBatchGrain candidates (one cursor claim per block, counters
  /// flushed once per block); results in input order.
  std::vector<DesignPoint> evaluate_batch(
      const std::vector<sim::DesignConfig>& configs);

  /// Candidates per chunked work claim. Candidate evaluation costs a few
  /// microseconds, so per-candidate dispatch would be dominated by the
  /// cursor cache-line bounce; O(hundreds) amortizes it to noise while
  /// still load-balancing across thousands of candidates.
  static constexpr std::int64_t kBatchGrain = 64;
  static constexpr std::int64_t kChainGrainConfigs = 256;

  /// Evaluates chains on the pool (one chain per work item), walking each
  /// chain's ascending fusion depths and stopping at the first candidate
  /// whose resources exceed `budget` — resource use grows monotonically
  /// with h, so the rest of the chain cannot fit either (this reproduces
  /// the serial optimizer's early exit). Returns the feasible points of
  /// every chain concatenated in chain order.
  std::vector<DesignPoint> evaluate_chains(
      const std::vector<CandidateChain>& chains,
      const fpga::ResourceVector& budget);

  int threads() const { return pool_->thread_count(); }
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
  /// counters; the chunked loops flush those once per block.
  DesignPoint evaluate_one(const sim::DesignConfig& config);
  /// Uncached evaluation on this worker slot's own models.
  CachedEvaluation compute(const sim::DesignConfig& config) const;
  void add_wall_seconds(double seconds);

  const scl::stencil::StencilProgram* program_;
  fpga::DeviceSpec device_;
  bool analyze_candidates_ = false;
  bool deep_ir_analysis_ = false;
  /// One (PerfModel, ResourceModel) pair per worker slot; slot 0 is the
  /// submitting thread.
  std::vector<model::PerfModel> perf_models_;
  std::vector<fpga::ResourceModel> resource_models_;
  std::unique_ptr<ThreadPool> pool_;
  EvalCache cache_;
  std::atomic<std::int64_t> evaluated_{0};
  std::atomic<std::int64_t> pruned_{0};
  std::atomic<std::int64_t> bounded_{0};
  std::atomic<std::int64_t> wall_nanos_{0};
};

}  // namespace scl::core
