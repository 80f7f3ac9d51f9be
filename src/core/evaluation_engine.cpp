#include "core/evaluation_engine.hpp"

#include <chrono>

#include "analysis/analyzer.hpp"
#include "codegen/opencl_emitter.hpp"
#include "core/optimizer.hpp"
#include "core/verify.hpp"
#include "support/observability/observability.hpp"

namespace scl::core {

using scl::sim::DesignConfig;

namespace {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

support::obs::Counter& candidates_counter() {
  static auto& counter = support::obs::metrics().counter(
      "scl_dse_candidates_total",
      "design candidates evaluated (cache hits included)");
  return counter;
}

support::obs::Counter& pruned_counter() {
  static auto& counter = support::obs::metrics().counter(
      "scl_dse_pruned_total",
      "design candidates skipped by branch-and-bound lower bounds");
  return counter;
}

support::obs::Histogram& batch_histogram() {
  static auto& histogram = support::obs::metrics().histogram(
      "scl_dse_batch_ms", support::obs::default_latency_ms_buckets(),
      "wall time of one evaluate_batch/evaluate_chains call");
  return histogram;
}

DesignPoint to_point(const DesignConfig& config,
                     const CachedEvaluation& eval) {
  DesignPoint point;
  point.config = config;
  point.prediction = eval.prediction;
  point.resources = eval.resources;
  point.analysis_errors = eval.analysis_errors;
  return point;
}

}  // namespace

EvaluationEngine::EvaluationEngine(
    const scl::stencil::StencilProgram& program,
    const fpga::DeviceSpec& device, model::ConeMode cone_mode, int threads,
    bool analyze_candidates, bool deep_ir_analysis)
    : program_(&program),
      device_(device),
      analyze_candidates_(analyze_candidates),
      deep_ir_analysis_(deep_ir_analysis) {
  const int resolved = ThreadPool::resolve_threads(threads);
  perf_models_.reserve(static_cast<std::size_t>(resolved));
  resource_models_.reserve(static_cast<std::size_t>(resolved));
  for (int t = 0; t < resolved; ++t) {
    perf_models_.emplace_back(program, device, cone_mode);
    resource_models_.emplace_back(device);
  }
  pool_ = std::make_unique<ThreadPool>(resolved);
}

CachedEvaluation EvaluationEngine::compute(const DesignConfig& config) const {
  // worker_slot() is scoped to whichever pool owns the calling thread.
  // When evaluation is driven from a foreign pool's worker — the batched
  // synthesis service runs entire syntheses as scheduler jobs — the slot
  // can exceed this engine's model count, so fold it into range. Both
  // models are re-entrant (see their class contracts); a collision only
  // shares a read-only instance.
  const auto slot = static_cast<std::size_t>(ThreadPool::worker_slot()) %
                    perf_models_.size();
  CachedEvaluation eval;
  eval.prediction = perf_models_[slot].predict(config);
  eval.resources =
      estimate_design_resources(*program_, config, resource_models_[slot]);
  if (analyze_candidates_) {
    eval.analysis_errors =
        analysis::analyze_design(*program_, config, device_).error_count();
    if (deep_ir_analysis_) {
      // Deep mode: emit the candidate's actual OpenCL and run the pass-4
      // IR abstract interpretation over it. A config the emitter cannot
      // handle at all counts as one error (it could never ship either).
      try {
        const codegen::GeneratedCode code =
            codegen::generate_opencl(*program_, config, device_);
        support::DiagnosticEngine diags;
        verify_generated_ir(*program_, config, code, &diags);
        eval.analysis_errors += diags.error_count();
      } catch (const Error&) {
        eval.analysis_errors += 1;
      }
    }
  }
  return eval;
}

DesignPoint EvaluationEngine::evaluate_one(const DesignConfig& config) {
  const CachedEvaluation eval = cache_.find_or_compute(
      config.key(), [&] { return compute(config); });
  return to_point(config, eval);
}

DesignPoint EvaluationEngine::evaluate(const DesignConfig& config) {
  evaluated_.fetch_add(1, std::memory_order_relaxed);
  if (support::obs::enabled()) candidates_counter().increment();
  return evaluate_one(config);
}

std::vector<DesignPoint> EvaluationEngine::evaluate_batch(
    const std::vector<DesignConfig>& configs) {
  const auto span =
      support::obs::tracer().span("dse/evaluate_batch", "dse");
  const WallTimer timer;
  std::vector<DesignPoint> out(configs.size());
  pool_->parallel_for_chunked(
      static_cast<std::int64_t>(configs.size()), kBatchGrain,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          const auto s = static_cast<std::size_t>(i);
          out[s] = evaluate_one(configs[s]);
        }
        // One counter flush per block, not per candidate.
        evaluated_.fetch_add(end - begin, std::memory_order_relaxed);
        if (support::obs::enabled()) candidates_counter().add(end - begin);
      });
  const double seconds = timer.seconds();
  if (support::obs::enabled()) {
    batch_histogram().observe(seconds * 1e3);
  }
  add_wall_seconds(seconds);
  return out;
}

std::vector<DesignPoint> EvaluationEngine::evaluate_chains(
    const std::vector<CandidateChain>& chains,
    const fpga::ResourceVector& budget) {
  const auto span =
      support::obs::tracer().span("dse/evaluate_chains", "dse");
  const WallTimer timer;
  // Blocks of whole chains sized to ~kChainGrainConfigs candidates: one
  // cursor claim per block keeps dispatch overhead amortized even though
  // chains themselves are short (one per fusion column).
  const std::vector<CandidateSpace::ChainBlock> blocks =
      CandidateSpace::blocks(chains, kChainGrainConfigs);
  std::vector<std::vector<DesignPoint>> per_chain(chains.size());
  pool_->parallel_for_chunked(
      static_cast<std::int64_t>(blocks.size()), 1,
      [&](std::int64_t block_begin, std::int64_t block_end) {
        std::int64_t walked = 0;
        for (std::int64_t b = block_begin; b < block_end; ++b) {
          const CandidateSpace::ChainBlock& block =
              blocks[static_cast<std::size_t>(b)];
          for (std::size_t s = block.first; s < block.second; ++s) {
            std::vector<DesignPoint>& feasible = per_chain[s];
            for (const DesignConfig& config : chains[s].configs) {
              ++walked;
              DesignPoint point = evaluate_one(config);
              if (!point.resources.total.fits_within(budget)) break;
              // Verifier-flagged candidates are skipped, not
              // early-exited: unlike resource use, diagnostics are not
              // monotone in the fusion depth, so the rest of the chain
              // may still be clean.
              if (point.analysis_errors > 0) continue;
              feasible.push_back(std::move(point));
            }
          }
        }
        evaluated_.fetch_add(walked, std::memory_order_relaxed);
        if (support::obs::enabled()) candidates_counter().add(walked);
      });
  std::vector<DesignPoint> out;
  for (std::vector<DesignPoint>& feasible : per_chain) {
    out.insert(out.end(), std::make_move_iterator(feasible.begin()),
               std::make_move_iterator(feasible.end()));
  }
  const double seconds = timer.seconds();
  if (support::obs::enabled()) {
    batch_histogram().observe(seconds * 1e3);
  }
  add_wall_seconds(seconds);
  return out;
}

void EvaluationEngine::add_pruned(std::int64_t n) {
  if (n <= 0) return;
  pruned_.fetch_add(n, std::memory_order_relaxed);
  if (support::obs::enabled()) pruned_counter().add(n);
}

void EvaluationEngine::add_bounded(std::int64_t n) {
  bounded_.fetch_add(n, std::memory_order_relaxed);
}

DseStats EvaluationEngine::stats() const {
  DseStats stats;
  stats.candidates_evaluated = evaluated_.load(std::memory_order_relaxed);
  stats.candidates_pruned = pruned_.load(std::memory_order_relaxed);
  stats.candidates_bounded = bounded_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.wall_seconds =
      static_cast<double>(wall_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  stats.threads = pool_->thread_count();
  return stats;
}

void EvaluationEngine::reset_stats() {
  evaluated_.store(0, std::memory_order_relaxed);
  pruned_.store(0, std::memory_order_relaxed);
  bounded_.store(0, std::memory_order_relaxed);
  wall_nanos_.store(0, std::memory_order_relaxed);
  cache_.clear();
}

void EvaluationEngine::add_wall_seconds(double seconds) {
  wall_nanos_.fetch_add(static_cast<std::int64_t>(seconds * 1e9),
                        std::memory_order_relaxed);
}

}  // namespace scl::core
