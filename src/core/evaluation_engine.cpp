#include "core/evaluation_engine.hpp"

#include <chrono>

#include "core/design_point.hpp"
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

}  // namespace

EvaluationEngine::EvaluationEngine(
    const scl::stencil::StencilProgram& program,
    const fpga::DeviceSpec& device, model::ConeMode cone_mode)
    : program_(&program),
      perf_model_(program, device, cone_mode),
      resource_model_(device) {}

DesignPoint EvaluationEngine::evaluate_one(const DesignConfig& config) {
  const CachedEvaluation eval = cache_.find_or_compute(config.key(), [&] {
    return CachedEvaluation{
        perf_model_.predict(config),
        estimate_design_resources(*program_, config, resource_model_)};
  });
  DesignPoint point;
  point.config = config;
  point.prediction = eval.prediction;
  point.resources = eval.resources;
  return point;
}

DesignPoint EvaluationEngine::evaluate(const DesignConfig& config) {
  ++evaluated_;
  if (support::obs::enabled()) candidates_counter().increment();
  return evaluate_one(config);
}

std::vector<DesignPoint> EvaluationEngine::evaluate_batch(
    const std::vector<DesignConfig>& configs) {
  const auto span =
      support::obs::tracer().span("dse/evaluate_batch", "dse");
  const WallTimer timer;
  std::vector<DesignPoint> out;
  out.reserve(configs.size());
  for (const DesignConfig& config : configs) {
    out.push_back(evaluate_one(config));
  }
  record_walk(static_cast<std::int64_t>(configs.size()), timer.seconds());
  return out;
}

std::vector<DesignPoint> EvaluationEngine::evaluate_chains(
    const std::vector<CandidateChain>& chains,
    const fpga::ResourceVector& budget) {
  const auto span =
      support::obs::tracer().span("dse/evaluate_chains", "dse");
  const WallTimer timer;
  std::vector<DesignPoint> out;
  std::int64_t walked = 0;
  for (const CandidateChain& chain : chains) {
    for (const DesignConfig& config : chain.configs) {
      ++walked;
      DesignPoint point = evaluate_one(config);
      if (!point.resources.total.fits_within(budget)) break;
      out.push_back(std::move(point));
    }
  }
  record_walk(walked, timer.seconds());
  return out;
}

void EvaluationEngine::add_pruned(std::int64_t n) {
  if (n <= 0) return;
  pruned_ += n;
  if (support::obs::enabled()) pruned_counter().add(n);
}

void EvaluationEngine::add_bounded(std::int64_t n) { bounded_ += n; }

DseStats EvaluationEngine::stats() const {
  DseStats stats;
  stats.candidates_evaluated = evaluated_;
  stats.candidates_pruned = pruned_;
  stats.candidates_bounded = bounded_;
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.wall_seconds = wall_seconds_;
  return stats;
}

void EvaluationEngine::reset_stats() {
  evaluated_ = 0;
  pruned_ = 0;
  bounded_ = 0;
  wall_seconds_ = 0.0;
  cache_.clear();
}

void EvaluationEngine::record_walk(std::int64_t walked, double seconds) {
  evaluated_ += walked;
  wall_seconds_ += seconds;
  if (support::obs::enabled()) {
    candidates_counter().add(walked);
    batch_histogram().observe(seconds * 1e3);
  }
}

}  // namespace scl::core
