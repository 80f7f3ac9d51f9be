#include "core/framework.hpp"

#include "core/verify.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/observability/observability.hpp"
#include "support/strings.hpp"

namespace scl::core {

std::string to_string(FamilySelection family) {
  switch (family) {
    case FamilySelection::kAuto:
      return "auto";
    case FamilySelection::kPipeTiling:
      return "pipe-tiling";
    case FamilySelection::kTemporalShift:
      return "temporal-shift";
  }
  return "?";
}

Framework::Framework(const scl::stencil::StencilProgram& program,
                     FrameworkOptions options)
    : program_(&program),
      options_(std::move(options)),
      optimizer_(program, options_.optimizer) {}

SynthesisReport Framework::synthesize() const {
  const auto synth_span =
      support::obs::tracer().span("core/synthesize", "core");
  SynthesisReport report;
  report.features = extract_features(*program_);
  report.device = options_.optimizer.device;
  SCL_INFO() << "features: " << report.features.to_string();

  {
    const auto span = support::obs::tracer().span("dse/baseline", "dse");
    report.baseline = optimizer_.optimize_baseline();
  }
  SCL_INFO() << "baseline: "
             << report.baseline.config.summary(program_->dims());
  {
    const auto span =
        support::obs::tracer().span("dse/heterogeneous", "dse");
    try {
      report.heterogeneous =
          optimizer_.optimize_heterogeneous(report.baseline);
    } catch (const ResourceError&) {
      // On banked parts the baseline winner may already spend the BRAM
      // budget on spatial replication, leaving no pipe redistribution
      // inside the cap. The degenerate redistribution — the baseline
      // itself — then stands as the pipe-tiling representative.
      report.heterogeneous = report.baseline;
    }
  }
  SCL_INFO() << "heterogeneous: "
             << report.heterogeneous.config.summary(program_->dims());

  if (options_.family != FamilySelection::kPipeTiling) {
    const auto span = support::obs::tracer().span("dse/temporal", "dse");
    try {
      report.temporal = optimizer_.optimize_temporal();
      SCL_INFO() << "temporal: "
                 << report.temporal->config.summary(program_->dims());
    } catch (const ResourceError&) {
      // No cascade fits the device. Under kAuto the pipe-tiling winner
      // simply stands; a forced temporal-only flow must fail loudly.
      if (options_.family == FamilySelection::kTemporalShift) throw;
    }
  }
  // kAuto selects the family by predicted cycles, breaking ties toward
  // the paper's pipe-tiling architecture.
  if (report.temporal &&
      (options_.family == FamilySelection::kTemporalShift ||
       report.temporal->prediction.total_cycles <
           report.heterogeneous.prediction.total_cycles)) {
    report.selected_family = arch::DesignFamily::kTemporalShift;
  }
  SCL_INFO() << "selected family: " << arch::to_string(report.selected_family);
  report.dse = optimizer_.dse_stats();
  report.frontier = optimizer_.retained_frontier();

  if (options_.analyze) {
    // Verify every selected design before spending time on simulation;
    // generated-source diagnostics are appended below once code exists.
    report.analysis.merge(verify_design(*program_, report.baseline.config,
                                        report.device,
                                        report.baseline.resources));
    // A baseline standing in for the heterogeneous design (see the DSE
    // above) is the same design: verify it once.
    if (report.heterogeneous.config.key() != report.baseline.config.key()) {
      report.analysis.merge(verify_design(*program_,
                                          report.heterogeneous.config,
                                          report.device,
                                          report.heterogeneous.resources));
    }
    if (report.temporal) {
      report.analysis.merge(verify_design(*program_, report.temporal->config,
                                          report.device,
                                          report.temporal->resources));
    }
    if (options_.fail_on_analysis_error && report.analysis.has_errors()) {
      throw VerificationError(
          str_cat("design verification failed with ",
                  report.analysis.error_count(), " error(s):\n",
                  report.analysis.render_text()),
          report.analysis.diagnostics());
    }
    if (report.analysis.warning_count() > 0) {
      SCL_INFO() << "design verification: "
                 << report.analysis.warning_count() << " warning(s)";
    }
  }

  if (options_.simulate) {
    const auto span = support::obs::tracer().span("sim/simulate", "sim");
    const sim::Executor exec(options_.optimizer.device);
    report.baseline_sim = exec.run(*program_, report.baseline.config,
                                   sim::SimMode::kTimingOnly);
    // When the baseline stands in for the heterogeneous design (see the
    // DSE above), it is the same design: reuse its simulation.
    report.heterogeneous_sim =
        report.heterogeneous.config.key() == report.baseline.config.key()
            ? report.baseline_sim
            : exec.run(*program_, report.heterogeneous.config,
                       sim::SimMode::kTimingOnly);
    if (report.temporal) {
      report.temporal_sim = exec.run(*program_, report.temporal->config,
                                     sim::SimMode::kTimingOnly);
    }
    report.speedup =
        static_cast<double>(report.baseline_sim.total_cycles) /
        static_cast<double>(report.heterogeneous_sim.total_cycles);
  }

  if (options_.generate_code) {
    const sim::DesignConfig& emitted = report.selected().config;
    report.code =
        codegen::generate_opencl(*program_, emitted, options_.optimizer.device);
    if (options_.analyze) {
      support::DiagnosticEngine sources;
      verify_generated_sources(report.code, &sources);
      report.ir = verify_generated_ir(*program_, emitted,
                                      report.code, &sources);
      report.analysis.merge(sources);
      if (options_.fail_on_analysis_error && sources.has_errors()) {
        throw VerificationError(
            str_cat("generated-source validation failed with ",
                    sources.error_count(), " error(s):\n",
                    sources.render_text()),
            sources.diagnostics());
      }
    }
  }
  return report;
}

std::string SynthesisReport::to_string() const {
  std::string out = features.to_string() + "\n";
  auto describe = [&](const char* label, const DesignPoint& p,
                      const sim::SimResult& sim_result) {
    out += str_cat(label, ": ", p.config.summary(features.dims), "\n");
    out += str_cat("  predicted: ", format_thousands(static_cast<long long>(
                                        p.prediction.total_cycles)),
                   " cycles, resources ", p.resources.total.to_string(), "\n");
    if (sim_result.total_cycles > 0) {
      out += str_cat("  simulated: ",
                     format_thousands(sim_result.total_cycles), " cycles (",
                     format_fixed(sim_result.total_ms, 2), " ms)\n");
    }
  };
  describe("baseline", baseline, baseline_sim);
  describe("heterogeneous", heterogeneous, heterogeneous_sim);
  if (temporal) {
    describe("temporal", *temporal, temporal_sim);
  }
  out += str_cat("selected family: ", arch::to_string(selected_family), "\n");
  if (speedup > 0.0) {
    out += str_cat("speedup: ", format_speedup(speedup), "\n");
  }
  if (ir.ran) {
    out += str_cat("IR verification: ", ir.kernels_lowered, " kernel(s), ",
                   ir.pipes_checked, " pipe(s), ", ir.errors, " error(s), ",
                   ir.warnings, " warning(s)\n");
  }
  if (dse.candidates_evaluated > 0) {
    out += str_cat("DSE: ", format_thousands(dse.candidates_evaluated),
                   " candidates, ",
                   format_fixed(100.0 * dse.cache_hit_rate(), 1),
                   "% cache hits, ", format_fixed(dse.wall_seconds, 2),
                   " s\n");
  }
  return out;
}

}  // namespace scl::core
