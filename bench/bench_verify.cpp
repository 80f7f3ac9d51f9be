// Verification cost per layer: kernel-IR lowering, the pass-4 dataflow
// walks, and passes 1-3 over the selected designs.
//
// For every benchmark of Table 2 at the paper's input scale, on the DDR
// part (xc7vx690t) and the HBM part (xcu280), runs the DSE once (no
// simulation, no verification) and generates the selected design's
// OpenCL, exactly as a cold synthesis does. Then it times the three
// verification layers a cold synthesis runs:
//
//   lower     analysis::ir::lower_kernel_source on the emitted kernels
//   dataflow  analysis::ir::analyze_module (every SCL4xx walk)
//   design    core::verify_design on the baseline, heterogeneous and
//             (when one fits) temporal designs — passes 1-3
//
// Each layer's time is the minimum thread-CPU time over kReps runs (the
// host is shared: the minimum is the run least disturbed by neighbours).
// The dataflow row also carries deterministic work counters from
// analysis::ir::DataflowStats — sampled environments, kernel-body walks
// and expression evaluations — which are the same on any host.
//
// Output: a table on stdout plus one JSON row per (kernel, device, layer)
// and one per layer summed over all of them (kernel and device "all": a
// single row's time is often below the perf gate's noise floor, the sum
// is not), appended to BENCH_verify.json in the working directory.
//
//   --json <file>   write rows there instead, truncating first (the
//                   perf-gate baseline wants a fresh file per run)
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/ir/dataflow.hpp"
#include "analysis/ir/lower.hpp"
#include "core/framework.hpp"
#include "core/verify.hpp"
#include "fpga/device.hpp"
#include "stencil/kernels.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

/// Timed runs per layer; BENCH_verify.json holds min-of-5 rows.
constexpr int kReps = 5;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Minimum thread-CPU seconds of kReps calls of `fn`.
template <typename Fn>
double min_cpu_seconds(Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kReps; ++r) {
    const double start = thread_cpu_seconds();
    fn();
    best = std::min(best, thread_cpu_seconds() - start);
  }
  return best;
}

struct LayerRow {
  const char* layer;
  double cpu_seconds = 0.0;
  const scl::analysis::ir::DataflowStats* counters = nullptr;
};

std::string json_row(const std::string& kernel, const std::string& device,
                     const LayerRow& row) {
  std::string counters;
  if (row.counters != nullptr) {
    counters = scl::str_cat(",\"environments\":", row.counters->environments,
                            ",\"walks\":", row.counters->walks,
                            ",\"expressions\":", row.counters->expressions);
  }
  return scl::str_cat(
      "{\"bench\":\"verify\",\"kernel\":\"", kernel, "\",\"device\":\"",
      device, "\",\"layer\":\"", row.layer, "\",\"cpu_ms\":",
      scl::format_fixed(row.cpu_seconds * 1e3, 3), ",\"cpu_seconds\":",
      scl::format_fixed(row.cpu_seconds, 6), counters, "}");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_verify [--json <file>]\n";
      return 2;
    }
  }

  std::cout << "==== Verification cost per layer (min of " << kReps
            << " thread-CPU runs) ====\n\n";
  scl::TableWriter table({"Benchmark", "Device", "Lower (ms)",
                          "Dataflow (ms)", "Passes 1-3 (ms)", "Envs",
                          "Walks", "Exprs"});
  std::ofstream json(json_path.empty() ? "BENCH_verify.json" : json_path,
                     json_path.empty() ? std::ios::app : std::ios::trunc);

  double totals[3] = {0.0, 0.0, 0.0};
  for (const char* device_name : {"xc7vx690t", "xcu280"}) {
    for (const scl::stencil::BenchmarkInfo& info :
         scl::stencil::paper_benchmarks()) {
      const scl::stencil::StencilProgram program = info.make_paper_scale();
      scl::core::FrameworkOptions options;
      options.optimizer.device = scl::fpga::find_device(device_name);
      options.simulate = false;
      options.analyze = false;
      const scl::core::SynthesisReport report =
          scl::core::Framework(program, options).synthesize();
      const scl::sim::DesignConfig& emitted = report.selected().config;
      const std::string& source = report.code.kernel_source;

      const double lower_s = min_cpu_seconds([&] {
        (void)scl::analysis::ir::lower_kernel_source(source);
      });
      const scl::analysis::ir::Module module =
          scl::analysis::ir::lower_kernel_source(source);
      const scl::analysis::ir::IrContext ctx =
          scl::analysis::ir::make_ir_context(program, emitted);
      scl::analysis::ir::DataflowStats counters;
      const double dataflow_s = min_cpu_seconds([&] {
        scl::support::DiagnosticEngine diags;
        counters = {};
        scl::analysis::ir::analyze_module(module, ctx, &diags, &counters);
      });
      const double design_s = min_cpu_seconds([&] {
        (void)scl::core::verify_design(program, report.baseline.config,
                                       report.device,
                                       report.baseline.resources);
        (void)scl::core::verify_design(program, report.heterogeneous.config,
                                       report.device,
                                       report.heterogeneous.resources);
        if (report.temporal) {
          (void)scl::core::verify_design(program, report.temporal->config,
                                         report.device,
                                         report.temporal->resources);
        }
      });

      totals[0] += lower_s;
      totals[1] += dataflow_s;
      totals[2] += design_s;
      table.add_row({info.name, device_name,
                     scl::format_fixed(lower_s * 1e3, 2),
                     scl::format_fixed(dataflow_s * 1e3, 2),
                     scl::format_fixed(design_s * 1e3, 2),
                     scl::str_cat(counters.environments),
                     scl::str_cat(counters.walks),
                     scl::str_cat(counters.expressions)});
      if (json) {
        for (const LayerRow& row :
             {LayerRow{"lower", lower_s}, LayerRow{"dataflow", dataflow_s,
                                                    &counters},
              LayerRow{"design", design_s}}) {
          json << json_row(info.name, device_name, row) << "\n";
        }
      }
    }
  }
  if (json) {
    for (const LayerRow& row : {LayerRow{"lower", totals[0]},
                                LayerRow{"dataflow", totals[1]},
                                LayerRow{"design", totals[2]}}) {
      json << json_row("all", "all", row) << "\n";
    }
  }
  table.add_row({"all", "all", scl::format_fixed(totals[0] * 1e3, 2),
                 scl::format_fixed(totals[1] * 1e3, 2),
                 scl::format_fixed(totals[2] * 1e3, 2), "", "", ""});
  std::cout << table.to_text() << "\n";
  return 0;
}
