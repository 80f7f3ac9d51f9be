// Timing-simulation cost per design: the sim layer of a cold synthesis.
//
// For every benchmark of Table 2 at the paper's input scale, on the DDR
// part (xc7vx690t) and the HBM part (xcu280), runs the DSE once (no
// simulation, no verification, no code) and then times the timing-only
// simulation of each selected design, exactly as a cold synthesis runs
// it: baseline, heterogeneous and (when one fits) temporal. Where no
// heterogeneous design fits, the heterogeneous row simulates the baseline
// design that stands in for it.
//
// Each row's time is the minimum thread-CPU time over kReps runs (the
// host is shared: the minimum is the run least disturbed by neighbours).
// Rows also carry deterministic work counters from sim::SimStats —
// simulated region passes, tile tasks, runtime steps and pipe write
// calls — which are the same on any host.
//
// Output: a table on stdout plus one JSON row per (kernel, device,
// family) and one summed over all of them (kernel, device and family
// "all": a single row's time is often below the perf gate's noise floor,
// the sum is not), appended to BENCH_sim.json in the working directory.
//
//   --json <file>   write rows there instead, truncating first (the
//                   perf-gate baseline wants a fresh file per run)
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "fpga/device.hpp"
#include "sim/executor.hpp"
#include "stencil/kernels.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

/// Timed runs per design; BENCH_sim.json holds min-of-5 rows.
constexpr int kReps = 5;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Row {
  double cpu_seconds = 0.0;
  scl::sim::SimStats stats;
};

std::string json_row(const std::string& kernel, const std::string& device,
                     const std::string& family, const Row& row) {
  return scl::str_cat(
      "{\"bench\":\"sim\",\"kernel\":\"", kernel, "\",\"device\":\"", device,
      "\",\"family\":\"", family, "\",\"cpu_ms\":",
      scl::format_fixed(row.cpu_seconds * 1e3, 3), ",\"cpu_seconds\":",
      scl::format_fixed(row.cpu_seconds, 6),
      ",\"regions\":", row.stats.regions,
      ",\"tile_tasks\":", row.stats.tile_tasks,
      ",\"steps\":", row.stats.runtime_steps,
      ",\"pipe_writes\":", row.stats.pipe_writes, "}");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_sim [--json <file>]\n";
      return 2;
    }
  }

  std::cout << "==== Timing simulation cost per design (min of " << kReps
            << " thread-CPU runs) ====\n\n";
  scl::TableWriter table({"Benchmark", "Device", "Family", "CPU (ms)",
                          "Regions", "Tasks", "Steps", "Pipe writes"});
  std::ofstream json(json_path.empty() ? "BENCH_sim.json" : json_path,
                     json_path.empty() ? std::ios::app : std::ios::trunc);

  Row total;
  for (const char* device_name : {"xc7vx690t", "xcu280"}) {
    for (const scl::stencil::BenchmarkInfo& info :
         scl::stencil::paper_benchmarks()) {
      const scl::stencil::StencilProgram program = info.make_paper_scale();
      scl::core::FrameworkOptions options;
      options.optimizer.device = scl::fpga::find_device(device_name);
      options.simulate = false;
      options.analyze = false;
      options.generate_code = false;
      const scl::core::SynthesisReport report =
          scl::core::Framework(program, options).synthesize();
      const scl::sim::Executor exec(report.device);

      std::vector<std::pair<const char*, const scl::sim::DesignConfig*>>
          designs = {{"baseline", &report.baseline.config},
                     {"heterogeneous", &report.heterogeneous.config}};
      if (report.temporal) {
        designs.emplace_back("temporal", &report.temporal->config);
      }
      for (const auto& [family, config] : designs) {
        Row row;
        row.cpu_seconds = std::numeric_limits<double>::infinity();
        for (int r = 0; r < kReps; ++r) {
          scl::sim::SimStats stats;
          const double start = thread_cpu_seconds();
          (void)exec.run(program, *config, scl::sim::SimMode::kTimingOnly,
                         &stats);
          row.cpu_seconds =
              std::min(row.cpu_seconds, thread_cpu_seconds() - start);
          row.stats = stats;
        }
        total.cpu_seconds += row.cpu_seconds;
        total.stats.regions += row.stats.regions;
        total.stats.tile_tasks += row.stats.tile_tasks;
        total.stats.runtime_steps += row.stats.runtime_steps;
        total.stats.pipe_writes += row.stats.pipe_writes;
        table.add_row({info.name, device_name, family,
                       scl::format_fixed(row.cpu_seconds * 1e3, 2),
                       scl::str_cat(row.stats.regions),
                       scl::str_cat(row.stats.tile_tasks),
                       scl::str_cat(row.stats.runtime_steps),
                       scl::str_cat(row.stats.pipe_writes)});
        if (json) json << json_row(info.name, device_name, family, row) << "\n";
      }
    }
  }
  if (json) json << json_row("all", "all", "all", total) << "\n";
  table.add_row({"all", "all", "all",
                 scl::format_fixed(total.cpu_seconds * 1e3, 2),
                 scl::str_cat(total.stats.regions),
                 scl::str_cat(total.stats.tile_tasks),
                 scl::str_cat(total.stats.runtime_steps),
                 scl::str_cat(total.stats.pipe_writes)});
  std::cout << table.to_text() << "\n";
  return 0;
}
