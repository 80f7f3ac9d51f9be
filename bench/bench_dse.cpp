// Design-space-exploration speed: searches/sec, candidates evaluated and
// lower bounds computed by the full DSE.
//
// For every benchmark of Table 2 at the paper's input scale, runs the
// full DSE across both design families — the pipe-tiling searches
// (baseline + heterogeneous under the baseline's budget) and the
// temporal-blocked shift-register search. Each family gets one row, a
// search on a fresh optimizer; its cache_hit_rate is the share of walked
// candidates Phase B reused from the seed batches.
//
// Before any timing is trusted, every search's design — in both families
// — is asserted bit-identical to the exhaustive oracle,
// select_best(explore(space)) (the determinism contract).
//
// An HBM device leg then runs one cold DSE per multi-bank part (xcu280,
// s10mx) per benchmark: those devices open the spatial-replication axis
// (R PE copies on disjoint bank groups), so their candidate spaces — and
// throughputs — differ from the DDR rows above. Their JSON rows carry a
// "device" field, which the perf gate folds into the key and treats as
// load-bearing: a vanished device row fails CI even at sub-floor wall
// times.
//
// Wall time covers each whole search — bounding, seeding and evaluation
// — so searches_per_sec (1 / wall_seconds) credits a search that
// evaluates fewer candidates instead of counting evaluated candidates as
// throughput.
//
// Output: a human-readable table on stdout plus one JSON row per
// (kernel, family[, device]), all "mode":"cold", appended to
// BENCH_dse.json in the working directory, for the benchmark trajectory.
//
//   --json <file>      write rows there instead, truncating first (the
//                      perf-gate baselines want a fresh file per run)
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "fpga/device.hpp"
#include "stencil/kernels.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

struct DseRun {
  scl::core::DesignPoint baseline;
  scl::core::DesignPoint heterogeneous;
  scl::core::DesignPoint temporal;
  scl::core::DseStats spatial_stats;   // baseline + heterogeneous searches
  scl::core::DseStats temporal_stats;  // temporal cascade search
};

scl::core::DseStats diff(const scl::core::DseStats& after,
                         const scl::core::DseStats& before) {
  scl::core::DseStats d = after;
  d.candidates_evaluated -= before.candidates_evaluated;
  d.candidates_pruned -= before.candidates_pruned;
  d.candidates_bounded -= before.candidates_bounded;
  d.cache_hits -= before.cache_hits;
  d.cache_misses -= before.cache_misses;
  d.wall_seconds -= before.wall_seconds;
  return d;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One full DSE on a fresh `optimizer` — both families — with the stats
/// split per family and each family's whole-search wall time. On banked
/// parts the baseline winner may spend the whole BRAM budget on spatial
/// replication, leaving no pipe redistribution inside the baseline cap;
/// the baseline then stands in as the pipe-tiling winner, matching
/// Framework::synthesize's fallback.
DseRun run_searches(const scl::core::Optimizer& optimizer) {
  scl::core::DseStats mark = optimizer.dse_stats();
  auto start = std::chrono::steady_clock::now();
  DseRun run;
  run.baseline = optimizer.optimize_baseline();
  try {
    run.heterogeneous = optimizer.optimize_heterogeneous(run.baseline);
  } catch (const scl::ResourceError&) {
    run.heterogeneous = run.baseline;
  }
  run.spatial_stats = diff(optimizer.dse_stats(), mark);
  run.spatial_stats.wall_seconds = seconds_since(start);
  mark = optimizer.dse_stats();
  start = std::chrono::steady_clock::now();
  run.temporal = optimizer.optimize_temporal();
  run.temporal_stats = diff(optimizer.dse_stats(), mark);
  run.temporal_stats.wall_seconds = seconds_since(start);
  return run;
}

bool same_design(const scl::core::DesignPoint& a,
                 const scl::core::DesignPoint& b) {
  return a.config == b.config &&
         a.prediction.total_cycles == b.prediction.total_cycles;
}

/// True when every search of `run` chose the design the exhaustive
/// oracle, select_best(explore(space)), chooses on `optimizer`.
bool matches_oracle(const scl::core::Optimizer& optimizer,
                    const DseRun& run) {
  auto oracle = [&](const scl::core::SearchSpace& space) {
    const std::vector<scl::core::DesignPoint> feasible =
        optimizer.explore(space);
    return feasible.empty() ? std::optional<scl::core::DesignPoint>()
                            : scl::core::select_best(feasible);
  };
  const auto baseline = oracle(optimizer.baseline_space());
  const auto heterogeneous =
      oracle(optimizer.heterogeneous_space(run.baseline));
  const auto temporal = oracle(optimizer.temporal_space());
  return baseline && same_design(*baseline, run.baseline) &&
         same_design(heterogeneous.value_or(run.baseline),
                     run.heterogeneous) &&
         temporal && same_design(*temporal, run.temporal);
}

double searches_per_sec(const scl::core::DseStats& stats) {
  return stats.wall_seconds > 0.0 ? 1.0 / stats.wall_seconds : 0.0;
}

std::string json_row(const std::string& kernel, const char* family,
                     const scl::core::DseStats& stats,
                     const std::string& device = "", int replication = 0) {
  // Rows on the default device carry no "device" field so historical
  // perf-gate keys stay stable; device-tagged rows get a suffixed key
  // (and the gate fails hard when a tagged row vanishes).
  const std::string device_field =
      device.empty() ? std::string()
                     : scl::str_cat(",\"device\":\"", device, "\"");
  const std::string replication_field =
      replication > 0 ? scl::str_cat(",\"replication\":", replication)
                      : std::string();
  return scl::str_cat(
      "{\"bench\":\"dse\",\"kernel\":\"", kernel,
      "\",\"mode\":\"cold\",\"family\":\"", family, "\"", device_field,
      ",\"candidates\":", stats.candidates_evaluated,
      ",\"pruned\":", stats.candidates_pruned,
      ",\"bounded\":", stats.candidates_bounded,
      ",\"cache_hit_rate\":", scl::format_fixed(stats.cache_hit_rate(), 4),
      ",\"wall_seconds\":", scl::format_fixed(stats.wall_seconds, 4),
      ",\"searches_per_sec\":",
      scl::format_fixed(searches_per_sec(stats), 1),
      replication_field, "}");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_dse [--json <file>]\n";
      return 2;
    }
  }

  std::cout << "==== DSE throughput: candidate evaluation ====\n\n";
  scl::TableWriter table({"Benchmark", "Family", "Candidates",
                          "Pruned", "Bounded", "Cache hits", "Wall (s)",
                          "Searches/s"});
  std::ofstream json(json_path.empty() ? "BENCH_dse.json" : json_path,
                     json_path.empty() ? std::ios::app : std::ios::trunc);
  bool deterministic = true;

  for (const scl::stencil::BenchmarkInfo& info :
       scl::stencil::paper_benchmarks()) {
    const scl::stencil::StencilProgram program = info.make_paper_scale();

    const scl::core::OptimizerOptions options;
    const scl::core::Optimizer optimizer(program, options);
    DseRun cold;
    try {
      cold = run_searches(optimizer);
    } catch (const scl::Error& e) {
      std::cout << info.name << ": FAILED (" << e.what() << ")\n";
      continue;
    }
    // Branch-and-bound may only skip candidates that provably cannot
    // win, so the exhaustive oracle must choose the byte-identical
    // designs.
    if (!matches_oracle(optimizer, cold)) {
      std::cout << info.name
                << ": NONDETERMINISTIC — pruning changed the optimum\n";
      deterministic = false;
    }

    const struct {
      const char* family;
      const scl::core::DseStats* stats;
    } rows[] = {
        {"pipe-tiling", &cold.spatial_stats},
        {"temporal-shift", &cold.temporal_stats},
    };
    for (const auto& row : rows) {
      const scl::core::DseStats& stats = *row.stats;
      table.add_row(
          {info.name, row.family,
           std::to_string(stats.candidates_evaluated),
           std::to_string(stats.candidates_pruned),
           std::to_string(stats.candidates_bounded),
           scl::str_cat(scl::format_fixed(100.0 * stats.cache_hit_rate(), 1),
                        "%"),
           scl::format_fixed(stats.wall_seconds, 3),
           scl::format_fixed(searches_per_sec(stats), 1)});
      if (json) {
        json << json_row(info.name, row.family, stats) << "\n";
      }
    }
  }

  std::cout << table.to_text() << "\n";

  // HBM device leg: the replication axis (spatial PE copies on disjoint
  // bank groups) only opens on multi-bank parts, so every row above —
  // all on the default DDR board — leaves it unexercised. One cold DSE
  // per HBM part per benchmark pins the throughput of the widened space,
  // plus the replication factor each winner settled on.
  // These rows carry a "device" field; scripts/perf_gate.py folds it
  // into the key and fails hard when a tagged row goes missing.
  std::cout << "==== HBM device leg: replicated design spaces ====\n\n";
  scl::TableWriter hbm_table({"Benchmark", "Device", "Family", "Candidates",
                              "Pruned", "Bounded", "Wall (s)", "Searches/s",
                              "Winner R"});
  for (const char* device_name : {"xcu280", "s10mx"}) {
    for (const scl::stencil::BenchmarkInfo& info :
         scl::stencil::paper_benchmarks()) {
      const scl::stencil::StencilProgram program = info.make_paper_scale();
      scl::core::OptimizerOptions options;
      options.device = scl::fpga::find_device(device_name);
      const scl::core::Optimizer optimizer(program, options);
      DseRun cold;
      try {
        cold = run_searches(optimizer);
      } catch (const scl::Error& e) {
        std::cout << info.name << " on " << device_name << ": FAILED ("
                  << e.what() << ")\n";
        deterministic = false;
        continue;
      }
      // The determinism contract must hold on the widened space too.
      if (!matches_oracle(optimizer, cold)) {
        std::cout << info.name << " on " << device_name
                  << ": NONDETERMINISTIC — pruning changed the optimum\n";
        deterministic = false;
      }
      const struct {
        const char* family;
        const scl::core::DseStats* stats;
        int replication;
      } rows[] = {
          {"pipe-tiling", &cold.spatial_stats,
           cold.heterogeneous.config.replication},
          {"temporal-shift", &cold.temporal_stats,
           cold.temporal.config.replication},
      };
      for (const auto& row : rows) {
        const scl::core::DseStats& stats = *row.stats;
        hbm_table.add_row(
            {info.name, device_name, row.family,
             std::to_string(stats.candidates_evaluated),
             std::to_string(stats.candidates_pruned),
             std::to_string(stats.candidates_bounded),
             scl::format_fixed(stats.wall_seconds, 3),
             scl::format_fixed(searches_per_sec(stats), 1),
             std::to_string(row.replication)});
        if (json) {
          json << json_row(info.name, row.family, stats, device_name,
                           row.replication)
               << "\n";
        }
      }
    }
  }
  std::cout << hbm_table.to_text() << "\n";

  std::cout << (deterministic
                    ? "determinism: every search matched the exhaustive "
                      "oracle\n"
                    : "determinism: FAILED — see rows above\n")
            << "\nNotes: each row is one search on a fresh optimizer; cache\n"
               "hits are Phase-B walks that reused a seed batch's design.\n";
  return deterministic ? 0 : 1;
}
