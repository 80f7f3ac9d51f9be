// perfbench_e2e: the gated end-to-end numbers of one workload.
//
// Every workload drives an in-process serve::Daemon over its Unix socket
// with one WireClient connection in a closed loop (the next request is
// sent when the previous response arrived), one synthesis worker, one
// DSE thread and tracing off. The work of a run depends only on the
// workload, --seed and --seconds, never on how many requests fit in a
// time window. The first pass is a discarded warm-up; every timing metric
// aggregates all timed requests of the run.
//
//   perfbench_e2e --workload cold_paper|cold_small|serve_warm
//                 --seed <n> --seconds <s>
#include <sys/resource.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "fpga/device.hpp"
#include "serve/serialize.hpp"
#include "sim/executor.hpp"
#include "stencil/geometry.hpp"
#include "stencil/reference.hpp"
#include "support/error.hpp"

namespace {

using perfbench::Checks;
using perfbench::Clock;
using perfbench::Item;
using perfbench::Metric;

/// Daemon starts per run for setup_s.
constexpr int kSetupStarts = 1000;

/// Everything the run measured.
struct Measured {
  std::vector<double> setups_s;
  perfbench::Drive drive;
  std::vector<double> latencies_ms;
  std::map<std::string, std::vector<double>> by_item;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t memory_hits = 0;
  double peak_rss_mb = 0.0;  ///< taken when the timed phase ends
  std::vector<perfbench::DesignFacts> designs;

  void record(const Item& item, const perfbench::Reply& reply, bool timed) {
    if (!timed) return;
    by_item[item.label].push_back(reply.client_ms);
    ++attempted;
    if (!reply.response.ok()) ++failed;
    latencies_ms.push_back(reply.client_ms);
    if (reply.response.from_memory) ++memory_hits;
  }
};

/// Bit-exact comparison of the emitted design's functional simulation
/// against the golden reference executor.
bool functional_matches(const Item& item,
                        const scl::serve::SynthesisArtifact& artifact) {
  const perfbench::DesignFacts facts = perfbench::design_facts(artifact);
  const scl::sim::DesignConfig& config =
      facts.temporal ? artifact.temporal->config
                     : artifact.heterogeneous.config;
  const scl::stencil::StencilProgram& program = *item.program;
  const scl::sim::Executor exec(scl::fpga::find_device(item.device));
  const scl::sim::SimResult result =
      exec.run(program, config, scl::sim::SimMode::kFunctional);
  if (!result.fields) return false;
  scl::stencil::ReferenceExecutor reference(program);
  reference.run(program.iterations());
  std::int64_t mismatches = 0;
  for (int f = 0; f < program.field_count(); ++f) {
    const auto& got = (*result.fields)[static_cast<std::size_t>(f)];
    const auto& want = reference.field(f);
    scl::stencil::for_each_cell(
        program.grid_box(), [&](const scl::stencil::Index& p) {
          const float a = got.at(p);
          const float b = want.at(p);
          if (std::memcmp(&a, &b, sizeof a) != 0) ++mismatches;
        });
  }
  return mismatches == 0;
}

/// Small enough for a functional simulation in well under a second.
bool functional_size(const scl::stencil::StencilProgram& program) {
  static constexpr std::int64_t kMaxCells[] = {0, 8192, 128 * 128,
                                               32 * 32 * 32};
  return program.grid_box().volume() <= kMaxCells[program.dims()] &&
         program.iterations() <= 64;
}

/// Untimed, after the timed phase: a seeded subset of the small-grid
/// designs, up to three per design family, must simulate bit-exactly.
void check_functional(Checks* checks, std::uint64_t seed,
                      const std::vector<Item>& items,
                      const std::map<std::string, std::string>& payloads) {
  int checked[2] = {0, 0};
  for (const int i : perfbench::permutation(seed ^ 0xf00dULL,
                                            static_cast<int>(items.size()))) {
    const Item& item = items[static_cast<std::size_t>(i)];
    if (!functional_size(*item.program)) continue;
    const scl::serve::SynthesisArtifact artifact =
        scl::serve::parse_artifact(payloads.at(item.key));
    const int family = perfbench::design_facts(artifact).temporal ? 1 : 0;
    if (checked[family] >= 3) continue;
    ++checked[family];
    checks->expect(functional_matches(item, artifact),
                   item.label + ": functional simulation differs from the "
                                "reference executor");
  }
  checks->expect(checked[0] > 0 && checked[1] > 0,
                 "functional check did not cover both design families");
  std::cerr << "perfbench: functional check: " << checked[0]
            << " pipe-tiling and " << checked[1]
            << " temporal design(s) bit-exact\n";
}

/// Reads back every design the run emitted; the artifact must be clean.
void collect_designs(Checks* checks, const std::vector<Item>& items,
                     const std::map<std::string, std::string>& payloads,
                     Measured* measured) {
  for (const Item& item : items) {
    const scl::serve::SynthesisArtifact artifact =
        scl::serve::parse_artifact(payloads.at(item.key));
    const perfbench::DesignFacts facts = perfbench::design_facts(artifact);
    checks->expect(artifact.key == item.key, item.label + ": artifact key");
    checks->expect(facts.error_diagnostics == 0,
                   item.label + ": error diagnostics in the artifact");
    checks->expect(facts.simulated_cycles > 0,
                   item.label + ": emitted design was not simulated");
    measured->designs.push_back(facts);
  }
}

/// setup_s: daemon starts (construction + start() + connect, then a clean
/// drain) back to back, alternating over `devices`, on `store` with a
/// memory tier of `memory_bytes` (0: the default). They run before the
/// workload's first request, in a process that has done nothing else yet,
/// as a stencild start does. Interleaved with the requests, or after a
/// pause, a start costs 2-5x more and varies with what ran before it
/// (cold caches, idle vCPUs), not with the set-up work itself.
std::vector<double> sample_setup(const perfbench::ScratchDir& dir,
                                 const std::vector<std::string>& devices,
                                 const std::string& store,
                                 std::int64_t memory_bytes) {
  std::vector<double> setups_s;
  for (int i = 0; i < kSetupStarts; ++i) {
    perfbench::Session session(perfbench::daemon_options(
        devices[static_cast<std::size_t>(i) % devices.size()], store,
        dir.sub("setup.sock"), memory_bytes));
    setups_s.push_back(session.setup_seconds());
    session.close();
  }
  return setups_s;
}

/// An artifact with its content address and seeded name tag masked: the
/// artifacts of one item from different passes must then be equal.
std::string canonical_artifact(const Item& item, std::string bytes) {
  for (const std::string* token : {&item.key, &item.tag}) {
    const std::string mask(token->size(), '*');
    for (std::size_t at = bytes.find(*token); at != std::string::npos;
         at = bytes.find(*token, at + mask.size())) {
      bytes.replace(at, mask.size(), mask);
    }
  }
  return bytes;
}

using MakeItems = std::vector<Item> (*)(std::uint64_t seed, int pass);

/// cold_paper and cold_small: one daemon per device serves every pass;
/// each pass sends every item under a new name, so every request is a
/// store miss that persists its artifact.
Measured run_cold(const perfbench::Args& args, MakeItems make,
                  int timed_passes, bool functional, Checks* checks) {
  const perfbench::ScratchDir dir(std::string(perfbench::kWorkDir) +
                                  "/e2e-" + std::to_string(::getpid()));
  std::vector<std::vector<Item>> passes;
  for (int pass = 0; pass <= timed_passes; ++pass) {
    passes.push_back(make(args.seed, pass));
  }
  Measured m;
  m.setups_s = sample_setup(dir, perfbench::devices_of(passes.front()),
                            dir.sub("setup"), 0);
  m.drive = perfbench::drive_cold(
      dir, passes,
      [&](const Item& item, const perfbench::Reply& reply, bool timed) {
        m.record(item, reply, timed);
        perfbench::check_reply(checks, item, reply, /*expect_cached=*/false);
      });
  m.peak_rss_mb = perfbench::peak_rss_mb();

  // Untimed: every pass's artifacts, read back from the stores, must be
  // those of pass 0 up to the name and content address.
  const std::vector<Item>& first = passes.front();
  std::map<std::string, std::string> first_bytes;
  std::vector<std::string> first_canonical;
  for (const std::vector<Item>& pass : passes) {
    std::map<std::string, std::string> bytes;
    for (const auto& [device, store] : m.drive.stores) {
      std::vector<std::string> keys;
      for (const Item& item : pass) {
        if (item.device == device) keys.push_back(item.key);
      }
      bytes.merge(perfbench::read_artifacts(store, keys));
    }
    for (std::size_t i = 0; i < pass.size(); ++i) {
      const std::string canonical =
          canonical_artifact(pass[i], bytes.at(pass[i].key));
      if (&pass == &first) {
        first_canonical.push_back(canonical);
        first_bytes[pass[i].key] = bytes.at(pass[i].key);
      } else {
        checks->expect(canonical == first_canonical[i],
                       pass[i].label + ": artifact differs between passes");
      }
    }
  }
  collect_designs(checks, first, first_bytes, &m);
  if (functional) check_functional(checks, args.seed, first, first_bytes);
  return m;
}

/// serve_warm: a catalog synthesized before timing (in a child process),
/// then a seeded Zipf replay against one daemon on that store, whose
/// memory tier holds about half of the catalog.
Measured run_warm(const perfbench::Args& args, int timed_segments,
                  std::size_t segment_requests, Checks* checks) {
  const perfbench::ScratchDir dir(std::string(perfbench::kWorkDir) +
                                  "/e2e-" + std::to_string(::getpid()));
  const std::string store = dir.sub("store");
  const std::vector<Item> catalog = perfbench::warm_catalog_items(args.seed);
  checks->expect(perfbench::populate_catalog(dir, store, args.seed, catalog),
                 "catalog synthesis failed its checks");
  std::vector<std::string> keys;
  for (const Item& item : catalog) keys.push_back(item.key);
  const std::map<std::string, std::string> cold_bytes =
      perfbench::read_artifacts(store, keys);
  std::int64_t catalog_bytes = 0;
  std::map<std::string, double> speedups;
  for (const auto& [key, bytes] : cold_bytes) {
    catalog_bytes += static_cast<std::int64_t>(key.size() + bytes.size());
    speedups[key] = scl::serve::parse_artifact(bytes).speedup;
  }

  const std::vector<int> draws = perfbench::zipf_sequence(
      args.seed, static_cast<int>(catalog.size()),
      segment_requests * static_cast<std::size_t>(timed_segments + 1));
  std::vector<std::vector<int>> segments;
  for (std::size_t at = 0; at < draws.size(); at += segment_requests) {
    segments.emplace_back(draws.begin() + static_cast<std::ptrdiff_t>(at),
                          draws.begin() + static_cast<std::ptrdiff_t>(
                                              at + segment_requests));
  }
  Measured m;
  m.setups_s =
      sample_setup(dir, {perfbench::kDdrDevice}, store, catalog_bytes / 2);
  m.drive = perfbench::drive_warm(
      dir, store, catalog_bytes / 2, catalog, segments,
      [&](const Item& item, const perfbench::Reply& reply, bool timed) {
        m.record(item, reply, timed);
        perfbench::check_reply(checks, item, reply, /*expect_cached=*/true);
        checks->expect(
            !reply.response.ok() ||
                reply.response.speedup == speedups.at(item.key),
            item.label + ": warm read disagrees with the cold write");
      });
  m.peak_rss_mb = perfbench::peak_rss_mb();
  for (const auto& [key, bytes] : perfbench::read_artifacts(store, keys)) {
    checks->expect(bytes == cold_bytes.at(key),
                   "artifact " + key + " changed after warm reads");
  }
  collect_designs(checks, catalog, cold_bytes, &m);
  return m;
}

/// Fixed amount of work per run, scaled by --seconds and never by the
/// clock: passes of the cold workloads, segments of serve_warm.
int repetitions(int seconds, double nominal_seconds_each) {
  return std::max(1, static_cast<int>(std::lround(seconds /
                                                  nominal_seconds_each)));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    Checks checks;
    Measured m;
    if (args.workload == "cold_paper") {
      m = run_cold(args, perfbench::cold_paper_items,
                   repetitions(args.seconds, 1.7), false, &checks);
    } else if (args.workload == "cold_small") {
      m = run_cold(args, perfbench::small_grid_items,
                   repetitions(args.seconds, 1.45), true, &checks);
    } else if (args.workload == "serve_warm") {
      m = run_warm(args, repetitions(args.seconds, 2.4), 6000, &checks);
    } else {
      throw scl::Error("unknown workload '" + args.workload + "'");
    }

    const perfbench::QualityMetrics quality =
        perfbench::quality_metrics(m.designs);
    const auto requests = static_cast<double>(m.attempted);
    std::vector<Metric> metrics = {
        {"setup_s", perfbench::median(m.setups_s), "s"},
        {"latency_ms_p50", perfbench::percentile(m.latencies_ms, 0.50), "ms"},
        {"latency_ms_p90", perfbench::percentile(m.latencies_ms, 0.90), "ms"},
        {"requests_per_s", requests / (m.drive.wall_ms / 1000.0), "1/s"},
        {"cpu_ms_per_request", 1000.0 * m.drive.cpu_s / requests, "ms"},
        {"peak_rss_mb", m.peak_rss_mb, "MB"},
        {"design_cycles_geomean", quality.cycles_geomean, "cycles"},
        {"model_error_pct", quality.model_error_pct, "%"},
        {"code_kb_mean", quality.code_kb_mean, "KB"},
    };
    rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    std::cerr << "perfbench: " << m.attempted << " timed request(s), "
              << m.setups_s.size() << " daemon start(s), memory hits "
              << m.memory_hits << "; process user "
              << usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6
              << " s, system "
              << usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6
              << " s, minor faults " << usage.ru_minflt << "\n";
    if (args.workload != "serve_warm") {
      std::cerr << "perfbench: median latency per item:\n";
      for (const auto& [label, samples] : m.by_item) {
        std::cerr << "  " << label << " " << perfbench::median(samples)
                  << " ms\n";
      }
    }
    // Not in the result object: failed_pct is 0 on a healthy run, and p99
    // has fewer than ten samples beyond it on the cold workloads.
    const std::vector<Metric> reported = {
        {"failed_pct", 100.0 * static_cast<double>(m.failed) / requests, "%"},
        {"latency_ms_p99", perfbench::percentile(m.latencies_ms, 0.99), "ms"},
    };
    perfbench::print_result(args.workload, checks.ok(), m.attempted, m.failed,
                            metrics, reported);
    return checks.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << "\n";
    return 1;
  }
}
