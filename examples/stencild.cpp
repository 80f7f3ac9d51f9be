// stencild: synthesis driver over the serving subsystem. Two modes:
//
// Batch (default):
//   stencild [--suite | --jobs <manifest.jsonl>] [options]
//
//   --suite               enqueue the 7 paper benchmarks (default when no
//                         --jobs is given)
//   --jobs <file.jsonl>   JSONL job manifest, one job object per line:
//                           {"benchmark": "Jacobi-2D"}
//                           {"stencil": "examples/highorder.stencil"}
//                           {"benchmark": "Jacobi-1D",
//                            "grid": [4096], "iterations": 512,
//                            "priority": 2, "timeout_ms": 60000}
//   --emit <dir>          write each job's generated sources under
//                         <dir>/<name>/
//   --require-warm        exit 1 unless every job was served from the
//                         artifact store (CI uses this to assert a warm
//                         second pass)
//   --quiet               suppress per-job lines
//
// Daemon (--listen):
//   stencild --listen <socket> [options]
//
//   Serves newline-delimited JSON requests (serve/wire.hpp) over a
//   Unix-domain socket until SIGTERM/SIGINT, then drains: in-flight and
//   queued *accepted* requests still get their responses before exit.
//   Exit status 0 iff the drain completed inside --drain-timeout.
//
//   --drain-timeout <ms>      bound on the graceful drain (default 10000)
//   --max-connections <n>     concurrent client connections (default 64)
//   --max-queue <n>           admitted-but-unanswered bound before
//                             load-shedding (default 256)
//   --tenant-max-inflight <n> per-tenant concurrency quota (default 64)
//   --tenant-rate <r>         per-tenant admits/second; 0 disables
//   --tenant-burst <n>        token-bucket burst size (default 8)
//
// Shared options:
//   --store <dir>         artifact-store root (default .stencild-store)
//   --no-store            disable persistence (coalescing still applies)
//   --capacity-mb <n>     on-disk size bound before LRU eviction
//   --mem-cache-mb <n>    hot in-memory artifact tier bound (default 64;
//                         0 disables)
//   --threads <n>         concurrent synthesis workers (default:
//                         SCL_THREADS, then hardware concurrency)
//   --device <name>       target device for every job
//   --stats-json <file>   write service counters as JSON; in daemon mode
//                         written on *every* exit path (drain, fatal
//                         socket error, exception)
//   --metrics-out <file>  enable observability; write the Prometheus-
//                         style exposition (same every-exit-path
//                         guarantee in daemon mode)
//
// Every job is content-addressed: identical (program, device, options)
// requests are served from the tiered artifact store (memory, then
// disk), and identical concurrent requests coalesce onto one
// synthesis.
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "fpga/device.hpp"
#include "serve/daemon.hpp"
#include "serve/service.hpp"
#include "stencil/kernels.hpp"
#include "stencil/parser.hpp"
#include "support/json.hpp"
#include "support/observability/observability.hpp"
#include "support/shutdown.hpp"
#include "support/strings.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: stencild [--suite | --jobs <manifest.jsonl> | "
         "--listen <socket>]\n"
         "  [--store <dir>] [--no-store] "
         "[--capacity-mb <n>]\n"
         "  [--mem-cache-mb <n>] [--threads <n>] [--device <name>] "
         "[--emit <dir>]\n"
         "  [--stats-json <file>] [--metrics-out <file>] [--require-warm] "
         "[--quiet]\n"
         "  [--drain-timeout <ms>] [--max-connections <n>] "
         "[--max-queue <n>]\n"
         "  [--tenant-max-inflight <n>] [--tenant-rate <r>] "
         "[--tenant-burst <n>]\n";
  return 2;
}

std::vector<scl::serve::JobRequest> suite_jobs() {
  std::vector<scl::serve::JobRequest> jobs;
  for (const auto& info : scl::stencil::paper_benchmarks()) {
    scl::serve::JobRequest job;
    job.name = info.name;
    job.program = std::make_shared<scl::stencil::StencilProgram>(
        info.make_paper_scale());
    jobs.push_back(std::move(job));
  }
  return jobs;
}

scl::serve::JobRequest manifest_job(const scl::support::JsonValue& entry,
                                    int line_number) {
  using scl::Error;
  if (!entry.is_object()) {
    throw Error(scl::str_cat("manifest line ", line_number,
                             ": job must be a JSON object"));
  }
  scl::serve::JobRequest job;
  const std::string benchmark = entry.get_string("benchmark", "");
  const std::string stencil_path = entry.get_string("stencil", "");
  if (benchmark.empty() == stencil_path.empty()) {
    throw Error(scl::str_cat("manifest line ", line_number,
                             ": need exactly one of \"benchmark\" or "
                             "\"stencil\""));
  }
  if (!benchmark.empty()) {
    const auto& info = scl::stencil::find_benchmark(benchmark);
    std::array<std::int64_t, 3> extents = info.input_size;
    std::int64_t iterations =
        entry.get_int64("iterations", info.iterations);
    if (const auto* grid = entry.find("grid")) {
      if (grid->size() == 0 || grid->size() > 3) {
        throw Error(scl::str_cat("manifest line ", line_number,
                                 ": \"grid\" needs 1..3 extents"));
      }
      extents = {1, 1, 1};
      for (std::size_t d = 0; d < grid->size(); ++d) {
        extents[d] = (*grid)[d].as_int64();
      }
    }
    job.name = benchmark;
    job.program = std::make_shared<scl::stencil::StencilProgram>(
        info.make_scaled(extents, iterations));
  } else {
    job.name = std::filesystem::path(stencil_path).stem().string();
    job.program = std::make_shared<scl::stencil::StencilProgram>(
        scl::stencil::parse_program_file(stencil_path));
  }
  job.priority = static_cast<int>(entry.get_int64("priority", 0));
  job.timeout =
      std::chrono::milliseconds(entry.get_int64("timeout_ms", 0));
  return job;
}

std::vector<scl::serve::JobRequest> manifest_jobs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw scl::Error("cannot open manifest '" + path + "'");
  std::vector<scl::serve::JobRequest> jobs;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = scl::trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    jobs.push_back(
        manifest_job(scl::support::JsonValue::parse(trimmed), line_number));
  }
  if (jobs.empty()) {
    throw scl::Error("manifest '" + path + "' contains no jobs");
  }
  return jobs;
}

void emit_sources(const std::string& dir,
                  const scl::serve::JobResult& result) {
  const std::filesystem::path out_dir =
      std::filesystem::path(dir) / result.name;
  std::filesystem::create_directories(out_dir);
  std::ofstream(out_dir / "stencil_kernels.cl")
      << result.artifact->code.kernel_source;
  std::ofstream(out_dir / "stencil_host.cpp")
      << result.artifact->code.host_source;
  std::ofstream(out_dir / "build.sh") << result.artifact->code.build_script;
  std::ofstream(out_dir / "report.md") << result.artifact->markdown_report;
}

/// Flushes --stats-json / --metrics-out in its destructor, so daemon mode
/// writes them on every exit path: clean SIGTERM drain, fatal socket
/// errors, and exceptions unwinding out of run().
class StatsFlusher {
 public:
  StatsFlusher(std::string stats_path, std::string metrics_path)
      : stats_path_(std::move(stats_path)),
        metrics_path_(std::move(metrics_path)) {}

  StatsFlusher(const StatsFlusher&) = delete;
  StatsFlusher& operator=(const StatsFlusher&) = delete;

  void attach(const scl::serve::Daemon* daemon) { daemon_ = daemon; }

  ~StatsFlusher() { flush(); }

  void flush() noexcept {
    try {
      if (daemon_ == nullptr) return;
      if (!stats_path_.empty()) {
        std::ofstream(stats_path_) << daemon_->render_stats_json() << "\n";
      }
      if (!metrics_path_.empty()) {
        std::ofstream out(metrics_path_);
        out << daemon_->render_metrics_exposition();
        out << scl::support::obs::metrics().render_exposition();
      }
      daemon_ = nullptr;  // one flush; run() may also call this early
    } catch (...) {
      // Flushing is best-effort by design: never turn a clean drain into
      // a crash because the stats file was unwritable.
    }
  }

 private:
  std::string stats_path_;
  std::string metrics_path_;
  const scl::serve::Daemon* daemon_ = nullptr;
};

struct DaemonCliOptions {
  std::string socket_path;
  std::int64_t drain_timeout_ms = 10000;
  int max_connections = 64;
  std::int64_t max_queue = 256;
  int tenant_max_inflight = 64;
  double tenant_rate = 0.0;
  double tenant_burst = 8.0;
};

int run_daemon(const DaemonCliOptions& cli,
               scl::serve::ServiceOptions service_options,
               const std::string& stats_json_path,
               const std::string& metrics_out) {
  scl::serve::DaemonOptions options;
  options.socket_path = cli.socket_path;
  options.drain_timeout = std::chrono::milliseconds(cli.drain_timeout_ms);
  options.max_connections = cli.max_connections;
  options.admission.max_queue_depth = cli.max_queue;
  options.admission.default_quota.max_in_flight = cli.tenant_max_inflight;
  options.admission.default_quota.rate_per_sec = cli.tenant_rate;
  options.admission.default_quota.burst = cli.tenant_burst;
  options.service = std::move(service_options);

  scl::support::ShutdownLatch::install({SIGTERM, SIGINT});
  scl::support::ShutdownLatch& latch =
      scl::support::ShutdownLatch::instance();

  StatsFlusher flusher(stats_json_path, metrics_out);
  scl::serve::Daemon daemon(std::move(options));
  flusher.attach(&daemon);
  const int exit_code = daemon.run(latch);
  flusher.flush();  // flush explicitly so the summary below sees files
  const scl::serve::DaemonStats stats = daemon.stats();
  std::cerr << "stencild: " << stats.responses << " response(s), "
            << stats.admitted << " admitted, " << stats.shed << " shed, "
            << stats.quota_rejected << " quota-rejected, "
            << (stats.drained_clean ? "clean drain" : "FORCED drain")
            << "\n";
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  bool suite = false;
  bool no_store = false;
  bool require_warm = false;
  bool quiet = false;
  std::string store_dir = ".stencild-store";
  std::string device_name;
  std::string emit_dir;
  std::string stats_json_path;
  std::string metrics_out;
  std::int64_t capacity_mb =
      scl::serve::kDefaultDiskCapacityBytes / (1024 * 1024);
  std::int64_t mem_cache_mb =
      scl::serve::kDefaultMemoryCapacityBytes / (1024 * 1024);
  int threads = 0;
  DaemonCliOptions daemon_cli;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (++i >= argc) {
        std::exit(usage());
      }
      return argv[i];
    };
    if (arg == "--suite") {
      suite = true;
    } else if (arg == "--jobs") {
      manifest_path = next();
    } else if (arg == "--listen") {
      daemon_cli.socket_path = next();
    } else if (arg == "--drain-timeout") {
      daemon_cli.drain_timeout_ms = std::stoll(next());
    } else if (arg == "--max-connections") {
      daemon_cli.max_connections = std::stoi(next());
    } else if (arg == "--max-queue") {
      daemon_cli.max_queue = std::stoll(next());
    } else if (arg == "--tenant-max-inflight") {
      daemon_cli.tenant_max_inflight = std::stoi(next());
    } else if (arg == "--tenant-rate") {
      daemon_cli.tenant_rate = std::stod(next());
    } else if (arg == "--tenant-burst") {
      daemon_cli.tenant_burst = std::stod(next());
    } else if (arg == "--store") {
      store_dir = next();
    } else if (arg == "--no-store") {
      no_store = true;
    } else if (arg == "--capacity-mb") {
      capacity_mb = std::stoll(next());
    } else if (arg == "--mem-cache-mb") {
      mem_cache_mb = std::stoll(next());
    } else if (arg == "--threads") {
      threads = std::stoi(next());
    } else if (arg == "--device") {
      device_name = next();
    } else if (arg == "--emit") {
      emit_dir = next();
    } else if (arg == "--stats-json") {
      stats_json_path = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::string("--metrics-out=").size());
      if (metrics_out.empty()) return usage();
    } else if (arg == "--require-warm") {
      require_warm = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return usage();
    }
  }
  const bool daemon_mode = !daemon_cli.socket_path.empty();
  if (suite && !manifest_path.empty()) return usage();
  if (daemon_mode && (suite || !manifest_path.empty() || require_warm ||
                      !emit_dir.empty())) {
    return usage();
  }
  if (!metrics_out.empty()) scl::support::obs::set_enabled(true);

  try {
    scl::serve::ServiceOptions options;
    options.store_dir = no_store ? "" : store_dir;
    options.store_capacity_bytes = capacity_mb * 1024 * 1024;
    options.memory_cache_bytes = mem_cache_mb * 1024 * 1024;
    options.threads = threads;
    if (!device_name.empty()) {
      options.framework.optimizer.device =
          scl::fpga::find_device(device_name);
    }

    if (daemon_mode) {
      return run_daemon(daemon_cli, std::move(options), stats_json_path,
                        metrics_out);
    }

    const std::vector<scl::serve::JobRequest> jobs =
        manifest_path.empty() ? suite_jobs() : manifest_jobs(manifest_path);

    scl::serve::SynthesisService service(options);
    const std::vector<scl::serve::JobResult> results =
        service.run_batch(jobs);

    int failures = 0;
    int cold = 0;
    for (const scl::serve::JobResult& result : results) {
      const char* status = !result.ok          ? "FAIL"
                           : result.from_cache ? "warm"
                           : result.coalesced  ? "coal"
                                               : "cold";
      if (!result.ok) ++failures;
      if (result.ok && !result.from_cache) ++cold;
      if (!quiet) {
        std::ostringstream line;
        line << "[" << status << "] " << result.name;
        if (!result.key.empty()) {
          line << "  key=" << result.key.substr(0, 12);
        }
        if (result.ok) {
          line << "  speedup " << scl::format_speedup(
                      result.artifact->speedup)
               << "  " << scl::format_fixed(result.latency_ms, 1) << " ms";
        } else {
          line << "  error: " << result.error;
        }
        std::cout << line.str() << "\n";
      }
      if (result.ok && !emit_dir.empty()) emit_sources(emit_dir, result);
    }

    if (!quiet) std::cout << "\n" << service.stats().to_string();
    if (!stats_json_path.empty()) {
      std::ofstream(stats_json_path) << service.render_stats_json() << "\n";
    }
    if (!metrics_out.empty()) {
      // Service-local registry first, then the process-global pipeline
      // metrics (populated because observability was switched on above).
      std::ofstream out(metrics_out);
      out << service.render_metrics_exposition();
      out << scl::support::obs::metrics().render_exposition();
      std::cerr << "wrote metrics " << metrics_out << "\n";
    }

    if (failures > 0) return 1;
    if (require_warm && cold > 0) {
      std::cerr << "error: --require-warm, but " << cold
                << " job(s) missed the artifact store\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
