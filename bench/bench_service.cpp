// Batched-service benchmark: cold vs. warm synthesis over the paper's
// seven-benchmark suite (Table 2).
//
// Pass 1 synthesizes every benchmark into a fresh artifact store (cold).
// Pass 2 replays the identical batch against the same store (warm) and
// must be served entirely from disk. The run fails unless the warm pass
// is at least 10x faster than the cold pass.
//
// A third pass synthesizes the suite cold into a second, independent
// store directory and compares the on-disk artifacts byte-for-byte —
// enforcing the serving layer's determinism contract (same request, same
// bytes, run after run).
//
// A daemon-mode pass then runs the same suite over the wire: an
// in-process Daemon on a Unix socket, driven by WireClient with the
// seven requests pipelined on one connection. Cold and warm wall times
// are measured end-to-end through socket framing + admission + the
// response writer, and a final overload pass against a daemon with a
// queue depth of 2 must shed structured "shed" responses instead of
// stalling or dropping frames.
//
//   --json <file>   write the JSONL result rows (one batch row, one
//                   "mode":"daemon" row) for the perf-gate baselines
//   --threads <n>   synthesis worker count (default: SCL_THREADS, then
//                   hardware concurrency)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/daemon.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "stencil/kernels.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace fs = std::filesystem;

namespace {

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

double run_suite_ms(scl::serve::SynthesisService& service,
                    const std::vector<scl::serve::JobRequest>& jobs,
                    bool expect_warm) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<scl::serve::JobResult> results = service.run_batch(jobs);
  const auto stop = std::chrono::steady_clock::now();
  for (const auto& result : results) {
    if (!result.ok) {
      throw scl::Error("synthesis of " + result.name +
                       " failed: " + result.error);
    }
    if (expect_warm && !result.from_cache) {
      throw scl::Error("expected a warm hit for " + result.name +
                       " but it was synthesized cold");
    }
  }
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

std::vector<scl::serve::WireRequest> suite_requests() {
  std::vector<scl::serve::WireRequest> requests;
  std::int64_t id = 0;
  for (const auto& info : scl::stencil::paper_benchmarks()) {
    scl::serve::WireRequest request;
    request.id = ++id;
    request.benchmark = info.name;
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Pipelines the whole suite on one connection (send all, then recv all
/// — responses come back in request order) and returns the wall time.
double run_wire_suite_ms(
    scl::serve::WireClient& client,
    const std::vector<scl::serve::WireRequest>& requests, bool expect_warm) {
  const auto start = std::chrono::steady_clock::now();
  for (const auto& request : requests) client.send(request);
  for (const auto& request : requests) {
    const scl::serve::WireResponse response = client.recv();
    if (!response.ok()) {
      throw scl::Error("daemon request " + std::to_string(request.id) +
                       " (" + response.name + ") failed: " + response.error);
    }
    if (expect_warm && !response.from_cache) {
      throw scl::Error("expected a warm daemon hit for " + response.name +
                       " but it was synthesized cold");
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

struct DaemonBenchResult {
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  int overload_shed = 0;  ///< "shed" responses out of overload_jobs
  int overload_jobs = 0;
};

DaemonBenchResult run_daemon_bench(const fs::path& scratch, int threads) {
  DaemonBenchResult result;
  const std::vector<scl::serve::WireRequest> requests = suite_requests();

  {
    scl::serve::DaemonOptions options;
    options.socket_path = (scratch / "stencild.sock").string();
    options.service.store_dir = (scratch / "store-daemon").string();
    options.service.threads = threads;
    scl::serve::Daemon daemon(options);
    daemon.start();

    scl::serve::WireClient client;
    client.connect(options.socket_path);
    result.cold_ms = run_wire_suite_ms(client, requests,
                                       /*expect_warm=*/false);
    // Same best-of-N discipline as the batch pass: a warm wire replay is
    // a ~millisecond measurement, so take the steady-state best.
    result.warm_ms = run_wire_suite_ms(client, requests,
                                       /*expect_warm=*/true);
    for (int rep = 1; rep < 5; ++rep) {
      result.warm_ms = std::min(
          result.warm_ms,
          run_wire_suite_ms(client, requests, /*expect_warm=*/true));
    }
    client.close();
    daemon.request_stop();
    if (!daemon.wait_drained()) {
      throw scl::Error("daemon bench: drain was not clean");
    }
  }

  // Overload: a daemon whose global queue bound holds two requests gets
  // the suite pipelined cold in one burst. The contract under overload
  // is structured load-shedding — every frame is answered, the overflow
  // with status "shed", and the connection survives.
  {
    scl::serve::DaemonOptions options;
    options.socket_path = (scratch / "stencild-overload.sock").string();
    options.service.store_dir =
        (scratch / "store-daemon-overload").string();
    options.service.threads = threads;
    options.admission.max_queue_depth = 2;
    scl::serve::Daemon daemon(options);
    daemon.start();

    scl::serve::WireClient client;
    client.connect(options.socket_path);
    for (const auto& request : requests) client.send(request);
    result.overload_jobs = static_cast<int>(requests.size());
    for (int i = 0; i < result.overload_jobs; ++i) {
      const scl::serve::WireResponse response = client.recv();
      if (response.status == "shed") {
        ++result.overload_shed;
      } else if (!response.ok()) {
        throw scl::Error("daemon overload pass: unexpected status \"" +
                         response.status + "\": " + response.error);
      }
    }
    client.close();
    daemon.request_stop();
    if (!daemon.wait_drained()) {
      throw scl::Error("daemon overload pass: drain was not clean");
    }
  }
  return result;
}

/// Contents of every artifact file under `root`, keyed by file name.
std::map<std::string, std::string> slurp_store(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    files[entry.path().filename().string()] = body.str();
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: bench_service [--json <file>] [--threads <n>]\n";
      return 2;
    }
  }

  const fs::path scratch =
      fs::temp_directory_path() / "scl-bench-service";
  std::error_code ec;
  fs::remove_all(scratch, ec);

  try {
    const std::vector<scl::serve::JobRequest> jobs = suite_jobs();

    scl::serve::ServiceOptions options;
    options.store_dir = (scratch / "store-a").string();
    options.threads = threads;

    double cold_ms = 0.0;
    double warm_ms = 0.0;
    {
      scl::serve::SynthesisService service(options);
      cold_ms = run_suite_ms(service, jobs, /*expect_warm=*/false);
      // A single warm replay is a ~millisecond measurement dominated by
      // scheduler wakeup jitter; take the best of several so the perf
      // gate compares steady-state serving cost, not noise.
      warm_ms = run_suite_ms(service, jobs, /*expect_warm=*/true);
      for (int rep = 1; rep < 5; ++rep) {
        warm_ms = std::min(warm_ms, run_suite_ms(service, jobs,
                                                 /*expect_warm=*/true));
      }
      std::cout << service.stats().to_string() << "\n";
    }

    // Fresh process-equivalent: a second service over the same directory
    // must also serve the whole suite warm (persistence, not memory).
    {
      scl::serve::SynthesisService service(options);
      const double reopen_ms =
          run_suite_ms(service, jobs, /*expect_warm=*/true);
      std::cout << "reopened store: " << scl::format_fixed(reopen_ms, 1)
                << " ms, " << service.stats().store_hits << "/"
                << jobs.size() << " hits\n";
    }

    // Determinism: a cold run into an independent store must produce
    // byte-identical artifacts.
    scl::serve::ServiceOptions options_b = options;
    options_b.store_dir = (scratch / "store-b").string();
    {
      scl::serve::SynthesisService service(options_b);
      const double cold_b_ms =
          run_suite_ms(service, jobs, /*expect_warm=*/false);
      cold_ms = std::min(cold_ms, cold_b_ms);
    }
    const auto store_a = slurp_store(scratch / "store-a");
    const auto store_b = slurp_store(scratch / "store-b");
    if (store_a != store_b) {
      std::cerr << "FAIL: independent cold runs produced different "
                   "artifact bytes ("
                << store_a.size() << " vs " << store_b.size()
                << " files)\n";
      return 1;
    }

    const double ratio = warm_ms > 0.0 ? cold_ms / warm_ms : 1e9;
    std::cout << "cold: " << scl::format_fixed(cold_ms, 1)
              << " ms   warm: " << scl::format_fixed(warm_ms, 1)
              << " ms   speedup: " << scl::format_fixed(ratio, 1) << "x\n";
    std::cout << "artifacts byte-identical across independent cold runs ("
              << store_a.size() << " files)\n";

    const DaemonBenchResult daemon = run_daemon_bench(scratch, threads);
    const double daemon_ratio =
        daemon.warm_ms > 0.0 ? daemon.cold_ms / daemon.warm_ms : 1e9;
    std::cout << "daemon cold: " << scl::format_fixed(daemon.cold_ms, 1)
              << " ms   warm: " << scl::format_fixed(daemon.warm_ms, 1)
              << " ms   speedup: " << scl::format_fixed(daemon_ratio, 1)
              << "x   overload shed: " << daemon.overload_shed << "/"
              << daemon.overload_jobs << "\n";

    if (!json_path.empty()) {
      std::ofstream out(json_path);
      out << scl::str_cat(
                 "{\"bench\":\"service\",\"threads\":",
                 scl::serve::resolve_threads(threads),
                 ",\"jobs\":", jobs.size(),
                 ",\"cold_ms\":", scl::format_fixed(cold_ms, 3),
                 ",\"warm_ms\":", scl::format_fixed(warm_ms, 3),
                 ",\"warm_speedup\":", scl::format_fixed(ratio, 3), "}")
          << "\n";
      out << scl::str_cat(
                 "{\"bench\":\"service\",\"mode\":\"daemon\",\"threads\":",
                 scl::serve::resolve_threads(threads),
                 ",\"jobs\":", jobs.size(),
                 ",\"cold_ms\":", scl::format_fixed(daemon.cold_ms, 3),
                 ",\"warm_ms\":", scl::format_fixed(daemon.warm_ms, 3),
                 ",\"warm_speedup\":", scl::format_fixed(daemon_ratio, 3),
                 ",\"overload_shed\":", daemon.overload_shed,
                 ",\"overload_jobs\":", daemon.overload_jobs, "}")
          << "\n";
    }
    if (ratio < 10.0) {
      std::cerr << "FAIL: warm pass must be >= 10x faster than cold\n";
      return 1;
    }
    if (daemon_ratio < 10.0) {
      std::cerr << "FAIL: warm daemon pass must be >= 10x faster than "
                   "cold\n";
      return 1;
    }
    if (daemon.overload_shed < 1) {
      std::cerr << "FAIL: the overload pass must shed at least one "
                   "request through the depth-2 admission bound\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    fs::remove_all(scratch, ec);
    return 1;
  }
  fs::remove_all(scratch, ec);
  return 0;
}
