#include "common.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "fpga/device.hpp"
#include "serve/artifact_store.hpp"
#include "stencil/kernels.hpp"
#include "stencil/parser.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw scl::Error("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value);
    } else {
      throw scl::Error("unknown option " + flag);
    }
  }
  if (args.workload.empty()) throw scl::Error("--workload is required");
  if (args.seconds < 1) throw scl::Error("--seconds must be >= 1");
  return args;
}

scl::serve::DaemonOptions daemon_options(const std::string& device,
                                         const std::string& store_dir,
                                         const std::string& socket_path,
                                         std::int64_t memory_bytes) {
  scl::serve::DaemonOptions options;
  options.socket_path = socket_path;
  options.service.store_dir = store_dir;
  options.service.threads = 1;
  options.service.framework.optimizer.device = scl::fpga::find_device(device);
  options.service.framework.optimizer.threads = 1;
  if (memory_bytes > 0) options.service.memory_cache_bytes = memory_bytes;
  return options;
}

namespace {

std::string key_for(const scl::stencil::StencilProgram& program,
                    const std::string& device) {
  const scl::serve::DaemonOptions options = daemon_options(device, "", "");
  return scl::serve::request_key(scl::stencil::program_to_text(program),
                                 options.service.framework);
}

/// One small-grid stratum: a suite kernel at a reduced extent (cubic)
/// and iteration count.
struct Stratum {
  const char* kernel;
  std::int64_t extent;
  std::int64_t iterations;
};

/// 1-D extents 4096-32768, 2-D 64^2-512^2, 3-D 16^3-64^3, 16-128
/// iterations: small enough that fixed per-request costs matter, and a
/// mix on which both design families win.
std::vector<Stratum> small_grid_strata() {
  std::vector<Stratum> strata;
  for (const std::int64_t n : {4096, 8192, 16384, 32768}) {
    for (const std::int64_t h : {16, 128}) {
      strata.push_back({"Jacobi-1D", n, h});
    }
  }
  for (const char* kernel : {"Jacobi-2D", "HotSpot-2D", "FDTD-2D"}) {
    for (const std::int64_t n : {64, 128, 256, 512}) {
      for (const std::int64_t h : {16, 128}) strata.push_back({kernel, n, h});
    }
  }
  for (const char* kernel : {"Jacobi-3D", "HotSpot-3D", "FDTD-3D"}) {
    for (const std::int64_t n : {16, 32, 64}) {
      for (const std::int64_t h : {16, 64}) strata.push_back({kernel, n, h});
    }
  }
  return strata;
}

/// Seeds the names of one pass's requests; the serve_warm catalog is
/// pass -1.
scl::Rng name_rng(std::uint64_t seed, int pass) {
  return scl::Rng(seed * 0x100000001b3ULL +
                  static_cast<std::uint64_t>(pass + 1));
}

/// One `stencil_text` request for `program` under a seeded name.
Item named_item(const scl::stencil::StencilProgram& program,
                const std::string& kernel, const std::string& device,
                std::string label, scl::Rng* rng) {
  char tag[16];
  std::snprintf(tag, sizeof tag, "n%08llx",
                static_cast<unsigned long long>(rng->next_u64() >> 32));
  const std::string text = scl::stencil::program_to_text(program);
  // program_to_text quotes the name first: `stencil "<name>" ...`.
  const std::string quoted = "\"" + kernel + "\"";
  const std::size_t at = text.find(quoted);
  SCL_CHECK(at != std::string::npos, "stencil text lacks its name");
  std::string renamed = text;
  renamed.replace(at, quoted.size(), "\"" + kernel + "-" + tag + "\"");

  Item item;
  item.label = std::move(label);
  item.device = device;
  item.tag = tag;
  item.request.stencil_text = renamed;
  item.program = std::make_shared<scl::stencil::StencilProgram>(
      scl::stencil::parse_program(renamed));
  item.key = key_for(*item.program, item.device);
  return item;
}

/// Times the request loops of the timed passes.
class LoopTimer {
 public:
  LoopTimer(Drive* drive, bool timed)
      : drive_(drive),
        timed_(timed),
        cpu0_(process_cpu_seconds()),
        start_(Clock::now()) {}
  ~LoopTimer() {
    if (!timed_) return;
    drive_->wall_ms += elapsed_ms(start_, Clock::now());
    drive_->cpu_s += process_cpu_seconds() - cpu0_;
  }
  LoopTimer(const LoopTimer&) = delete;
  LoopTimer& operator=(const LoopTimer&) = delete;

 private:
  Drive* drive_;
  bool timed_;
  double cpu0_;
  Clock::time_point start_;
};

/// Sends `requests` in order on `session`, as one timed loop when `timed`.
void run_requests(Session* session, const std::vector<const Item*>& requests,
                  bool timed, std::int64_t* id, const OnReply& on_reply,
                  Drive* drive) {
  const LoopTimer timer(drive, timed);
  for (const Item* item : requests) {
    scl::serve::WireRequest request = item->request;
    request.id = ++*id;
    on_reply(*item, session->call(request), timed);
  }
}

}  // namespace

std::vector<Item> cold_paper_items(std::uint64_t seed, int pass) {
  scl::Rng rng = name_rng(seed, pass);
  std::vector<Item> items;
  for (const char* device : {kDdrDevice, kHbmDevice}) {
    for (const scl::stencil::BenchmarkInfo& info :
         scl::stencil::paper_benchmarks()) {
      items.push_back(named_item(info.make_paper_scale(), info.name, device,
                                 info.name + "@" + device, &rng));
    }
  }
  return items;
}

std::vector<Item> small_grid_items(std::uint64_t seed, int pass) {
  scl::Rng rng = name_rng(seed, pass);
  std::vector<Item> items;
  for (const Stratum& s : small_grid_strata()) {
    const scl::stencil::BenchmarkInfo& info =
        scl::stencil::find_benchmark(s.kernel);
    std::array<std::int64_t, 3> extents = {1, 1, 1};
    for (int d = 0; d < info.dims; ++d) extents[d] = s.extent;
    items.push_back(named_item(
        info.make_scaled(extents, s.iterations), s.kernel, kDdrDevice,
        std::string(s.kernel) + "/" + std::to_string(s.extent) + "/h" +
            std::to_string(s.iterations),
        &rng));
  }
  return items;
}

std::vector<Item> warm_catalog_items(std::uint64_t seed) {
  return small_grid_items(seed, -1);
}

std::vector<std::string> devices_of(const std::vector<Item>& items) {
  std::vector<std::string> devices;
  for (const Item& item : items) {
    if (std::find(devices.begin(), devices.end(), item.device) ==
        devices.end()) {
      devices.push_back(item.device);
    }
  }
  return devices;
}

std::vector<int> permutation(std::uint64_t seed, int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  scl::Rng rng(seed);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, i));
    std::swap(order[static_cast<std::size_t>(i)], order[j]);
  }
  return order;
}

std::vector<int> zipf_sequence(std::uint64_t seed, int n, std::size_t count) {
  // The rank of each catalog entry is fixed: which entries are hot decides
  // the artifact sizes a replay parses, so a seeded ranking would move
  // the per-request cost from seed to seed. The seed drives the draws.
  const std::vector<int> by_rank = permutation(0x5eedULL, n);
  std::vector<double> cumulative(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cumulative[static_cast<std::size_t>(r)] = total;
  }
  scl::Rng rng(seed);
  std::vector<int> draws;
  draws.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform_double() * total;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    draws.push_back(by_rank[std::min(rank, by_rank.size() - 1)]);
  }
  return draws;
}

Session::Session(const scl::serve::DaemonOptions& options) {
  const Clock::time_point start = Clock::now();
  daemon_ = std::make_unique<scl::serve::Daemon>(options);
  daemon_->start();
  client_.connect(options.socket_path);
  setup_seconds_ =
      std::chrono::duration<double>(Clock::now() - start).count();
}

Session::~Session() {
  try {
    close();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
  }
}

Reply Session::call(const scl::serve::WireRequest& request) {
  Reply reply;
  const Clock::time_point start = Clock::now();
  client_.send(request);
  reply.response = client_.recv();
  reply.client_ms = elapsed_ms(start, Clock::now());
  return reply;
}

void Session::close() {
  if (daemon_ == nullptr) return;
  client_.close();
  daemon_->request_stop();
  const bool clean = daemon_->wait_drained();
  daemon_.reset();
  if (!clean) throw scl::Error("daemon drain was not clean");
}

std::map<std::string, std::string> read_artifacts(
    const std::string& store_dir, const std::vector<std::string>& keys) {
  scl::serve::ArtifactStoreOptions options;
  options.root = store_dir;
  scl::serve::ArtifactStore store(options);
  std::map<std::string, std::string> payloads;
  for (const std::string& key : keys) {
    std::optional<std::string> payload = store.load(key);
    if (!payload) throw scl::Error("artifact " + key + " missing from store");
    payloads[key] = std::move(*payload);
  }
  return payloads;
}

void check_reply(Checks* checks, const Item& item, const Reply& reply,
                 bool expect_cached) {
  const scl::serve::WireResponse& r = reply.response;
  checks->expect(r.ok(), item.label + ": status " + r.status + " " + r.error);
  if (!r.ok()) return;
  checks->expect(r.key == item.key, item.label + ": unexpected key " + r.key);
  checks->expect(r.from_cache == expect_cached,
                 item.label + (expect_cached ? ": expected a store hit"
                                             : ": expected a store miss"));
  checks->expect(r.diagnostics.empty(), item.label + ": diagnostics");
}

Drive drive_cold(const ScratchDir& dir,
                 const std::vector<std::vector<Item>>& passes,
                 const OnReply& on_reply) {
  Drive drive;
  const std::vector<std::string> devices = devices_of(passes.front());
  std::vector<std::unique_ptr<Session>> sessions;
  for (const std::string& device : devices) {
    drive.stores[device] = dir.sub("store-" + device);
    sessions.push_back(std::make_unique<Session>(daemon_options(
        device, drive.stores[device], dir.sub("d-" + device + ".sock"))));
  }
  std::int64_t id = 0;
  for (std::size_t pass = 0; pass < passes.size(); ++pass) {
    for (std::size_t g = 0; g < devices.size(); ++g) {
      // Alternate which device opens a pass.
      const std::size_t d = (g + pass) % devices.size();
      std::vector<const Item*> group;
      for (const Item& item : passes[pass]) {
        if (item.device == devices[d]) group.push_back(&item);
      }
      std::vector<const Item*> order;
      for (const int i : permutation(pass * 31 + g,
                                     static_cast<int>(group.size()))) {
        order.push_back(group[static_cast<std::size_t>(i)]);
      }
      run_requests(sessions[d].get(), order, pass > 0, &id, on_reply,
                   &drive);
    }
  }
  for (const std::unique_ptr<Session>& session : sessions) session->close();
  return drive;
}

bool populate_catalog(const ScratchDir& dir, const std::string& store,
                      std::uint64_t seed, const std::vector<Item>& catalog) {
  std::cout.flush();
  const pid_t child = ::fork();
  if (child < 0) throw scl::Error("fork failed");
  if (child == 0) {
    int code = 1;
    try {
      Checks checks;
      Session session(
          daemon_options(kDdrDevice, store, dir.sub("catalog.sock")));
      std::int64_t id = 0;
      for (const int i :
           permutation(seed, static_cast<int>(catalog.size()))) {
        const Item& item = catalog[static_cast<std::size_t>(i)];
        scl::serve::WireRequest request = item.request;
        request.id = ++id;
        check_reply(&checks, item, session.call(request),
                    /*expect_cached=*/false);
      }
      session.close();
      code = checks.ok() ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: catalog: " << e.what() << "\n";
    }
    std::_Exit(code);
  }
  int status = 0;
  if (::waitpid(child, &status, 0) != child) {
    throw scl::Error("waitpid failed");
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Drive drive_warm(const ScratchDir& dir, const std::string& store,
                 std::int64_t memory_bytes, const std::vector<Item>& catalog,
                 const std::vector<std::vector<int>>& segments,
                 const OnReply& on_reply) {
  Drive drive;
  Session session(
      daemon_options(kDdrDevice, store, dir.sub("d.sock"), memory_bytes));
  std::int64_t id = 0;
  for (std::size_t segment = 0; segment < segments.size(); ++segment) {
    std::vector<const Item*> order;
    for (const int draw : segments[segment]) {
      order.push_back(&catalog[static_cast<std::size_t>(draw)]);
    }
    run_requests(&session, order, segment > 0, &id, on_reply, &drive);
  }
  session.close();
  return drive;
}

DesignFacts design_facts(const scl::serve::SynthesisArtifact& artifact) {
  DesignFacts facts;
  facts.temporal =
      artifact.selected_family == scl::arch::DesignFamily::kTemporalShift &&
      artifact.temporal.has_value();
  facts.simulated_cycles = facts.temporal ? artifact.temporal_cycles
                                          : artifact.heterogeneous_cycles;
  facts.predicted_cycles =
      facts.temporal ? artifact.temporal->prediction.total_cycles
                     : artifact.heterogeneous.prediction.total_cycles;
  facts.code_bytes =
      static_cast<std::int64_t>(artifact.code.kernel_source.size() +
                                artifact.code.host_source.size());
  facts.error_diagnostics = artifact.analysis.error_count();
  return facts;
}

QualityMetrics quality_metrics(const std::vector<DesignFacts>& designs) {
  QualityMetrics m;
  if (designs.empty()) return m;
  // Sorted terms make each floating-point sum independent of the order
  // the designs were requested in.
  std::vector<double> logs;
  std::vector<double> errors;
  std::int64_t code_bytes = 0;
  for (const DesignFacts& d : designs) {
    logs.push_back(std::log(static_cast<double>(d.simulated_cycles)));
    errors.push_back(std::fabs(
        d.predicted_cycles / static_cast<double>(d.simulated_cycles) - 1.0));
    code_bytes += d.code_bytes;
  }
  std::sort(logs.begin(), logs.end());
  std::sort(errors.begin(), errors.end());
  double log_sum = 0.0;
  for (const double v : logs) log_sum += v;
  double error_sum = 0.0;
  for (const double v : errors) error_sum += v;
  const auto n = static_cast<double>(designs.size());
  m.cycles_geomean = std::exp(log_sum / n);
  m.model_error_pct = 100.0 * error_sum / n;
  m.code_kb_mean = static_cast<double>(code_bytes) / 1024.0 / n;
  return m;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double process_cpu_seconds() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double elapsed_ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::string format_double(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

void print_result(const std::string& workload, bool correct,
                  std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<Metric>& reported) {
  std::cout << "workload " << workload << ": "
            << (correct ? "correct" : "INCORRECT") << ", " << attempted
            << " request(s) attempted, " << failed << " failed\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << format_double(m.value) << " "
              << m.unit << "\n";
  }
  for (const Metric& m : reported) {
    std::cout << "  " << m.name << " = " << format_double(m.value) << " "
              << m.unit << " (reported, not in the result object)\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << format_double(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void Checks::fail(const std::string& what) {
  ++failures_;
  if (failures_ <= 20) std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  fs::remove_all(path_);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

}  // namespace perfbench
