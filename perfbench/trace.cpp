// perfbench_trace: the per-layer numbers of one workload.
//
// The run first drives the daemon as the end-to-end program does (a
// warm-up and one timed pass; for serve_warm the catalog, a warm-up and
// one timed replay segment) for the serve-layer numbers the wire carries.
// It then re-enacts each request through the layers' public functions —
// the calls Framework::synthesize and SynthesisService make, in the same
// order — with a span around every call, and requires each re-enacted
// artifact to be byte-equal to the one the daemon stored. Every request
// is re-enacted twice, once with spans recorded and once without, so the
// run also measures the tracing overhead. Counters must repeat exactly
// between the two.
//
// Spans are kept in memory and written as Chrome trace_event JSON
// (open in Perfetto) when the run ends:
//   .bench_out/trace-<workload>-seed<n>.json
//
//   perfbench_trace --workload cold_paper|cold_small|serve_warm
//                   --seed <n> --seconds <s>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/features.hpp"
#include "core/optimizer.hpp"
#include "core/verify.hpp"
#include "fpga/device.hpp"
#include "frontend/ocl_import.hpp"
#include "serve/artifact_store.hpp"
#include "sim/executor.hpp"
#include "stencil/parser.hpp"
#include "support/error.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::Checks;
using perfbench::Clock;
using perfbench::Item;
using perfbench::Metric;

/// In-memory span store: name, start, end, parent and request id.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t request_id = 0;
    std::string label;  ///< the request's item
  };

  /// RAII: opens a span on construction, closes it on destruction.
  /// Records nothing while the store is disabled.
  class Scope {
   public:
    Scope(Spans* spans, const char* name) : spans_(spans) {
      if (spans_->enabled_) index_ = spans_->open(name);
    }
    ~Scope() {
      if (index_ >= 0) spans_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int index_ = -1;
  };

  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { enabled_ = on; }
  void set_request(std::int64_t id, const std::string& label) {
    request_id_ = id;
    label_ = label;
  }
  const std::vector<Span>& all() const { return spans_; }

  /// Duration minus the part covered by direct children.
  std::int64_t self_ns(std::size_t index) const;

  void write_chrome_trace(const std::string& path) const;

 private:
  int open(const char* name) {
    Span span;
    span.name = name;
    span.start_ns = now_ns();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request_id = request_id_;
    span.label = label_;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::int64_t request_id_ = 0;
  std::string label_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

std::int64_t Spans::self_ns(std::size_t index) const {
  const Span& span = spans_[index];
  std::int64_t children = 0;
  for (std::size_t i = index + 1; i < spans_.size(); ++i) {
    if (spans_[i].start_ns >= span.end_ns) break;
    if (spans_[i].parent == static_cast<int>(index)) {
      children += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return span.end_ns - span.start_ns - children;
}

void Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('/'));
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << perfbench::format_double(s.start_ns / 1000.0)
        << ",\"dur\":"
        << perfbench::format_double((s.end_ns - s.start_ns) / 1000.0)
        << ",\"args\":{\"request_id\":" << s.request_id << ",\"item\":\""
        << s.label << "\",\"self_us\":"
        << perfbench::format_double(self_ns(i) / 1000.0) << "}}";
  }
  out << "\n]}\n";
  if (!out) throw scl::Error("cannot write " + path);
}

/// Counters of one re-enacted cold request; they must repeat exactly.
struct Counters {
  std::int64_t evaluated = 0;
  std::int64_t pruned = 0;
  std::int64_t cache_hits = 0;
  std::int64_t ir_kernels = 0;
  std::int64_t ir_pipes = 0;
  std::int64_t region_executions = 0;
  std::int64_t code_bytes = 0;
  std::int64_t artifact_bytes = 0;
  // The emitted design's simulation.
  std::int64_t cells_owned = 0;
  std::int64_t cells_redundant = 0;
  std::int64_t stall_cycles = 0;  ///< pipe stall + barrier wait
  std::int64_t phase_cycles = 0;

  bool operator==(const Counters&) const = default;
};

/// What one re-enacted request measured, span-independent.
struct Reenacted {
  double request_ms = 0.0;
  Counters counters;
  std::string artifact_bytes;
};

scl::stencil::StencilProgram instantiate(Spans* spans, const Item& item) {
  const Spans::Scope span(spans, "frontend/parse");
  return scl::stencil::parse_program(item.request.stencil_text);
}

/// Re-enacts a cold request: the daemon's parse and content address,
/// then Framework::synthesize's calls in order, then the service's
/// artifact, store write and read back.
Reenacted reenact_cold(Spans* spans, const Item& item,
                       scl::serve::ArtifactStore* store) {
  Reenacted out;
  const Clock::time_point start = Clock::now();
  {
    const Spans::Scope root(spans, "request");
    const scl::stencil::StencilProgram program = instantiate(spans, item);
    const scl::core::FrameworkOptions framework =
        perfbench::daemon_options(item.device, "", "").service.framework;
    std::string key;
    {
      const Spans::Scope span(spans, "serve/key");
      key = scl::serve::request_key(scl::stencil::program_to_text(program),
                                    framework);
    }
    scl::core::SynthesisReport report;
    std::optional<scl::core::Optimizer> optimizer;
    {
      const Spans::Scope span(spans, "core/setup");
      optimizer.emplace(program, framework.optimizer);
      report.features = scl::core::extract_features(program);
      report.device = framework.optimizer.device;
    }
    {
      const Spans::Scope span(spans, "dse/baseline");
      report.baseline = optimizer->optimize_baseline();
    }
    {
      const Spans::Scope span(spans, "dse/heterogeneous");
      try {
        report.heterogeneous =
            optimizer->optimize_heterogeneous(report.baseline);
      } catch (const scl::ResourceError&) {
        report.heterogeneous = report.baseline;
      }
    }
    {
      const Spans::Scope span(spans, "dse/temporal");
      try {
        report.temporal = optimizer->optimize_temporal();
      } catch (const scl::ResourceError&) {
      }
    }
    if (report.temporal && report.temporal->prediction.total_cycles <
                               report.heterogeneous.prediction.total_cycles) {
      report.selected_family = scl::arch::DesignFamily::kTemporalShift;
    }
    report.dse = optimizer->dse_stats();
    report.frontier = optimizer->retained_frontier();
    {
      const Spans::Scope span(spans, "verify/design");
      report.analysis.merge(scl::core::verify_design(
          program, report.baseline.config, report.device,
          report.baseline.resources));
      report.analysis.merge(scl::core::verify_design(
          program, report.heterogeneous.config, report.device,
          report.heterogeneous.resources));
      if (report.temporal) {
        report.analysis.merge(scl::core::verify_design(
            program, report.temporal->config, report.device,
            report.temporal->resources));
      }
    }
    {
      const Spans::Scope span(spans, "sim/run");
      const scl::sim::Executor exec(report.device);
      report.baseline_sim = exec.run(program, report.baseline.config,
                                     scl::sim::SimMode::kTimingOnly);
      report.heterogeneous_sim = exec.run(program, report.heterogeneous.config,
                                          scl::sim::SimMode::kTimingOnly);
      if (report.temporal) {
        report.temporal_sim = exec.run(program, report.temporal->config,
                                       scl::sim::SimMode::kTimingOnly);
      }
      report.speedup =
          static_cast<double>(report.baseline_sim.total_cycles) /
          static_cast<double>(report.heterogeneous_sim.total_cycles);
    }
    const scl::sim::DesignConfig& emitted = report.selected().config;
    {
      const Spans::Scope span(spans, "codegen/emit");
      report.code =
          scl::codegen::generate_opencl(program, emitted, report.device);
    }
    scl::support::DiagnosticEngine sources;
    {
      const Spans::Scope span(spans, "verify/sources");
      scl::core::verify_generated_sources(report.code, &sources);
    }
    {
      const Spans::Scope span(spans, "verify/ir");
      report.ir = scl::core::verify_generated_ir(program, emitted, report.code,
                                                 &sources);
    }
    report.analysis.merge(sources);
    {
      const Spans::Scope span(spans, "serve/artifact");
      out.artifact_bytes = scl::serve::serialize_artifact(
          scl::serve::make_artifact(key, report));
    }
    {
      const Spans::Scope span(spans, "serve/store_write");
      store->store(key, out.artifact_bytes);
    }
    {
      const Spans::Scope span(spans, "serve/store_read");
      const std::optional<std::string> payload = store->load(key);
      if (!payload) throw scl::Error(item.label + ": trace store lost " + key);
      scl::serve::parse_artifact(*payload);
    }

    Counters& c = out.counters;
    c.evaluated = report.dse.candidates_evaluated;
    c.pruned = report.dse.candidates_pruned;
    c.cache_hits = report.dse.cache_hits;
    c.ir_kernels = report.ir.kernels_lowered;
    c.ir_pipes = report.ir.pipes_checked;
    c.region_executions = report.baseline_sim.region_executions +
                          report.heterogeneous_sim.region_executions +
                          report.temporal_sim.region_executions;
    c.code_bytes = static_cast<std::int64_t>(report.code.kernel_source.size() +
                                             report.code.host_source.size());
    c.artifact_bytes = static_cast<std::int64_t>(out.artifact_bytes.size());
    const scl::sim::SimResult& sim =
        report.selected_family == scl::arch::DesignFamily::kTemporalShift
            ? report.temporal_sim
            : report.heterogeneous_sim;
    c.cells_owned = sim.cells_owned;
    c.cells_redundant = sim.cells_redundant;
    c.stall_cycles = sim.phases.pipe_stall + sim.phases.barrier_wait;
    c.phase_cycles = sim.phases.total();
  }
  out.request_ms = perfbench::elapsed_ms(start, Clock::now());
  return out;
}

/// Re-enacts a warm request: parse, content address, store read + parse.
double reenact_warm(Spans* spans, const Item& item,
                    scl::serve::ArtifactStore* store) {
  const Clock::time_point start = Clock::now();
  {
    const Spans::Scope root(spans, "request");
    const scl::stencil::StencilProgram program = instantiate(spans, item);
    std::string key;
    {
      const Spans::Scope span(spans, "serve/key");
      key = scl::serve::request_key(
          scl::stencil::program_to_text(program),
          perfbench::daemon_options(item.device, "", "").service.framework);
    }
    {
      const Spans::Scope span(spans, "serve/store_read");
      const std::optional<std::string> payload = store->load(key);
      if (!payload) throw scl::Error(item.label + ": trace store lost " + key);
      scl::serve::parse_artifact(*payload);
    }
  }
  return perfbench::elapsed_ms(start, Clock::now());
}

/// Daemon-side numbers of the timed requests.
struct WireSide {
  std::vector<double> service_ms;
  std::vector<double> wire_ms;
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  std::int64_t memory_hits = 0;
  std::vector<const Item*> timed;  ///< in the order they were sent
  std::map<std::string, std::string> bytes;  ///< the daemon's artifacts

  perfbench::OnReply recorder(Checks* checks, bool expect_cached) {
    return [this, checks, expect_cached](const Item& item,
                                         const perfbench::Reply& reply,
                                         bool is_timed) {
      perfbench::check_reply(checks, item, reply, expect_cached);
      if (!is_timed) return;
      const scl::serve::WireResponse& r = reply.response;
      ++requests;
      if (!r.ok()) ++failed;
      if (r.from_memory) ++memory_hits;
      service_ms.push_back(r.latency_ms);
      wire_ms.push_back(reply.client_ms - r.latency_ms);
      timed.push_back(&item);
    };
  }
};

/// Cold workloads: `passes` are a warm-up pass and a timed pass.
WireSide drive_cold(const perfbench::ScratchDir& dir,
                    const std::vector<std::vector<Item>>& passes,
                    Checks* checks) {
  WireSide wire;
  const perfbench::Drive drive = perfbench::drive_cold(
      dir, passes, wire.recorder(checks, false));
  for (const auto& [device, store] : drive.stores) {
    std::vector<std::string> keys;
    for (const Item& item : passes.back()) {
      if (item.device == device) keys.push_back(item.key);
    }
    wire.bytes.merge(perfbench::read_artifacts(store, keys));
  }
  return wire;
}

/// serve_warm: the catalog is written cold, then a warm-up and a timed
/// replay segment run against one daemon on that store, whose memory tier
/// holds half of it.
WireSide drive_warm(const perfbench::ScratchDir& dir, std::uint64_t seed,
                    const std::vector<Item>& items, Checks* checks) {
  WireSide wire;
  const std::string store = dir.sub("daemon");
  checks->expect(perfbench::populate_catalog(dir, store, seed, items),
                 "catalog synthesis failed its checks");
  std::vector<std::string> keys;
  for (const Item& item : items) keys.push_back(item.key);
  wire.bytes = perfbench::read_artifacts(store, keys);
  std::int64_t catalog_bytes = 0;
  for (const auto& [key, bytes] : wire.bytes) {
    catalog_bytes += static_cast<std::int64_t>(key.size() + bytes.size());
  }
  const std::size_t per_segment = 4000;
  const std::vector<int> draws = perfbench::zipf_sequence(
      seed, static_cast<int>(items.size()), 2 * per_segment);
  const auto middle = draws.begin() + static_cast<std::ptrdiff_t>(per_segment);
  perfbench::drive_warm(dir, store, catalog_bytes / 2, items,
                        {std::vector<int>(draws.begin(), middle),
                         std::vector<int>(middle, draws.end())},
                        wire.recorder(checks, true));
  return wire;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Durations of the spans called `name`, from span `first` on.
std::vector<double> span_ms(const Spans& spans, const std::string& name,
                            std::size_t first = 0) {
  std::vector<double> out;
  for (std::size_t i = first; i < spans.all().size(); ++i) {
    const Spans::Span& s = spans.all()[i];
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Median share of each request root (from span `first` on) covered by
/// its direct children.
double coverage_pct(const Spans& spans, std::size_t first) {
  std::vector<double> shares;
  const auto& all = spans.all();
  for (std::size_t i = first; i < all.size(); ++i) {
    if (all[i].name != "request") continue;
    const double total = static_cast<double>(all[i].end_ns - all[i].start_ns);
    shares.push_back(100.0 * (total - static_cast<double>(spans.self_ns(i))) /
                     total);
  }
  return perfbench::median(shares);
}

/// Self time per span name, largest first, on stderr.
void print_self_times(const Spans& spans) {
  std::map<std::string, double> self_ms;
  for (std::size_t i = 0; i < spans.all().size(); ++i) {
    self_ms[spans.all()[i].name] += spans.self_ns(i) / 1e6;
  }
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, ms] : self_ms) rows.emplace_back(ms, name);
  std::sort(rows.rbegin(), rows.rend());
  std::cerr << "perfbench: self time by span (traced requests):\n";
  for (const auto& [ms, name] : rows) {
    std::cerr << "  " << name << " " << perfbench::format_double(ms)
              << " ms\n";
  }
}

/// frontend.import_ms: import_opencl over examples/opencl/*.cl.
double import_ms(Checks* checks) {
  std::vector<double> samples;
  std::vector<fs::path> files;
  const fs::path dir = "examples/opencl";
  if (fs::is_directory(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".cl") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  checks->expect(!files.empty(), "no OpenCL sources under examples/opencl");
  for (int round = 0; round < 5; ++round) {
    for (const fs::path& file : files) {
      std::ifstream in(file);
      std::ostringstream text;
      text << in.rdbuf();
      const std::string name = file.stem().string();
      const std::int64_t n = name.find("1d") != std::string::npos   ? 4096
                             : name.find("2d") != std::string::npos ? 128
                                                                     : 32;
      const int dims = name.find("1d") != std::string::npos   ? 1
                       : name.find("2d") != std::string::npos ? 2
                                                               : 3;
      scl::frontend::OpenClImportOptions options;
      for (int d = 0; d < dims; ++d) options.extents[d] = n;
      options.iterations = 16;
      const Clock::time_point start = Clock::now();
      scl::frontend::import_opencl(text.str(), options);
      samples.push_back(perfbench::elapsed_ms(start, Clock::now()));
    }
  }
  return perfbench::median(samples);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    const bool warm = args.workload == "serve_warm";
    if (args.workload != "cold_paper" && args.workload != "cold_small" &&
        !warm) {
      throw scl::Error("unknown workload '" + args.workload + "'");
    }

    Checks checks;
    const perfbench::ScratchDir dir(std::string(perfbench::kWorkDir) +
                                    "/trace-" + std::to_string(::getpid()));
    Spans spans(Clock::now());
    std::vector<std::vector<Item>> passes;
    std::vector<Item> items;  // the requests to re-enact
    WireSide wire;
    if (warm) {
      items = perfbench::warm_catalog_items(args.seed);
      wire = drive_warm(dir, args.seed, items, &checks);
    } else {
      const auto make = args.workload == "cold_paper"
                            ? perfbench::cold_paper_items
                            : perfbench::small_grid_items;
      passes = {make(args.seed, 0), make(args.seed, 1)};
      wire = drive_cold(dir, passes, &checks);
      items = passes.back();
    }

    // Re-enactment: every cold request twice per round, traced and
    // untraced, in alternating order; the counters must repeat exactly.
    // The number of rounds scales with --seconds (about half of it); the
    // serve_warm catalog is re-enacted once.
    const double round_seconds = args.workload == "cold_paper" ? 3.2 : 2.0;
    const int rounds =
        warm ? 1
             : std::max(1, static_cast<int>(std::lround(
                               args.seconds / 2.0 / round_seconds)));
    scl::serve::ArtifactStoreOptions store_options;
    store_options.root = dir.sub("reenact");
    scl::serve::ArtifactStore store(store_options);
    std::vector<std::optional<Counters>> counters(items.size());
    double traced_ms = 0.0;
    double untraced_ms = 0.0;
    std::int64_t request_id = 0;
    for (int round = 0; round < rounds; ++round) {
      for (const int i : perfbench::permutation(
               (args.seed ^ 0x7aceULL) + static_cast<std::uint64_t>(round),
               static_cast<int>(items.size()))) {
        const Item& item = items[static_cast<std::size_t>(i)];
        spans.set_request(++request_id, item.label);
        const bool traced_first = request_id % 2 == 1;
        Reenacted runs[2];
        for (int k = 0; k < 2; ++k) {
          const bool traced = (k == 0) == traced_first;
          spans.set_enabled(traced);
          runs[k] = reenact_cold(&spans, item, &store);
          (traced ? traced_ms : untraced_ms) += runs[k].request_ms;
        }
        spans.set_enabled(false);
        std::optional<Counters>& first = counters[static_cast<std::size_t>(i)];
        if (!first) first = runs[0].counters;
        checks.expect(runs[0].counters == *first &&
                          runs[1].counters == *first,
                      item.label + ": counters differ between re-enactments");
        checks.expect(runs[0].artifact_bytes == wire.bytes.at(item.key) &&
                          runs[1].artifact_bytes == wire.bytes.at(item.key),
                      item.label + ": re-enacted artifact differs from the "
                                   "daemon's");
      }
    }
    // serve_warm: its own requests are the warm replay. The frontend
    // parse, key and store-read layers and the trace metrics are measured
    // on them (spans from `replay_first` on); every other layer on the
    // catalog's cold requests.
    const std::size_t replay_first = warm ? spans.all().size() : 0;
    if (warm) {
      traced_ms = 0.0;
      untraced_ms = 0.0;
      for (const Item* item : wire.timed) {
        spans.set_request(++request_id, item->label);
        const bool traced_first = request_id % 2 == 1;
        for (int k = 0; k < 2; ++k) {
          const bool traced = (k == 0) == traced_first;
          spans.set_enabled(traced);
          (traced ? traced_ms : untraced_ms) +=
              reenact_warm(&spans, *item, &store);
        }
      }
      spans.set_enabled(false);
    }

    Counters total;
    for (const std::optional<Counters>& c : counters) {
      total.evaluated += c->evaluated;
      total.pruned += c->pruned;
      total.cache_hits += c->cache_hits;
      total.ir_kernels += c->ir_kernels;
      total.ir_pipes += c->ir_pipes;
      total.region_executions += c->region_executions;
      total.cells_owned += c->cells_owned;
      total.cells_redundant += c->cells_redundant;
      total.stall_cycles += c->stall_cycles;
      total.phase_cycles += c->phase_cycles;
    }
    std::vector<double> code_kb;
    std::vector<double> artifact_kb;
    for (const std::optional<Counters>& c : counters) {
      code_kb.push_back(static_cast<double>(c->code_bytes) / 1024.0);
      artifact_kb.push_back(static_cast<double>(c->artifact_bytes) / 1024.0);
    }

    const auto med = [&](const char* name, std::size_t first = 0) {
      return perfbench::median(span_ms(spans, name, first));
    };
    const double dse_ms = sum(span_ms(spans, "dse/baseline")) +
                          sum(span_ms(spans, "dse/heterogeneous")) +
                          sum(span_ms(spans, "dse/temporal"));
    std::vector<Metric> metrics = {
        {"core.setup_ms", med("core/setup"), "ms"},
        {"dse.baseline_ms", med("dse/baseline"), "ms"},
        {"dse.heterogeneous_ms", med("dse/heterogeneous"), "ms"},
        {"dse.temporal_ms", med("dse/temporal"), "ms"},
        {"dse.candidates_evaluated", static_cast<double>(total.evaluated),
         "count"},
        {"dse.candidates_pruned", static_cast<double>(total.pruned), "count"},
        {"dse.evaluated_share",
         ratio(static_cast<double>(total.evaluated),
               static_cast<double>(total.evaluated + total.pruned)),
         "ratio"},
        {"dse.cache_hit_rate",
         ratio(static_cast<double>(total.cache_hits),
               static_cast<double>(total.evaluated)),
         "ratio"},
        {"dse.us_per_candidate",
         1000.0 * ratio(dse_ms, static_cast<double>(rounds * total.evaluated)),
         "us"},
        {"verify.design_ms", med("verify/design"), "ms"},
        {"verify.sources_ms", med("verify/sources"), "ms"},
        {"verify.ir_ms", med("verify/ir"), "ms"},
        {"verify.ir_kernels", static_cast<double>(total.ir_kernels), "count"},
        {"verify.ir_pipes", static_cast<double>(total.ir_pipes), "count"},
        {"sim.ms", med("sim/run"), "ms"},
        {"sim.region_executions",
         static_cast<double>(total.region_executions), "count"},
        {"sim.us_per_region",
         1000.0 * ratio(sum(span_ms(spans, "sim/run")),
                        static_cast<double>(rounds * total.region_executions)),
         "us"},
        {"codegen.ms", med("codegen/emit"), "ms"},
        {"codegen.kb", perfbench::median(code_kb), "KB"},
        {"frontend.parse_ms", med("frontend/parse", replay_first), "ms"},
        {"frontend.import_ms", import_ms(&checks), "ms"},
        {"serve.key_ms", med("serve/key", replay_first), "ms"},
        {"serve.artifact_ms", med("serve/artifact"), "ms"},
        {"serve.store_write_ms", med("serve/store_write"), "ms"},
        {"serve.store_read_ms", med("serve/store_read", replay_first), "ms"},
        {"serve.artifact_kb", perfbench::median(artifact_kb), "KB"},
        {"serve.memory_hit_rate",
         ratio(static_cast<double>(wire.memory_hits),
               static_cast<double>(wire.requests)),
         "ratio"},
        {"serve.service_ms", perfbench::median(wire.service_ms), "ms"},
        {"serve.wire_ms", perfbench::median(wire.wire_ms), "ms"},
        {"design.redundancy_ratio",
         ratio(static_cast<double>(total.cells_redundant),
               static_cast<double>(total.cells_owned + total.cells_redundant)),
         "ratio"},
        {"design.stall_share",
         ratio(static_cast<double>(total.stall_cycles),
               static_cast<double>(total.phase_cycles)),
         "ratio"},
        {"trace.coverage_pct", coverage_pct(spans, replay_first), "%"},
        {"trace.overhead_pct", 100.0 * (ratio(traced_ms, untraced_ms) - 1.0),
         "%"},
    };

    fs::create_directories(".bench_out");
    const std::string trace_path = ".bench_out/trace-" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    spans.write_chrome_trace(trace_path);
    print_self_times(spans);
    std::cerr << "perfbench: " << spans.all().size() << " span(s) written to "
              << trace_path << "\n";
    perfbench::print_result(args.workload, checks.ok(), wire.requests,
                            wire.failed, metrics);
    return checks.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << "\n";
    return 1;
  }
}
