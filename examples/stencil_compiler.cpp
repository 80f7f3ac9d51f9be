// stencil_compiler: the framework as a command-line tool.
//
//   stencil_compiler <input.stencil | input.cl | benchmark-name> [options]
//
//   --device <name>       target device (xc7vx690t | xc7vx485t | xcku115 |
//                         xcu280 | s10mx)
//   --family <name>       design-family policy: auto (default; search both
//                         and emit the predicted winner), pipe-tiling, or
//                         temporal-shift
//   --grid <n0[,n1[,n2]]> grid extents (required for .cl inputs)
//   --iterations <H>      iteration count (required for .cl inputs)
//   --init <field=spec>   initializer for a field (repeatable; .cl inputs)
//   --emit <dir>          write stencil_kernels.cl / stencil_host.cpp there
//   --report <file.md>    write a Markdown synthesis report
//   --no-sim              skip the device simulation
//   --analyze             print design-verifier diagnostics (pipe graph,
//                         halo & bounds, resource cross-check, generated
//                         sources); exit 1 when errors are reported
//   --analyze-json        like --analyze but machine-readable JSON: a
//                         versioned document ("schema_version") with the
//                         verifier diagnostics under "analysis"
//                         (docs/ARCHITECTURE.md §8 schema), the kernel-IR
//                         pass-4 coverage summary under "ir", and the DSE
//                         summary — candidates evaluated/pruned and the
//                         retained latency/BRAM Pareto front — under "dse"
//   --dump-stencil        print the program in .stencil form and exit
//   --list                list built-in benchmarks and devices, exit
//   --trace-out <file>    enable observability; write a Chrome trace_event
//                         JSON of the run (load in Perfetto / about:tracing)
//   --metrics-out <file>  enable observability; write a Prometheus-style
//                         text exposition of the process metrics
//
// Reads a stencil program from a `.stencil` file, imports a naive NDRange
// OpenCL kernel from a `.cl` file (the paper's input format), or takes a
// built-in benchmark by name; runs the full synthesis flow, prints the
// report, and optionally emits the generated OpenCL sources.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "frontend/ocl_import.hpp"

#include "core/framework.hpp"
#include "core/report.hpp"
#include "stencil/kernels.hpp"
#include "stencil/parser.hpp"
#include "support/json.hpp"
#include "support/observability/observability.hpp"
#include "support/strings.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: stencil_compiler <input.stencil | benchmark-name> "
         "[--device <name>] [--family auto|pipe-tiling|temporal-shift] "
         "[--emit <dir>] [--no-sim] [--analyze] "
         "[--analyze-json] [--dump-stencil] [--list] "
         "[--trace-out <file>] [--metrics-out <file>]\n";
  return 2;
}

/// Matches "--name <value>" or "--name=<value>"; fills `*out` (empty on a
/// missing value, which the caller treats as a usage error).
bool flag_with_value(const std::string& arg, const std::string& name,
                     int argc, char** argv, int& i, std::string* out) {
  if (arg == name) {
    *out = i + 1 < argc ? argv[++i] : "";
    return true;
  }
  const std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) == 0) {
    *out = arg.substr(prefix.size());
    return true;
  }
  return false;
}

void list_builtins() {
  std::cout << "built-in benchmarks:\n";
  for (const auto& info : scl::stencil::paper_benchmarks()) {
    std::cout << "  " << info.name << " (" << info.source << ", "
              << info.dims << "-D)\n";
  }
  std::cout << "devices:\n";
  for (const auto& dev : scl::fpga::device_catalog()) {
    std::cout << "  " << dev.name << " " << dev.capacity.to_string() << "\n";
  }
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw scl::Error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

scl::stencil::StencilProgram load_program(
    const std::string& input,
    const scl::frontend::OpenClImportOptions& ocl_options) {
  if (ends_with(input, ".stencil")) {
    return scl::stencil::parse_program_file(input);
  }
  if (ends_with(input, ".cl")) {
    if (ocl_options.extents[0] <= 1 || ocl_options.iterations < 1) {
      throw scl::Error(
          ".cl inputs need --grid and --iterations (the host-side "
          "configuration the kernel file does not carry)");
    }
    return scl::frontend::import_opencl(read_file(input), ocl_options);
  }
  return scl::stencil::find_benchmark(input).make_paper_scale();
}

struct ToolConfig {
  std::string input;
  std::string device_name = "xc7vx690t";
  scl::core::FamilySelection family = scl::core::FamilySelection::kAuto;
  std::optional<std::string> emit_dir;
  std::optional<std::string> report_path;
  bool simulate = true;
  bool dump = false;
  bool analyze = false;
  bool analyze_json = false;
  scl::frontend::OpenClImportOptions ocl_options;
};

/// The whole compile flow; split out of main() so observability files can
/// be written after *every* exit path (--dump-stencil, the analyze modes
/// and errors all return early).
int run_tool(const ToolConfig& cfg) {
  const auto run_span =
      scl::support::obs::tracer().span("compiler/run", "cli");
  const scl::stencil::StencilProgram program = [&] {
    const auto span =
        scl::support::obs::tracer().span("compiler/parse", "frontend");
    return load_program(cfg.input, cfg.ocl_options);
  }();
  if (cfg.dump) {
    std::cout << scl::stencil::program_to_text(program);
    return 0;
  }

  scl::core::FrameworkOptions options;
  options.optimizer.device = scl::fpga::find_device(cfg.device_name);
  options.family = cfg.family;
  options.simulate = cfg.simulate && !cfg.analyze && !cfg.analyze_json;
  options.generate_code = true;
  // The analyze modes render diagnostics themselves instead of letting
  // the framework abort on the first error.
  options.fail_on_analysis_error = !cfg.analyze && !cfg.analyze_json;
  const scl::core::Framework framework(program, options);
  const scl::core::SynthesisReport report = framework.synthesize();

  if (cfg.analyze_json) {
    scl::support::JsonWriter json;
    json.begin_object();
    // Bumped whenever the document layout changes; see
    // docs/ARCHITECTURE.md §8 for the history. v2 added
    // "schema_version" itself and the "ir" section; v3 added the
    // "family" section and the per-frontier-point "family" member; v4
    // added the "device" section (banked memory model) and the
    // per-frontier-point "replication" member.
    json.member("schema_version", 4);
    json.key("device").begin_object();
    json.member("name", options.optimizer.device.name);
    json.key("memory").begin_object();
    json.member("banks", options.optimizer.device.memory.banks);
    json.member("bank_bytes_per_cycle",
                options.optimizer.device.effective_bank_bytes_per_cycle());
    json.member("bank_conflict_factor",
                options.optimizer.device.memory.bank_conflict_factor);
    json.member("mem_bytes_per_cycle",
                options.optimizer.device.mem_bytes_per_cycle);
    json.end_object();
    json.end_object();
    json.key("family").begin_object();
    json.member("requested", scl::core::to_string(options.family));
    json.member("selected", scl::arch::to_string(report.selected_family));
    json.member("temporal_searched", report.temporal.has_value());
    json.end_object();
    json.key("analysis").raw(report.analysis.render_json());
    json.key("ir").begin_object();
    json.member("ran", report.ir.ran);
    json.member("kernels_lowered", report.ir.kernels_lowered);
    json.member("pipes_checked", report.ir.pipes_checked);
    json.member("unmodeled_constructs", report.ir.unmodeled_constructs);
    json.member("errors", report.ir.errors);
    json.member("warnings", report.ir.warnings);
    json.end_object();
    json.key("dse").begin_object();
    json.member("candidates_evaluated", report.dse.candidates_evaluated);
    json.member("candidates_pruned", report.dse.candidates_pruned);
    json.member("cache_hits", report.dse.cache_hits);
    json.member("cache_misses", report.dse.cache_misses);
    json.key("frontier").begin_array();
    for (const scl::core::DesignPoint& point : report.frontier) {
      json.begin_object();
      json.member("family", scl::arch::to_string(point.config.family));
      json.member("config", point.config.summary(program.dims()));
      json.member("replication", point.config.replication);
      json.member("predicted_cycles", point.prediction.total_cycles);
      json.member("bram18", point.resources.total.bram18);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    json.end_object();
    std::cout << json.take() << "\n";
    return report.analysis.has_errors() ? 1 : 0;
  }
  if (cfg.analyze) {
    if (report.analysis.empty()) {
      std::cout << "design verification: no diagnostics\n";
    } else {
      std::cout << report.analysis.render_text();
    }
    return report.analysis.has_errors() ? 1 : 0;
  }
  std::cout << report.to_string();

  if (cfg.report_path.has_value()) {
    std::ofstream(*cfg.report_path)
        << scl::core::render_markdown_report(report);
    std::cout << "wrote report " << *cfg.report_path << "\n";
  }

  if (cfg.emit_dir.has_value()) {
    std::filesystem::create_directories(*cfg.emit_dir);
    const auto kernel_path =
        std::filesystem::path(*cfg.emit_dir) / "stencil_kernels.cl";
    const auto host_path =
        std::filesystem::path(*cfg.emit_dir) / "stencil_host.cpp";
    const auto script_path =
        std::filesystem::path(*cfg.emit_dir) / "build.sh";
    std::ofstream(kernel_path) << report.code.kernel_source;
    std::ofstream(host_path) << report.code.host_source;
    std::ofstream(script_path) << report.code.build_script;
    std::filesystem::permissions(script_path,
                                 std::filesystem::perms::owner_exec,
                                 std::filesystem::perm_options::add);
    std::cout << "emitted " << kernel_path.string() << ", "
              << host_path.string() << " and " << script_path.string()
              << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ToolConfig cfg;
  std::string trace_out;
  std::string metrics_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--list") {
      list_builtins();
      return 0;
    }
    if (arg == "--no-sim") {
      cfg.simulate = false;
    } else if (arg == "--analyze") {
      cfg.analyze = true;
    } else if (arg == "--analyze-json") {
      cfg.analyze_json = true;
    } else if (arg == "--dump-stencil") {
      cfg.dump = true;
    } else if (flag_with_value(arg, "--trace-out", argc, argv, i, &value)) {
      if (value.empty()) return usage();
      trace_out = value;
    } else if (flag_with_value(arg, "--metrics-out", argc, argv, i,
                               &value)) {
      if (value.empty()) return usage();
      metrics_out = value;
    } else if (arg == "--device") {
      if (++i >= argc) return usage();
      cfg.device_name = argv[i];
    } else if (flag_with_value(arg, "--family", argc, argv, i, &value)) {
      if (value == "auto") {
        cfg.family = scl::core::FamilySelection::kAuto;
      } else if (value == "pipe-tiling") {
        cfg.family = scl::core::FamilySelection::kPipeTiling;
      } else if (value == "temporal-shift") {
        cfg.family = scl::core::FamilySelection::kTemporalShift;
      } else {
        std::cerr << "unknown family '" << value << "'\n";
        return usage();
      }
    } else if (arg == "--emit") {
      if (++i >= argc) return usage();
      cfg.emit_dir = argv[i];
    } else if (arg == "--report") {
      if (++i >= argc) return usage();
      cfg.report_path = argv[i];
    } else if (arg == "--grid") {
      if (++i >= argc) return usage();
      const auto parts = scl::split(argv[i], ',');
      if (parts.empty() || parts.size() > 3) return usage();
      cfg.ocl_options.dims = static_cast<int>(parts.size());
      for (std::size_t d = 0; d < parts.size(); ++d) {
        cfg.ocl_options.extents[d] = std::stoll(parts[d]);
      }
    } else if (arg == "--iterations") {
      if (++i >= argc) return usage();
      cfg.ocl_options.iterations = std::stoll(argv[i]);
    } else if (arg == "--init") {
      if (++i >= argc) return usage();
      const std::string spec = argv[i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) return usage();
      cfg.ocl_options.init_specs[spec.substr(0, eq)] = spec.substr(eq + 1);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      return usage();
    } else if (cfg.input.empty()) {
      cfg.input = arg;
    } else {
      return usage();
    }
  }
  if (cfg.input.empty()) return usage();

  const bool observe = !trace_out.empty() || !metrics_out.empty();
  if (observe) scl::support::obs::set_enabled(true);

  int rc = 0;
  try {
    rc = run_tool(cfg);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 1;
  }
  if (!trace_out.empty()) {
    std::ofstream(trace_out)
        << scl::support::obs::tracer().render_chrome_json() << "\n";
    std::cerr << "wrote trace " << trace_out << "\n";
  }
  if (!metrics_out.empty()) {
    std::ofstream(metrics_out)
        << scl::support::obs::metrics().render_exposition();
    std::cerr << "wrote metrics " << metrics_out << "\n";
  }
  return rc;
}
