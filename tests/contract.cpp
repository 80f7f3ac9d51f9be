#include "contract.hpp"

#include <array>
#include <cstdint>
#include <cstdio>

#include "core/framework.hpp"
#include "fpga/device.hpp"
#include "serve/serialize.hpp"
#include "stencil/kernels.hpp"
#include "stencil/parser.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::contract {

namespace {

/// The small grid of a case: extents and iteration count per dimension
/// count, inside the cold_small ranges of perfbench (1-D 4096-32768,
/// 2-D 64^2-512^2, 3-D 16^3-64^3, 16-128 iterations).
stencil::StencilProgram small_grid(const stencil::BenchmarkInfo& info) {
  static constexpr std::array<std::int64_t, 3> kExtentByDims{8192, 128, 32};
  std::array<std::int64_t, 3> extents{1, 1, 1};
  for (int d = 0; d < info.dims; ++d) {
    extents[static_cast<std::size_t>(d)] =
        kExtentByDims[static_cast<std::size_t>(info.dims - 1)];
  }
  return info.make_scaled(extents, 32);
}

/// Hex float: exact, so two rows agree only when the doubles do.
std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// 128-bit digest as 32 hex chars: two FNV-1a-64 passes, the second
/// salted, the way serve::request_key addresses a request.
std::string digest128(const std::string& bytes) {
  const std::uint64_t lo = serve::fnv1a64(bytes);
  const std::uint64_t hi =
      serve::fnv1a64(bytes, serve::fnv1a64("scl-artifact-salt"));
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::string design_key(const sim::DesignConfig& config) {
  std::string out;
  for (const std::int64_t v : config.key().v) {
    if (!out.empty()) out += ',';
    out += std::to_string(v);
  }
  return out;
}

/// "<design key>|<predicted>|<simulated>" of one family's winner.
std::string family_cell(const core::DesignPoint& point,
                        const sim::SimResult& sim) {
  return str_cat(design_key(point.config), '|',
                 hex(point.prediction.total_cycles), '|',
                 hex(static_cast<double>(sim.total_cycles)));
}

std::string codes_cell(const std::vector<support::Diagnostic>& diags) {
  std::string out;
  for (const support::Diagnostic& diag : diags) {
    if (!out.empty()) out += ',';
    out += diag.code;
  }
  return out.empty() ? "-" : out;
}

std::string run_case(const stencil::StencilProgram& program,
                     const fpga::DeviceSpec& device,
                     core::FamilySelection family) {
  core::FrameworkOptions options;
  options.optimizer.device = device;
  options.family = family;
  const std::string key =
      serve::request_key(stencil::program_to_text(program), options);
  try {
    const core::SynthesisReport report =
        core::Framework(program, options).synthesize();
    const std::string bytes =
        serve::serialize_artifact(serve::make_artifact(key, report));
    const core::DseStats& dse = report.dse;
    return str_cat(
        key, '\t', digest128(bytes), '\t',
        arch::to_string(report.selected_family), '\t',
        family_cell(report.baseline, report.baseline_sim), '\t',
        family_cell(report.heterogeneous, report.heterogeneous_sim), '\t',
        report.temporal ? family_cell(*report.temporal, report.temporal_sim)
                        : std::string("-"),
        '\t', dse.candidates_evaluated, ',', dse.candidates_pruned, ',',
        dse.candidates_bounded, ',', dse.cache_hits, ',', dse.cache_misses,
        '\t', report.frontier.size(), '\t',
        codes_cell(report.analysis.diagnostics()));
  } catch (const ResourceError& e) {
    return str_cat(key, "\tno-fit\t", e.what());
  } catch (const core::VerificationError& e) {
    return str_cat(key, "\tverify-fail\t", codes_cell(e.diagnostics()));
  }
}

}  // namespace

const std::vector<std::string>& contract_devices() {
  static const std::vector<std::string> devices{"xc7vx690t", "xcu280",
                                                "s10mx"};
  return devices;
}

std::string contract_header() {
  return "# kernel\tdevice\tscale\tfamily\trequest_key\tartifact_digest\t"
         "selected\tbaseline(key|predicted|simulated)\t"
         "heterogeneous(key|predicted|simulated)\t"
         "temporal(key|predicted|simulated)\t"
         "dse(evaluated,pruned,bounded,cache_hits,cache_misses)\tfrontier\t"
         "scl_codes";
}

std::vector<std::string> contract_rows(const std::string& device_name) {
  const fpga::DeviceSpec device = fpga::find_device(device_name);
  std::vector<std::string> rows;
  for (const stencil::BenchmarkInfo& info : stencil::paper_benchmarks()) {
    for (const bool paper : {true, false}) {
      const stencil::StencilProgram program =
          paper ? info.make_paper_scale() : small_grid(info);
      for (const core::FamilySelection family :
           {core::FamilySelection::kAuto, core::FamilySelection::kPipeTiling,
            core::FamilySelection::kTemporalShift}) {
        rows.push_back(str_cat(info.name, '\t', device_name, '\t',
                               paper ? "paper" : "small", '\t',
                               core::to_string(family), '\t',
                               run_case(program, device, family)));
      }
    }
  }
  return rows;
}

}  // namespace scl::contract
