// Code-generation inspector.
//
//   $ codegen_inspect [benchmark-name]
//
// Generates the heterogeneous OpenCL kernels for a small instance of the
// chosen benchmark (2x2 kernels so the output stays readable), verifies
// the sources (delimiters, pipe pairing, and pass 4's kernel-IR checks),
// and prints the kernel with a short summary. Useful for seeing exactly
// what the three generators (boundary, pipes, fused operation) emit.
#include <iostream>

#include "codegen/opencl_emitter.hpp"
#include "core/verify.hpp"
#include "stencil/kernels.hpp"

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "FDTD-2D";
  try {
    const scl::stencil::BenchmarkInfo& info =
        scl::stencil::find_benchmark(name);
    std::array<std::int64_t, 3> extents{1, 1, 1};
    scl::sim::DesignConfig config;
    config.kind = scl::sim::DesignKind::kHeterogeneous;
    config.fused_iterations = 4;
    config.unroll = 4;
    for (int d = 0; d < info.dims; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      extents[ds] = 64;
      config.parallelism[ds] = d < 2 ? 2 : 1;
      config.tile_size[ds] = 32;
    }
    const scl::stencil::StencilProgram program =
        info.make_scaled(extents, 16);
    const scl::codegen::GeneratedCode code = scl::codegen::generate_opencl(
        program, config, scl::fpga::virtex7_690t());

    scl::support::DiagnosticEngine diags;
    scl::core::verify_generated_sources(code, &diags);
    scl::core::verify_generated_ir(program, config, code, &diags);
    const auto& issues = diags.diagnostics();
    std::cout << code.kernel_source << "\n";
    std::cout << "// ---- summary: " << code.kernel_count << " kernels, "
              << code.pipe_count << " pipes, validation "
              << (diags.has_errors() ? "FAILED" : "clean") << " ----\n";
    for (const auto& issue : issues) {
      std::cout << "//   " << scl::support::to_string(issue.severity) << ": "
                << issue.code << " " << issue.message << "\n";
    }
    return diags.has_errors() ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
