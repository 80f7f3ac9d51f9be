#include "codegen/opencl_emitter.hpp"

#include "codegen/boundary_gen.hpp"
#include "codegen/fused_op_gen.hpp"
#include "codegen/pipe_gen.hpp"
#include "codegen/temporal_gen.hpp"
#include "support/observability/observability.hpp"
#include "support/strings.hpp"

namespace scl::codegen {

using scl::sim::DesignKind;
using scl::sim::TilePlacement;
using scl::stencil::StencilProgram;

namespace {

/// Static padded buffer extent of kernel `k` along dimension `d` (worst
/// case, ignoring grid clipping — local arrays need compile-time sizes).
std::int64_t buffer_extent(const GenContext& ctx, int k, int d) {
  const auto& prog = *ctx.program;
  const TilePlacement& tile = ctx.tile(k);
  const auto ds = static_cast<std::size_t>(d);
  std::int64_t extent = tile.box.hi[ds] - tile.box.lo[ds];
  for (int side = 0; side < 2; ++side) {
    const auto ss = static_cast<std::size_t>(side);
    extent += tile.exterior[ds][ss]
                  ? prog.iter_radii()[ds][ss] * ctx.config.fused_iterations
                  : prog.max_stage_radii()[ds][ss];
  }
  return extent;
}

std::string render_kernel_defines(const GenContext& ctx, int k) {
  const auto& prog = *ctx.program;
  std::string out;
  // Buffer origin (runtime, clamped to the grid) and static extents.
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const TilePlacement& tile = ctx.tile(k);
    const std::int64_t lo_margin =
        tile.exterior[ds][0]
            ? prog.iter_radii()[ds][0] * ctx.config.fused_iterations
            : prog.max_stage_radii()[ds][0];
    out += str_cat("#define K", k, "_B", d, "_LO max(",
                   tile_edge_expr(ctx, k, d, 0), " - ", lo_margin, ", 0)\n");
    out += str_cat("#define K", k, "_B", d, "_EXT ", buffer_extent(ctx, k, d),
                   "\n");
  }
  // Flattened local index macro.
  std::vector<std::string> params;
  std::string expr;
  for (int d = 0; d < prog.dims(); ++d) {
    params.push_back(str_cat("i", d));
    if (d == 0) {
      expr = str_cat("((i0) - K", k, "_B0_LO)");
    } else {
      expr = str_cat("(", expr, " * K", k, "_B", d, "_EXT + ((i", d, ") - K",
                     k, "_B", d, "_LO))");
    }
  }
  out += str_cat("#define ", index_macro(ctx, k), "(", join(params, ", "),
                 ") ", expr, "\n");
  return out;
}

std::string render_global_index_macro(const GenContext& ctx) {
  const auto& prog = *ctx.program;
  std::string out = "#define GIDX(";
  std::vector<std::string> params;
  std::string expr;
  for (int d = 0; d < prog.dims(); ++d) {
    params.push_back(str_cat("i", d));
    if (d == 0) {
      // The flat index is computed in 64 bits: at paper-scale grids the
      // row-major product exceeds INT32_MAX and OpenCL `int` wraps on the
      // device (caught by the SCL405 kernel-IR check).
      expr = "((long)(i0))";
    } else {
      expr = str_cat("(", expr, " * ", prog.grid_box().extent(d), " + (i", d,
                     "))");
    }
  }
  out += join(params, ", ") + ") " + expr + "\n";
  return out;
}

std::string render_kernel(const GenContext& ctx, int k) {
  const auto& prog = *ctx.program;
  std::string out;
  out += render_kernel_defines(ctx, k);

  out += render_kernel_signature(ctx, k);

  // Local buffers (plus shadow copies for double-buffered stages).
  std::string size_expr;
  for (int d = 0; d < prog.dims(); ++d) {
    if (d > 0) size_expr += " * ";
    size_expr += str_cat("K", k, "_B", d, "_EXT");
  }
  for (int f = 0; f < prog.field_count(); ++f) {
    out += str_cat("  __local float ", ctx.buffer_name(f), "[", size_expr,
                   "];\n");
  }
  for (int s = 0; s < prog.stage_count(); ++s) {
    if (prog.stage_needs_double_buffer(s)) {
      out += str_cat("  __local float ",
                     ctx.buffer_name(prog.stage(s).output_field), "_new[",
                     size_expr, "];\n");
    }
  }

  // Burst read of the full buffer footprint.
  out += "  // burst read from global memory\n";
  const LoopBounds buf = buffer_bounds(ctx, k);
  for (int f = 0; f < prog.field_count(); ++f) {
    std::vector<std::string> ivars;
    for (int d = 0; d < prog.dims(); ++d) ivars.push_back(str_cat("i", d));
    const std::string body = str_cat(
        ctx.buffer_name(f), "[", index_macro(ctx, k), "(", join(ivars, ", "),
        ")] = ", ctx.global_in_name(f), "[GIDX(", join(ivars, ", "), ")];");
    out += render_loop_nest(ctx, buf, body, 2);
  }
  out += "  barrier(CLK_LOCAL_MEM_FENCE);\n\n";

  out += render_fused_iterations(ctx, k);

  // Burst write of the owned cells.
  out += "\n  // burst write back to global memory\n";
  for (int f = 0; f < prog.field_count(); ++f) {
    if (prog.is_constant_field(f)) continue;
    const LoopBounds owned = owned_bounds(ctx, k, f);
    std::vector<std::string> ivars;
    for (int d = 0; d < prog.dims(); ++d) ivars.push_back(str_cat("i", d));
    const std::string body = str_cat(
        ctx.global_out_name(f), "[GIDX(", join(ivars, ", "), ")] = ",
        ctx.buffer_name(f), "[", index_macro(ctx, k), "(", join(ivars, ", "),
        ")];");
    out += render_loop_nest(ctx, owned, body, 2);
  }
  out += "}\n";
  return out;
}

/// The dimension whose region rows are strip-partitioned across replicas:
/// the one with the most regions (ties break toward dimension 0), so the
/// partition has the most rows to hand out.
int replication_dim(const GenContext& ctx) {
  const auto& prog = *ctx.program;
  int best = 0;
  std::int64_t best_count = 0;
  for (int d = 0; d < prog.dims(); ++d) {
    const std::int64_t count =
        (prog.grid_box().extent(d) + ctx.config.region_extent(d) - 1) /
        ctx.config.region_extent(d);
    if (count > best_count) {
      best = d;
      best_count = count;
    }
  }
  return best;
}

/// Kernel-function name of text-kernel `k` within replica `rep`. The
/// temporal cascade is one kernel text whose compute units are replicated
/// at link time (--nk stencil_k0:R), so every replica binds "stencil_k0";
/// pipe-tiling replicas own distinct kernel texts.
std::string kernel_fn_name(const GenContext& ctx, int rep, int k) {
  if (ctx.config.family == arch::DesignFamily::kTemporalShift) {
    return "stencil_k0";
  }
  return str_cat("stencil_k",
                 rep * static_cast<int>(ctx.config.total_kernels()) + k);
}

/// Binds kernel object `k<idx>`'s arguments in render_kernel_signature's
/// order (ping-pong source and destination per mutable field, the region
/// origin, the pass depth) and enqueues it on `queue`.
std::string render_enqueue(const GenContext& ctx, int idx,
                           const std::string& queue,
                           const std::string& indent) {
  const auto& prog = *ctx.program;
  std::string out = str_cat(indent, "{\n", indent, "  int arg = 0;\n");
  for (int f = 0; f < prog.field_count(); ++f) {
    const std::string n = prog.field(f).name;
    if (prog.is_constant_field(f)) {
      out += str_cat(indent, "  CHECK(clSetKernelArg(k", idx,
                     ", arg++, sizeof(cl_mem), &", n, "_a));\n");
    } else {
      out += str_cat(indent, "  cl_mem ", n, "_src = pass_parity == 0 ? ", n,
                     "_a : ", n, "_b;\n");
      out += str_cat(indent, "  cl_mem ", n, "_dst = pass_parity == 0 ? ", n,
                     "_b : ", n, "_a;\n");
      out += str_cat(indent, "  CHECK(clSetKernelArg(k", idx,
                     ", arg++, sizeof(cl_mem), &", n, "_src));\n");
      out += str_cat(indent, "  CHECK(clSetKernelArg(k", idx,
                     ", arg++, sizeof(cl_mem), &", n, "_dst));\n");
    }
  }
  for (int d = 0; d < prog.dims(); ++d) {
    out += str_cat(indent, "  CHECK(clSetKernelArg(k", idx,
                   ", arg++, sizeof(int), &r", d, "));\n");
  }
  out += str_cat(indent, "  CHECK(clSetKernelArg(k", idx,
                 ", arg++, sizeof(int), &pass_h));\n");
  out += str_cat(indent, "  CHECK(clEnqueueTask(", queue, ", k", idx,
                 ", 0, nullptr, nullptr));\n");
  out += str_cat(indent, "}\n");
  return out;
}

/// Host program: ping-ponged global buffers and the region sweep, one
/// queue barrier per region. With R > 1 replicas, each replica gets its
/// own command queue, and the region rows along one dimension are
/// strip-partitioned into R contiguous blocks swept wave by wave (one
/// region per replica per wave), so the replicas run concurrently. R = 1
/// is the one-replica case: one queue and a plain sweep of every
/// dimension.
std::string render_host(const GenContext& ctx,
                        const std::vector<PipeDecl>& pipes) {
  const auto& prog = *ctx.program;
  const auto& cfg = ctx.config;
  const int replicas = cfg.replication;
  const bool replicated = replicas > 1;
  const int per_replica = cfg.family == arch::DesignFamily::kTemporalShift
                              ? 1
                              : static_cast<int>(cfg.total_kernels());
  // The strip-partitioned dimension; none without replicas.
  const int rd = replicated ? replication_dim(ctx) : -1;

  std::string out;
  out += str_cat(
      "// Host program generated by stencilcl for ", prog.name(), "\n",
      "// Design: ", cfg.summary(prog.dims()), " (", pipes.size(), " pipes",
      replicated ? str_cat(", ", replicas, " replicas") : std::string(),
      ")\n",
      "#include <CL/cl.h>\n#include <cstdio>\n#include <cstdlib>\n"
      "#include <vector>\n\n"
      "#define CHECK(err)                                         \\\n"
      "  if ((err) != CL_SUCCESS) {                               \\\n"
      "    std::fprintf(stderr, \"OpenCL error %d at line %d\\n\", \\\n"
      "                 (err), __LINE__);                         \\\n"
      "    std::exit(1);                                          \\\n"
      "  }\n\n");

  std::int64_t grid_cells = 1;
  for (int d = 0; d < prog.dims(); ++d) grid_cells *= prog.grid_box().extent(d);
  out += str_cat("static const size_t kGridCells = ", grid_cells, ";\n");
  out += str_cat("static const int kPassH = ", cfg.fused_iterations, ";\n");
  out += str_cat("static const int kIterations = ", prog.iterations(), ";\n");
  for (int d = 0; d < prog.dims(); ++d) {
    out += str_cat("static const int kRegionExtent", d, " = ",
                   cfg.region_extent(d), ";\n");
    out += str_cat("static const int kGridExtent", d, " = ",
                   prog.grid_box().extent(d), ";\n");
  }
  if (replicated) {
    const std::int64_t rows =
        (prog.grid_box().extent(rd) + cfg.region_extent(rd) - 1) /
        cfg.region_extent(rd);
    out += str_cat("static const int kReplicas = ", replicas,
                   ";  // spatial PEs on disjoint HBM bank groups\n");
    out += str_cat("static const int kStripWaves = ",
                   (rows + replicas - 1) / replicas,
                   ";  // region rows along dim ", rd, " per replica\n");
  }

  out += R"(
int main() {
  cl_int err = CL_SUCCESS;
  cl_platform_id platform;
  CHECK(clGetPlatformIDs(1, &platform, nullptr));
  cl_device_id device;
  CHECK(clGetDeviceIDs(platform, CL_DEVICE_TYPE_ACCELERATOR, 1, &device,
                       nullptr));
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  CHECK(err);
)";
  out += replicated ? R"(  // One out-of-order queue per replica: replicas sweep their strips
  // concurrently, each queue still orders its own region barrier.
  cl_command_queue queues[kReplicas];
  for (int q = 0; q < kReplicas; ++q) {
    queues[q] = clCreateCommandQueue(
        context, device, CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE, &err);
    CHECK(err);
  }
)"
                    : R"(  cl_command_queue queue = clCreateCommandQueue(
      context, device, CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE, &err);
  CHECK(err);
)";
  out += R"(
  // Load the xclbin produced by the SDAccel compile of the generated
  // kernels (xocc -t hw stencil_kernels.cl).
  // ... clCreateProgramWithBinary elided: platform specific ...
  cl_program program = nullptr;  // created from the xclbin
)";

  // Buffers: ping-pong pairs per mutable field, single buffer for
  // constant fields.
  for (int f = 0; f < prog.field_count(); ++f) {
    const std::string n = prog.field(f).name;
    out += str_cat("  std::vector<float> host_", n, "(kGridCells);\n");
    out += str_cat("  cl_mem ", n,
                   "_a = clCreateBuffer(context, CL_MEM_READ_WRITE,\n"
                   "      kGridCells * sizeof(float), nullptr, &err);\n"
                   "  CHECK(err);\n");
    if (!prog.is_constant_field(f)) {
      out += str_cat("  cl_mem ", n,
                     "_b = clCreateBuffer(context, CL_MEM_READ_WRITE,\n"
                     "      kGridCells * sizeof(float), nullptr, &err);\n"
                     "  CHECK(err);\n");
    }
  }

  out += "\n  // one kernel object per synthesized compute unit\n";
  for (int rep = 0; rep < replicas; ++rep) {
    for (int k = 0; k < per_replica; ++k) {
      out += str_cat("  cl_kernel k", rep * per_replica + k,
                     " = clCreateKernel(program, \"",
                     kernel_fn_name(ctx, rep, k), "\", &err);\n  CHECK(err);\n");
    }
  }

  // Region sweep: the wave loop along the replicated dimension, plain
  // sweeps elsewhere.
  out += R"(
  int pass_parity = 0;
  for (int t = 0; t < kIterations; t += kPassH) {
    const int pass_h = t + kPassH <= kIterations ? kPassH : kIterations - t;
)";
  std::string indent = "    ";
  if (replicated) {
    out += str_cat(indent, "for (int w = 0; w < kStripWaves; ++w) {\n");
    indent += "  ";
  }
  for (int d = 0; d < prog.dims(); ++d) {
    if (d == rd) continue;
    out += str_cat(indent, "for (int r", d, " = 0; r", d, " < kGridExtent", d,
                   "; r", d, " += kRegionExtent", d, ") {\n");
    indent += "  ";
  }
  if (replicated) {
    out += str_cat(indent, "// one region per replica per wave: replica p "
                           "owns wave rows p*kStripWaves .. "
                           "p*kStripWaves + kStripWaves - 1\n");
    for (int rep = 0; rep < replicas; ++rep) {
      out += str_cat(indent, "{\n");
      out += str_cat(indent, "  const int r", rd, " = (", rep,
                     " * kStripWaves + w) * kRegionExtent", rd, ";\n");
      out += str_cat(indent, "  if (r", rd, " < kGridExtent", rd, ") {\n");
      for (int k = 0; k < per_replica; ++k) {
        out += render_enqueue(ctx, rep * per_replica + k,
                              str_cat("queues[", rep, "]"), indent + "    ");
      }
      out += str_cat(indent, "  }\n");
      out += str_cat(indent, "}\n");
    }
    out += str_cat(indent,
                   "for (int q = 0; q < kReplicas; ++q) {\n", indent,
                   "  CHECK(clFinish(queues[q]));  // per-replica region "
                   "barrier\n", indent, "}\n");
  } else {
    out += str_cat(indent,
                   "// bind ping-pong buffers and enqueue the region's ",
                   per_replica, " kernels\n");
    for (int k = 0; k < per_replica; ++k) {
      out += render_enqueue(ctx, k, "queue", indent);
    }
    out += str_cat(indent,
                   "CHECK(clFinish(queue));  // inter-kernel synchronization "
                   "barrier\n");
  }
  while (indent.size() > 4) {
    indent.resize(indent.size() - 2);
    out += indent + "}\n";
  }
  out += R"(    pass_parity ^= 1;
  }

  // read back the final state (elided: clEnqueueReadBuffer per field)
)";
  out += replicated ? R"(  for (int q = 0; q < kReplicas; ++q) {
    clReleaseCommandQueue(queues[q]);
  }
)"
                    : "  clReleaseCommandQueue(queue);\n";
  out += R"(  clReleaseContext(context);
  return 0;
}
)";
  return out;
}

}  // namespace

GeneratedCode generate_opencl(const StencilProgram& program,
                              const sim::DesignConfig& config,
                              const fpga::DeviceSpec& device) {
  const auto span =
      scl::support::obs::tracer().span("codegen/emit", "codegen");
  const GenContext ctx = GenContext::create(program, config, device);
  const std::vector<PipeDecl> pipes = enumerate_pipes(ctx);

  GeneratedCode out;
  // Distinct kernel functions in the emitted source: the temporal cascade
  // is one text whose R compute units are stamped at link time (--nk),
  // while pipe-tiling replicas own distinct pipe-wired kernel texts.
  out.kernel_count =
      config.family == arch::DesignFamily::kTemporalShift
          ? 1
          : ctx.kernel_count();
  out.pipe_count = static_cast<int>(pipes.size());

  std::string src;
  src += str_cat("// Generated by stencilcl — ", program.name(), "\n// ",
                 config.summary(program.dims()), "\n// Target device: ",
                 device.name, "\n\n");
  src += render_global_index_macro(ctx);
  if (config.family == arch::DesignFamily::kTemporalShift) {
    // Single pipe-free cascade kernel; the host sweep is unchanged.
    src += "\n";
    src += render_temporal_kernel(ctx);
    src += "\n";
  } else {
    src += "\n// data-sharing pipes (one read + one write pipe per adjacent "
           "kernel pair)\n";
    src += render_pipe_declarations(pipes);
    src += "\n";
    for (int k = 0; k < ctx.kernel_count(); ++k) {
      src += render_kernel(ctx, k);
      src += "\n";
    }
  }
  out.kernel_source = std::move(src);
  out.host_source = render_host(ctx, pipes);

  std::string script;
  script += str_cat(
      "#!/usr/bin/env bash\n"
      "# SDAccel build for the generated ", program.name(),
      " accelerator (", device.name, ", ",
      static_cast<int>(device.clock_mhz), " MHz).\n"
      "set -euo pipefail\n\n"
      "PLATFORM=${PLATFORM:-xilinx_adm-pcie-7v3_1ddr_3_0}\n\n"
      "xocc -t hw --platform \"$PLATFORM\" \\\n"
      "  --kernel_frequency ", static_cast<int>(device.clock_mhz), " \\\n");
  if (config.family == arch::DesignFamily::kTemporalShift) {
    // Pipe-free cascade: compute-unit replication at link time is safe
    // (no channel endpoints to disambiguate) and serves all R replicas.
    script += str_cat("  --nk stencil_k0:", config.replication, " \\\n");
  } else {
    for (int k = 0; k < ctx.kernel_count(); ++k) {
      script += str_cat("  --nk stencil_k", k, ":1 \\\n");
    }
  }
  script +=
      "  -o stencil.xclbin stencil_kernels.cl\n\n"
      "g++ -std=c++17 -O2 stencil_host.cpp -lOpenCL -o stencil_host\n";
  out.build_script = std::move(script);
  if (scl::support::obs::enabled()) {
    static auto& emits = scl::support::obs::metrics().counter(
        "scl_codegen_emits_total", "generated OpenCL source bundles");
    static auto& bytes = scl::support::obs::metrics().counter(
        "scl_codegen_source_bytes_total",
        "bytes of generated kernel + host source");
    emits.increment();
    bytes.add(static_cast<std::int64_t>(out.kernel_source.size() +
                                        out.host_source.size()));
  }
  return out;
}

}  // namespace scl::codegen
