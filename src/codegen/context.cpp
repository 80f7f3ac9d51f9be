#include "codegen/context.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::codegen {

using scl::sim::DesignKind;
using scl::sim::TilePlacement;

GenContext GenContext::create(const scl::stencil::StencilProgram& program,
                              const sim::DesignConfig& config,
                              const fpga::DeviceSpec& device) {
  config.validate(program);
  GenContext ctx;
  ctx.program = &program;
  ctx.config = config;
  ctx.device = device;

  std::array<std::vector<std::int64_t>, 3> extents;
  std::array<std::vector<std::int64_t>, 3> starts;
  for (int d = 0; d < 3; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    extents[ds] = config.tile_extents(d);
    std::int64_t cursor = 0;
    for (const std::int64_t e : extents[ds]) {
      starts[ds].push_back(cursor);
      cursor += e;
    }
  }

  // R spatial replicas, each a full copy of the K-tile arrangement. The
  // tile geometry is identical per replica (the same nominal region shape
  // is swept from replica-specific host offsets); kernel indices continue
  // across replicas, so replica r owns indices [r*K, (r+1)*K).
  int kernel_index = 0;
  for (int rep = 0; rep < config.replication; ++rep) {
    for (int c0 = 0; c0 < config.parallelism[0]; ++c0) {
      for (int c1 = 0; c1 < config.parallelism[1]; ++c1) {
        for (int c2 = 0; c2 < config.parallelism[2]; ++c2) {
          TilePlacement tile;
          tile.coord = {c0, c1, c2};
          tile.kernel_index = kernel_index++;
          const std::array<int, 3> coord{c0, c1, c2};
          for (int d = 0; d < 3; ++d) {
            const auto ds = static_cast<std::size_t>(d);
            const auto c = static_cast<std::size_t>(coord[ds]);
            tile.box.lo[ds] = starts[ds][c];
            tile.box.hi[ds] = starts[ds][c] + extents[ds][c];
            const bool low = coord[ds] == 0;
            const bool high = coord[ds] == config.parallelism[ds] - 1;
            tile.exterior[ds][0] =
                config.kind == DesignKind::kBaseline || low;
            tile.exterior[ds][1] =
                config.kind == DesignKind::kBaseline || high;
          }
          ctx.tiles.push_back(tile);
        }
      }
    }
  }
  return ctx;
}

int GenContext::neighbor_index(const TilePlacement& t, int d, int side) const {
  std::array<int, 3> nc = t.coord;
  nc[static_cast<std::size_t>(d)] += side == 0 ? -1 : +1;
  for (int i = 0; i < 3; ++i) {
    if (nc[static_cast<std::size_t>(i)] < 0 ||
        nc[static_cast<std::size_t>(i)] >=
            config.parallelism[static_cast<std::size_t>(i)]) {
      return -1;
    }
  }
  // Pipes never cross replicas: the neighbor lives in the same replica's
  // index block as `t`.
  const auto per_replica = static_cast<int>(config.total_kernels());
  const int replica_base = (t.kernel_index / per_replica) * per_replica;
  return replica_base +
         (nc[0] * config.parallelism[1] + nc[1]) * config.parallelism[2] +
         nc[2];
}

std::string GenContext::buffer_name(int field) const {
  return "buf_" + program->field(field).name;
}

std::string GenContext::global_in_name(int field) const {
  return program->field(field).name + "_in";
}

std::string GenContext::global_out_name(int field) const {
  return program->field(field).name + "_out";
}

std::string GenContext::pipe_name(int from_kernel, int to_kernel) const {
  return str_cat("p_k", from_kernel, "_k", to_kernel);
}

std::string GenContext::region_origin(int d) const {
  return str_cat("r", d);
}

std::string render_kernel_signature(const GenContext& ctx, int k) {
  const auto& prog = *ctx.program;
  std::vector<std::string> args;
  for (int f = 0; f < prog.field_count(); ++f) {
    args.push_back(
        str_cat("__global const float* restrict ", ctx.global_in_name(f)));
    if (!prog.is_constant_field(f)) {
      args.push_back(
          str_cat("__global float* restrict ", ctx.global_out_name(f)));
    }
  }
  for (int d = 0; d < prog.dims(); ++d) {
    args.push_back(str_cat("const int ", ctx.region_origin(d)));
  }
  args.push_back("const int pass_h");
  return str_cat("__kernel __attribute__((reqd_work_group_size(1, 1, 1)))\n",
                 "void stencil_k", k, "(", join(args, ",\n               "),
                 ") {\n");
}

}  // namespace scl::codegen
