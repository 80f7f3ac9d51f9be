#include "codegen/fused_op_gen.hpp"

#include "codegen/boundary_gen.hpp"
#include "stencil/formula.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::codegen {

using scl::sim::TilePlacement;
using scl::stencil::Offset;
using scl::stencil::Stage;

std::string index_macro(const GenContext& ctx, int k) {
  (void)ctx;
  return str_cat("K", k, "_IDX");
}

std::string render_loop_nest(const GenContext& ctx, const LoopBounds& bounds,
                             const std::string& body, int indent) {
  const int dims = ctx.program->dims();
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out;
  for (int d = 0; d < dims; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    out += str_cat(pad, std::string(static_cast<std::size_t>(2 * d), ' '),
                   "for (int i", d, " = ", bounds.lo[ds], "; i", d, " < ",
                   bounds.hi[ds], "; ++i", d, ")",
                   d + 1 == dims ? " {\n" : "\n");
  }
  const std::string inner_pad =
      pad + std::string(static_cast<std::size_t>(2 * dims), ' ');
  for (const std::string& line : split(body, '\n')) {
    if (!line.empty()) out += inner_pad + line + "\n";
  }
  out += pad + std::string(static_cast<std::size_t>(2 * (dims - 1)), ' ') +
         "}\n";
  return out;
}

namespace {

/// "buf_A[K0_IDX(i0 + 1, i1)]" style access for a read at `off`.
std::string buffer_access(const GenContext& ctx, int k, int field,
                          const Offset& off) {
  std::vector<std::string> args;
  for (int d = 0; d < ctx.program->dims(); ++d) {
    const int o = off[static_cast<std::size_t>(d)];
    if (o == 0) {
      args.push_back(str_cat("i", d));
    } else if (o > 0) {
      args.push_back(str_cat("i", d, " + ", o));
    } else {
      args.push_back(str_cat("i", d, " - ", -o));
    }
  }
  return str_cat(ctx.buffer_name(field), "[", index_macro(ctx, k), "(",
                 join(args, ", "), ")]");
}

/// "K0_IDX(i0, i1)" for the loop's current cell.
std::string cell_index(const GenContext& ctx, int k) {
  std::vector<std::string> args;
  for (int d = 0; d < ctx.program->dims(); ++d) {
    args.push_back(str_cat("i", d));
  }
  return str_cat(index_macro(ctx, k), "(", join(args, ", "), ")");
}

std::string self_access(const GenContext& ctx, int k, int field) {
  return buffer_access(ctx, k, field, Offset{0, 0, 0});
}

/// The compute statement of one stage.
std::string stage_statement(const GenContext& ctx, int k, int stage_index) {
  const Stage& stage = ctx.program->stage(stage_index);
  if (!stage.formula) {
    throw Error(str_cat("stage '", stage.name,
                        "' has no symbolic formula; build it with "
                        "make_stage() to enable code generation"));
  }
  const std::string expr = stage.formula->render(
      [&](int field, const Offset& off) {
        return buffer_access(ctx, k, field, off);
      });
  const bool shadow = ctx.program->stage_needs_double_buffer(stage_index);
  const std::string target =
      shadow ? ctx.buffer_name(stage.output_field) + "_new"
             : ctx.buffer_name(stage.output_field);
  return str_cat(target, "[", cell_index(ctx, k), "] = ", expr, ";");
}

/// Bounds of the strip of width `w` just inside (`inside`=true) or just
/// outside the tile edge across face (d, side), tangentially following
/// `base` bounds.
LoopBounds strip_bounds(const GenContext& ctx, int k, const LoopBounds& base,
                        int d, int side, std::int64_t w, bool inside) {
  LoopBounds out = base;
  const auto ds = static_cast<std::size_t>(d);
  const std::string edge = tile_edge_expr(ctx, k, d, side);
  if (side == 0) {
    if (inside) {
      out.lo[ds] = edge;
      out.hi[ds] = str_cat("(", edge, " + ", w, ")");
    } else {
      out.lo[ds] = str_cat("(", edge, " - ", w, ")");
      out.hi[ds] = edge;
    }
  } else {
    if (inside) {
      out.lo[ds] = str_cat("(", edge, " - ", w, ")");
      out.hi[ds] = edge;
    } else {
      out.lo[ds] = edge;
      out.hi[ds] = str_cat("(", edge, " + ", w, ")");
    }
  }
  return out;
}

}  // namespace

std::string render_fused_iterations(const GenContext& ctx, int k) {
  const auto& prog = *ctx.program;
  const TilePlacement& tile = ctx.tile(k);
  std::string out;
  out += "  for (int it = 1; it <= pass_h; ++it) {\n";

  for (int s = 0; s < prog.stage_count(); ++s) {
    const Stage& stage = prog.stage(s);
    const LoopBounds bounds = stage_compute_bounds(ctx, k, s);
    const std::string statement = stage_statement(ctx, k, s);
    out += str_cat("    // ---- stage ", s, ": ", stage.name, " ----\n");

    // Interior (independent) cells first: bounds inset by the stage's
    // read radius on pipe-shared faces, so no cell below touches a halo
    // that is still in flight (paper SS3.1 latency hiding).
    LoopBounds interior = bounds;
    bool has_dependent = false;
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      for (int side = 0; side < 2; ++side) {
        if (tile.exterior[ds][static_cast<std::size_t>(side)]) continue;
        const std::int64_t rho =
            prog.stage_radii(s)[ds][static_cast<std::size_t>(side)];
        if (rho == 0) continue;
        has_dependent = true;
        const std::string edge = tile_edge_expr(ctx, k, d, side);
        if (side == 0) {
          interior.lo[ds] = str_cat("(", edge, " + ", rho, ")");
        } else {
          interior.hi[ds] = str_cat("(", edge, " - ", rho, ")");
        }
      }
    }
    out += "    // independent cells\n";
    out += render_loop_nest(ctx, interior, statement, 4);

    // Dependent cells: one strip per inset face.
    if (has_dependent) {
      out += "    // dependent (boundary) cells\n";
      LoopBounds rem = bounds;
      for (int d = 0; d < prog.dims(); ++d) {
        const auto ds = static_cast<std::size_t>(d);
        for (int side = 0; side < 2; ++side) {
          if (tile.exterior[ds][static_cast<std::size_t>(side)]) continue;
          const std::int64_t rho =
              prog.stage_radii(s)[ds][static_cast<std::size_t>(side)];
          if (rho == 0) continue;
          const LoopBounds strip =
              strip_bounds(ctx, k, rem, d, side, rho, /*inside=*/true);
          out += render_loop_nest(ctx, strip, statement, 4);
          const std::string edge = tile_edge_expr(ctx, k, d, side);
          if (side == 0) {
            rem.lo[ds] = str_cat("(", edge, " + ", rho, ")");
          } else {
            rem.hi[ds] = str_cat("(", edge, " - ", rho, ")");
          }
        }
      }
    }

    // Commit the shadow copy for double-buffered stages.
    if (prog.stage_needs_double_buffer(s)) {
      out += "    // commit double-buffered output\n";
      const std::string idx = cell_index(ctx, k);
      const std::string commit =
          str_cat(ctx.buffer_name(stage.output_field), "[", idx, "] = ",
                  ctx.buffer_name(stage.output_field), "_new[", idx, "];");
      out += render_loop_nest(ctx, bounds, commit, 4);
    }

    // Symmetric per-stage pipe exchange of the stage output's boundary
    // strips: push ours, then pull the neighbor's into the halo.
    const int f = stage.output_field;
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      for (int side = 0; side < 2; ++side) {
        if (tile.exterior[ds][static_cast<std::size_t>(side)]) continue;
        const int nb = ctx.neighbor_index(tile, d, side);
        const auto opp = static_cast<std::size_t>(side == 0 ? 1 : 0);
        const std::int64_t w_send = prog.field_read_radii(f)[ds][opp];
        if (w_send > 0) {
          out += str_cat("    // send ", prog.field(f).name,
                         " boundary to kernel ", nb, "\n");
          const LoopBounds strip =
              strip_bounds(ctx, k, bounds, d, side, w_send, /*inside=*/true);
          const std::string body =
              str_cat("float v = ", self_access(ctx, k, f),
                      ";\nwrite_pipe_block(",
                      ctx.pipe_name(tile.kernel_index, nb), ", &v);");
          out += render_loop_nest(ctx, strip, body, 4);
        }
        const std::int64_t w_recv = prog.field_read_radii(f)[ds][side];
        if (w_recv > 0) {
          out += str_cat("    // receive ", prog.field(f).name,
                         " halo from kernel ", nb, "\n");
          const LoopBounds strip = strip_bounds(ctx, k, bounds, d, side,
                                                w_recv, /*inside=*/false);
          const std::string body =
              str_cat("float v;\nread_pipe_block(",
                      ctx.pipe_name(nb, tile.kernel_index), ", &v);\n",
                      self_access(ctx, k, f), " = v;");
          out += render_loop_nest(ctx, strip, body, 4);
        }
      }
    }
  }

  out += "  }\n";
  return out;
}

}  // namespace scl::codegen
