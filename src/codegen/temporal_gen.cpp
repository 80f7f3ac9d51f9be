#include "codegen/temporal_gen.hpp"

#include <vector>

#include "arch/temporal_layout.hpp"
#include "stencil/formula.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::codegen {

using scl::arch::TemporalLayout;
using scl::arch::TemporalReg;
using scl::stencil::Offset;
using scl::stencil::Stage;

namespace {

/// Register array name of stream (field, state), e.g. "sr_temp_1".
std::string reg_name(const GenContext& ctx, const TemporalReg& reg) {
  return str_cat("sr_", ctx.program->field(reg.field).name, "_", reg.state);
}

/// Carrier scalar of fused step t, stage s.
std::string carrier_name(int t, int s) { return str_cat("y_", t, "_", s); }

/// The clamped linear walk cell a delayed consumer sees at tick p:
/// min(max(p - delay, 0), cells - 1). Out-of-range ticks replicate an
/// end cell; every consumer is predicated on the unclamped range, so the
/// replicated coordinates only keep the index arithmetic in bounds.
std::string linear_cell(std::int64_t delay, std::int64_t cells) {
  if (delay == 0) return str_cat("min(p, ", cells - 1, ")");
  return str_cat("min(max(p - ", delay, ", 0), ", cells - 1, ")");
}

/// Local (padded-strip) coordinate of linear cell `q` along dim d, via
/// the constant-stride decomposition q / stride % extent.
std::string local_coord(const TemporalLayout& lay, const std::string& q,
                        int d) {
  const auto ds = static_cast<std::size_t>(d);
  std::string expr = str_cat("(", q, ")");
  const std::int64_t stride = lay.stride(d);
  if (stride > 1) expr = str_cat(expr, " / ", stride);
  if (d > 0) expr = str_cat("(", expr, ") % ", lay.ext[ds]);
  return expr;
}

/// Unclamped global coordinate along dim d of linear cell `q`: region
/// origin minus the strip-dimension pad plus the local coordinate.
std::string global_coord(const GenContext& ctx, const TemporalLayout& lay,
                         const std::string& q, int d) {
  const auto ds = static_cast<std::size_t>(d);
  const std::string lc = local_coord(lay, q, d);
  if (lay.pad_lo[ds] > 0) {
    return str_cat(ctx.region_origin(d), " - ", lay.pad_lo[ds], " + ", lc);
  }
  return str_cat(ctx.region_origin(d), " + ", lc);
}

/// GIDX(...) over per-dimension coordinate expressions.
std::string gidx(const GenContext& ctx, const std::vector<std::string>& coords) {
  (void)ctx;
  return str_cat("GIDX(", join(coords, ", "), ")");
}

/// The formula of stage s at fused step t with every read replaced by a
/// constant-depth shift-register tap.
std::string stage_expression(const GenContext& ctx, const TemporalLayout& lay,
                             int t, int s) {
  const Stage& stage = ctx.program->stage(s);
  if (!stage.formula) {
    throw Error(str_cat("stage '", stage.name,
                        "' has no symbolic formula; build it with "
                        "make_stage() to enable code generation"));
  }
  return stage.formula->render([&](int field, const Offset& off) {
    const int state = lay.source_state(t, s, *ctx.program, field);
    const int ri = lay.reg_index(field, state);
    if (ri < 0) {
      throw Error(str_cat("temporal codegen: stream (",
                          ctx.program->field(field).name, ", state ", state,
                          ") was never materialized"));
    }
    const TemporalReg& reg = lay.regs[static_cast<std::size_t>(ri)];
    const std::int64_t depth = lay.tap_depth(t, s, reg.head_delay, off);
    return str_cat(reg_name(ctx, reg), "[", reg.len - 1 - depth, "]");
  });
}

/// The boundary passthrough tap of stage s at step t: its output field's
/// previous state at offset zero.
std::string passthrough_tap(const GenContext& ctx, const TemporalLayout& lay,
                            int t, int s) {
  const int field = ctx.program->stage(s).output_field;
  const int ri = lay.reg_index(field, t - 1);
  if (ri < 0) {
    throw Error("temporal codegen: passthrough stream missing");
  }
  const TemporalReg& reg = lay.regs[static_cast<std::size_t>(ri)];
  const std::int64_t depth =
      lay.tap_depth(t, s, reg.head_delay, Offset{0, 0, 0});
  return str_cat(reg_name(ctx, reg), "[", reg.len - 1 - depth, "]");
}

/// `p`-range plus per-dimension updated-box membership of the cell a
/// stage computes at tick p (delay D): only these cells apply the update
/// formula; everything else carries its previous state forward.
std::string update_predicate(const GenContext& ctx, const TemporalLayout& lay,
                             int field, std::int64_t delay,
                             const std::string& q) {
  const auto& prog = *ctx.program;
  const stencil::Box updated = prog.updated_box(field);
  std::string pred =
      str_cat("p >= ", delay, " && p < ", delay + lay.cells);
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const std::string g = global_coord(ctx, lay, q, d);
    pred += str_cat(" && ", g, " >= ", updated.lo[ds], " && ", g, " < ",
                    updated.hi[ds]);
  }
  return pred;
}

}  // namespace

std::string render_temporal_kernel(const GenContext& ctx) {
  const auto& prog = *ctx.program;
  const TemporalLayout lay = arch::make_temporal_layout(prog, ctx.config);
  const int dims = prog.dims();
  std::string out;

  out += str_cat(
      "// temporal-blocked shift-register cascade: T = ", lay.temporal_degree,
      " fused steps, strip width ",
      lay.strip[static_cast<std::size_t>(lay.strip_dim)],
      " along dim ", lay.strip_dim, ", vector width ", lay.vector_width,
      "\n// padded walk: ", lay.cells, " cells + ", lay.max_store_delay,
      " drain ticks, ", lay.sr_elements, " shift-register elements\n");

  // The pipe-tiling family's signature, so one host program drives both
  // families. pass_h is unused: the cascade's fused depth T is baked into
  // the delays.
  out += render_kernel_signature(ctx, 0);

  // One shift register per materialized (field, time-state) stream.
  for (const TemporalReg& reg : lay.regs) {
    out += str_cat("  __local float ", reg_name(ctx, reg), "[", reg.len,
                   "];  // ", prog.field(reg.field).name, " state ",
                   reg.state, ", head delay ", reg.head_delay, "\n");
  }

  out += str_cat("  for (int p = 0; p < ", lay.walk_ticks, "; ++p) {\n");

  // 1. Advance every stream by one cell.
  out += "    // advance every stream by one cell\n";
  for (const TemporalReg& reg : lay.regs) {
    if (reg.len < 2) continue;
    const std::string name = reg_name(ctx, reg);
    out += str_cat("    for (int w = 0; w < ", reg.len - 1, "; ++w) {\n",
                   "      ", name, "[w] = ", name, "[w + 1];\n",
                   "    }\n");
  }

  // 2. Feed the state-0 streams from global memory. Coordinates clamp to
  // the grid: strip halo that hangs over a grid edge replicates the edge
  // cell, and those cells are boundary passthrough in every fused step.
  out += "    // feed the input streams with the next padded-strip cell\n";
  const std::string q0 = linear_cell(0, lay.cells);
  for (const TemporalReg& reg : lay.regs) {
    if (reg.state != 0) continue;
    std::vector<std::string> coords;
    for (int d = 0; d < dims; ++d) {
      coords.push_back(
          str_cat("min(max(", global_coord(ctx, lay, q0, d), ", 0), ",
                  prog.grid_box().extent(d) - 1, ")"));
    }
    out += str_cat("    ", reg_name(ctx, reg), "[", reg.len - 1, "] = ",
                   ctx.global_in_name(reg.field), "[", gidx(ctx, coords),
                   "];\n");
  }

  // 3. The T fused steps, stages in program order. Each carrier applies
  // the update formula inside the field's updated box and carries the
  // previous state through elsewhere (Dirichlet boundary and strip halo
  // beyond the grid).
  for (int t = 1; t <= lay.temporal_degree; ++t) {
    for (int s = 0; s < prog.stage_count(); ++s) {
      const Stage& stage = prog.stage(s);
      const std::int64_t delay = lay.compute_delay(t, s);
      const std::string q = linear_cell(delay, lay.cells);
      out += str_cat("    // fused step ", t, ", stage ", s, ": ", stage.name,
                     " (delay ", delay, ")\n");
      out += str_cat("    float ", carrier_name(t, s), " = (",
                     update_predicate(ctx, lay, stage.output_field, delay, q),
                     ") ? ", stage_expression(ctx, lay, t, s), " : ",
                     passthrough_tap(ctx, lay, t, s), ";\n");
      const int ri = lay.reg_index(stage.output_field, t);
      if (ri >= 0) {
        const TemporalReg& reg = lay.regs[static_cast<std::size_t>(ri)];
        out += str_cat("    ", reg_name(ctx, reg), "[", reg.len - 1, "] = ",
                       carrier_name(t, s), ";\n");
      }
    }
  }

  // 4. Drain the final-state carriers to global memory. The target index
  // clamps into the strip's owned slice of the updated box, and the
  // rewrite is an identity outside the store predicate, so clipped and
  // draining ticks never corrupt a neighbor strip or a boundary cell.
  out += "    // store the step-T results of the owned cells\n";
  for (int f = 0; f < prog.field_count(); ++f) {
    const int wf = prog.writing_stage(f);
    if (wf < 0) continue;
    const std::int64_t delay = lay.compute_delay(lay.temporal_degree, wf);
    const std::string q = linear_cell(delay, lay.cells);
    const stencil::Box updated = prog.updated_box(f);
    std::vector<std::string> coords;
    std::string pred = str_cat("p >= ", delay, " && p < ", delay + lay.cells);
    for (int d = 0; d < dims; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      const std::string g = global_coord(ctx, lay, q, d);
      const std::string lo =
          str_cat("max(", ctx.region_origin(d), ", ", updated.lo[ds], ")");
      const std::string hi = str_cat("min(", ctx.region_origin(d), " + ",
                                     lay.strip[ds], ", ", updated.hi[ds], ")");
      coords.push_back(
          str_cat("min(max(", g, ", ", lo, "), ", hi, " - 1)"));
      pred += str_cat(" && ", g, " >= ", lo, " && ", g, " < ", hi);
    }
    const std::string target =
        str_cat(ctx.global_out_name(f), "[", gidx(ctx, coords), "]");
    out += str_cat("    ", target, " = (", pred, ") ? ",
                   carrier_name(lay.temporal_degree, wf), " : ", target,
                   ";\n");
  }

  out += "  }\n}\n";
  return out;
}

}  // namespace scl::codegen
