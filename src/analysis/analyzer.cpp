#include "analysis/analyzer.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "analysis/interval.hpp"
#include "analysis/ir/lower.hpp"
#include "arch/temporal_layout.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::analysis {

using scl::codegen::GenContext;
using scl::codegen::LoopBounds;
using scl::codegen::PipeDecl;
using scl::sim::TilePlacement;
using scl::stencil::StencilProgram;

namespace {

/// The points pass 2 evaluates bounds at, computed once per analysis:
/// region origins per dimension (see analysis::origin_samples) and
/// fused-iteration distances `pass_h - it` in [0, h - 1] — the two ends,
/// or all of them for the exhaustive oracle.
struct Samples {
  explicit Samples(const AnalysisInput& input) {
    const GenContext& ctx = input.ctx;
    for (int d = 0; d < ctx.program->dims(); ++d) {
      origins[static_cast<std::size_t>(d)] = origin_samples(
          ctx.program->grid_box().extent(d), ctx.config.region_extent(d),
          clamp_reach(*ctx.program, ctx.config, d), input.sampling);
    }
    const std::int64_t h = ctx.config.fused_iterations;
    if (h <= 1) {
      dts = {0};
    } else if (input.sampling == Sampling::kVertices) {
      dts = {0, h - 1};
    } else {
      for (std::int64_t dt = 0; dt < h; ++dt) dts.push_back(dt);
    }
  }

  std::array<std::vector<std::int64_t>, 3> origins;
  std::vector<std::int64_t> dts;
};

/// One bound string compiled once; a string that does not parse keeps
/// its error for the SCL209 report.
struct CompiledBound {
  std::string text;
  std::optional<ir::Expr> expr;
  std::string error;
};

/// A codegen::LoopBounds compiled to expressions (owned by a
/// BoundCompiler).
struct CompiledBounds {
  std::array<const CompiledBound*, 3> lo{};
  std::array<const CompiledBound*, 3> hi{};
};

/// Compiles bound strings with the kernel-IR parser, each distinct string
/// once: replicated and mirrored tiles repeat the same bounds many times.
class BoundCompiler {
 public:
  const CompiledBound& compile(const std::string& text) {
    const auto [it, inserted] = cache_.try_emplace(text);
    CompiledBound& out = it->second;
    if (inserted) {
      out.text = text;
      try {
        out.expr = ir::parse_bound_expr(text);
      } catch (const Error& e) {
        out.error = e.what();
      }
    }
    return out;
  }

  CompiledBounds compile(const LoopBounds& bounds) {
    CompiledBounds out;
    for (std::size_t d = 0; d < 3; ++d) {
      out.lo[d] = &compile(bounds.lo[d]);
      out.hi[d] = &compile(bounds.hi[d]);
    }
    return out;
  }

 private:
  std::unordered_map<std::string, CompiledBound> cache_;
};

/// The bound that could not be evaluated, and why.
struct Failure {
  std::string expr;
  std::string why;
};

/// Point environment of pass 2: origin `origin` along dimension d (every
/// other origin 0) and fused-iteration distance dt. boundary_gen writes
/// the distance as `pass_h - it`, so pass_h = dt, it = 0 evaluates it
/// without rewriting the text.
class PointEnv {
 public:
  PointEnv() : env_(ir::SlotTable::fixed()) {}

  void set(int d, std::int64_t origin, std::int64_t dt) {
    env_[ir::kSlotR0] = Interval::point(d == 0 ? origin : 0);
    env_[ir::kSlotR1] = Interval::point(d == 1 ? origin : 0);
    env_[ir::kSlotR2] = Interval::point(d == 2 ? origin : 0);
    env_[ir::kSlotPassH] = Interval::point(dt);
    env_[ir::kSlotIt] = Interval::point(0);
  }

  /// Value of `bound` at the current point, or nullopt with `failure`
  /// naming the bound that did not parse or evaluate.
  std::optional<std::int64_t> eval(const CompiledBound& bound,
                                   Failure* failure) const {
    if (!bound.expr) {
      *failure = {bound.text, bound.error};
      return std::nullopt;
    }
    try {
      return ir::eval_expr(*bound.expr, env_).lo;  // points: lo == hi
    } catch (const Error& e) {
      *failure = {bound.text, str_cat("cannot evaluate bound expression '",
                                      bound.text, "': ", e.what())};
      return std::nullopt;
    }
  }

 private:
  ir::Env env_;
};

/// Emits the "analysis incomplete" diagnostic for the bound that failed,
/// once per (kernel, bound text): every access and dimension that needs
/// the bound fails on it the same way.
void report_unparsable(support::DiagnosticEngine* diags, int kernel,
                       const Failure& failure) {
  std::string message =
      str_cat("loop bound '", failure.expr,
              "' is outside the affine bound language; interval analysis "
              "skipped it");
  std::string location = str_cat("stencil_k", kernel);
  for (const support::Diagnostic& seen : diags->diagnostics()) {
    if (seen.code == "SCL209" && seen.location.detail == location &&
        seen.message == message) {
      return;
    }
  }
  support::Diagnostic& diag = diags->warning("SCL209", std::move(message));
  diag.location = {"kernel", std::move(location), -1};
  diag.notes.push_back(failure.why);
}

int opposite(int side) { return side == 0 ? 1 : 0; }

/// Exterior faces carry the shrinking cone margin, shared faces a
/// one-stage halo — the same rule the emitter and the resource estimator
/// apply.
std::int64_t side_margin(const GenContext& ctx, const TilePlacement& tile,
                         int d, int side) {
  const auto& prog = *ctx.program;
  const auto ds = static_cast<std::size_t>(d);
  const auto ss = static_cast<std::size_t>(side);
  return tile.exterior[ds][ss]
             ? prog.iter_radii()[ds][ss] * ctx.config.fused_iterations
             : prog.max_stage_radii()[ds][ss];
}

/// Static padded local-buffer extent of kernel k along d (the emitter's
/// K<k>_B<d>_EXT value).
std::int64_t static_buffer_extent(const GenContext& ctx, int k, int d) {
  const TilePlacement& tile = ctx.tile(k);
  const auto ds = static_cast<std::size_t>(d);
  return tile.box.hi[ds] - tile.box.lo[ds] + side_margin(ctx, tile, d, 0) +
         side_margin(ctx, tile, d, 1);
}

/// True when any update stage reads non-constant field data across a
/// tile's (d, side) face — i.e. the face needs an incoming halo channel.
bool face_needs_halo(const StencilProgram& prog, int d, int side) {
  const auto ds = static_cast<std::size_t>(d);
  const auto ss = static_cast<std::size_t>(side);
  for (int f = 0; f < prog.field_count(); ++f) {
    if (prog.is_constant_field(f)) continue;
    if (prog.field_read_radii(f)[ds][ss] > 0) return true;
  }
  return false;
}

/// The sample points, the compiled stage compute bounds and the
/// tangential extents derived from them, built on first use and shared by
/// the passes of one analyze() call (pass 1 and pass 3 both price every
/// pipe face).
class DesignBounds {
 public:
  explicit DesignBounds(const AnalysisInput& input)
      : input_(input),
        samples_(input),
        stages_(input.ctx.program->stage_count()),
        bounds_(static_cast<std::size_t>(input.ctx.kernel_count() * stages_)),
        tangential_(bounds_.size() * 3) {}

  const Samples& samples() const { return samples_; }

  CompiledBounds compile(const LoopBounds& bounds) {
    return compiler_.compile(bounds);
  }

  const CompiledBounds& bounds(int k, int stage) {
    std::optional<CompiledBounds>& slot =
        bounds_[static_cast<std::size_t>(k * stages_ + stage)];
    if (!slot) {
      slot = compile(codegen::stage_compute_bounds(input_.ctx, k, stage));
    }
    return *slot;
  }

  /// Largest tangential extent (product over dimensions != d) any
  /// stage-s boundary strip of kernel k can reach, from the generated
  /// stage compute bounds at the sampled region origins and iteration
  /// distances. -1 when a bound fails (reported once).
  std::int64_t tangential(int k, int stage, int d,
                          support::DiagnosticEngine* diags) {
    std::optional<std::int64_t>& slot = tangential_[static_cast<std::size_t>(
        (k * stages_ + stage) * 3 + d)];
    if (!slot) slot = compute_tangential(k, stage, d, diags);
    return *slot;
  }

  /// Elements one (iteration, stage) exchange phase pushes into the
  /// channel from kernel `k` across its (d, side) face before the kernel
  /// reads anything back — the boundary-layer volume the FIFO must
  /// absorb. -1 when bounds were unparsable.
  std::int64_t max_phase_volume(int k, int d, int side,
                                support::DiagnosticEngine* diags) {
    const StencilProgram& prog = *input_.ctx.program;
    const auto ds = static_cast<std::size_t>(d);
    std::int64_t worst = 0;
    for (int s = 0; s < prog.stage_count(); ++s) {
      const int f = prog.stage(s).output_field;
      const std::int64_t width = prog.field_read_radii(
          f)[ds][static_cast<std::size_t>(opposite(side))];
      if (width == 0) continue;
      const std::int64_t extent = tangential(k, s, d, diags);
      if (extent < 0) return -1;
      worst = std::max(worst, width * extent);
    }
    return worst;
  }

 private:
  std::int64_t compute_tangential(int k, int stage, int d,
                                  support::DiagnosticEngine* diags) {
    const CompiledBounds& compiled = bounds(k, stage);
    PointEnv env;
    std::int64_t product = 1;
    for (int other = 0; other < input_.ctx.program->dims(); ++other) {
      if (other == d) continue;
      const auto os = static_cast<std::size_t>(other);
      std::int64_t best = 0;
      for (const std::int64_t origin : samples_.origins[os]) {
        for (const std::int64_t dt : samples_.dts) {
          env.set(other, origin, dt);
          Failure failure;
          const std::optional<std::int64_t> lo =
              env.eval(*compiled.lo[os], &failure);
          const std::optional<std::int64_t> hi =
              lo ? env.eval(*compiled.hi[os], &failure) : std::nullopt;
          if (!hi) {
            report_unparsable(diags, k, failure);
            return -1;
          }
          best = std::max(best, *hi - *lo);
        }
      }
      product *= best;
    }
    return product;
  }

  const AnalysisInput& input_;
  Samples samples_;
  BoundCompiler compiler_;
  int stages_;
  std::vector<std::optional<CompiledBounds>> bounds_;      ///< k x stage
  std::vector<std::optional<std::int64_t>> tangential_;  ///< k x stage x d
};

std::string kernel_name(int k) { return str_cat("stencil_k", k); }

std::string face_name(int d, int side) {
  return str_cat("dim ", d, " ", side == 0 ? "low" : "high", " side");
}

}  // namespace

AnalysisInput make_analysis_input(const StencilProgram& program,
                                  const sim::DesignConfig& config,
                                  const fpga::DeviceSpec& device) {
  AnalysisInput input;
  input.ctx = GenContext::create(program, config, device);
  input.pipes = codegen::enumerate_pipes(input.ctx);
  return input;
}

// ---- pass 1: pipe-graph analysis (SCL1xx) ----------------------------------

namespace {

void pipe_graph_pass(const AnalysisInput& input, DesignBounds& extents,
                     support::DiagnosticEngine* diags) {
  const GenContext& ctx = input.ctx;
  const StencilProgram& prog = *ctx.program;
  const int kernels = ctx.kernel_count();

  // Channel index plus structural sanity of every declared pipe.
  std::map<std::pair<int, int>, const PipeDecl*> channels;
  for (const PipeDecl& pipe : input.pipes) {
    if (pipe.from_kernel < 0 || pipe.from_kernel >= kernels ||
        pipe.to_kernel < 0 || pipe.to_kernel >= kernels ||
        pipe.from_kernel == pipe.to_kernel) {
      support::Diagnostic& diag = diags->error(
          "SCL105", str_cat("pipe connects invalid kernel pair k",
                            pipe.from_kernel, " -> k", pipe.to_kernel));
      diag.location = {"pipe", pipe.name, -1};
      continue;
    }
    const TilePlacement& a = ctx.tile(pipe.from_kernel);
    const TilePlacement& b = ctx.tile(pipe.to_kernel);
    int distance = 0;
    for (int d = 0; d < 3; ++d) {
      distance += std::abs(a.coord[static_cast<std::size_t>(d)] -
                           b.coord[static_cast<std::size_t>(d)]);
    }
    if (distance != 1) {
      support::Diagnostic& diag = diags->error(
          "SCL105",
          str_cat("pipe connects non-face-adjacent kernels k",
                  pipe.from_kernel, " and k", pipe.to_kernel,
                  "; the topology only links face-adjacent tiles"));
      diag.location = {"pipe", pipe.name, -1};
      continue;
    }
    if (!channels.emplace(std::pair{pipe.from_kernel, pipe.to_kernel}, &pipe)
             .second) {
      support::Diagnostic& diag = diags->error(
          "SCL105", str_cat("duplicate pipe channel k", pipe.from_kernel,
                            " -> k", pipe.to_kernel));
      diag.location = {"pipe", pipe.name, -1};
      continue;
    }
    if (pipe.depth <= 0 || (pipe.depth & (pipe.depth - 1)) != 0) {
      support::Diagnostic& diag = diags->warning(
          "SCL106",
          str_cat("pipe depth ", pipe.depth,
                  " is not a power of two; xcl_reqd_pipe_depth requires one"));
      diag.location = {"pipe", pipe.name, -1};
    }
  }

  // Halo coverage: every shared face whose dependent cells read across it
  // must have a delivering channel; channels nothing ever reads are
  // orphans.
  for (int k = 0; k < kernels; ++k) {
    const TilePlacement& tile = ctx.tile(k);
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      for (int side = 0; side < 2; ++side) {
        if (tile.exterior[ds][static_cast<std::size_t>(side)]) continue;
        const int nb = ctx.neighbor_index(tile, d, side);
        if (nb < 0) {
          support::Diagnostic& diag = diags->error(
              "SCL105",
              str_cat("kernel k", k, " marks its ", face_name(d, side),
                      " as pipe-shared but has no neighbor tile there"));
          diag.location = {"kernel", kernel_name(k), -1};
          continue;
        }
        const bool needed = face_needs_halo(prog, d, side);
        const auto incoming = channels.find(std::pair{nb, k});
        if (needed && incoming == channels.end()) {
          support::Diagnostic& diag = diags->error(
              "SCL101",
              str_cat("halo of kernel k", k, " on its ", face_name(d, side),
                      " is never delivered: no pipe from k", nb, " to k", k));
          diag.location = {"kernel", kernel_name(k), -1};
          diag.notes.push_back(str_cat(
              "dependent cells within the stage read radius of that face "
              "consume neighbor data every fused iteration; without the "
              "channel they read stale halo values"));
        } else if (!needed && incoming != channels.end()) {
          support::Diagnostic& diag = diags->warning(
              "SCL104",
              str_cat("pipe k", nb, " -> k", k,
                      " carries no boundary data: no stage reads across "
                      "that face"));
          diag.location = {"pipe", incoming->second->name, -1};
        }
      }
    }
  }

  // FIFO depth versus the boundary-layer volume of one exchange phase.
  // The generated schedule pushes a whole strip before it reads the
  // symmetric one back, so an undersized FIFO blocks the writer; a cycle
  // of blocked writers is a deadlock.
  std::map<int, std::vector<int>> blocked_edges;  // writer -> readers
  for (int k = 0; k < kernels; ++k) {
    const TilePlacement& tile = ctx.tile(k);
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      for (int side = 0; side < 2; ++side) {
        if (tile.exterior[ds][static_cast<std::size_t>(side)]) continue;
        const int nb = ctx.neighbor_index(tile, d, side);
        if (nb < 0) continue;
        const auto channel = channels.find(std::pair{k, nb});
        if (channel == channels.end()) continue;
        const std::int64_t required =
            extents.max_phase_volume(k, d, side, diags);
        if (required <= 0) continue;  // nothing sent, or bounds unparsable
        if (channel->second->depth < required) {
          support::Diagnostic& diag = diags->error(
              "SCL102",
              str_cat("pipe FIFO depth ", channel->second->depth,
                      " is below the boundary-layer volume ", required,
                      " elements one exchange phase pushes"));
          diag.location = {"pipe", channel->second->name, -1};
          diag.notes.push_back(str_cat(
              "kernel k", k, " writes its whole stage-output strip across ",
              face_name(d, side), " before reading the symmetric strip "
              "back; a full FIFO blocks the write mid-phase"));
          blocked_edges[k].push_back(nb);
        }
      }
    }
  }

  // Deadlock: a directed cycle of kernels each blocked writing to the
  // next (the reader only drains after its own blocked write completes).
  std::vector<int> state(static_cast<std::size_t>(kernels), 0);
  std::vector<int> parent(static_cast<std::size_t>(kernels), -1);
  bool reported = false;
  auto dfs = [&](auto&& self, int node) -> void {
    state[static_cast<std::size_t>(node)] = 1;
    const auto it = blocked_edges.find(node);
    if (it != blocked_edges.end()) {
      for (const int next : it->second) {
        if (reported) return;
        if (state[static_cast<std::size_t>(next)] == 1) {
          std::vector<int> cycle{next};
          for (int cur = node; cur != next && cur >= 0;
               cur = parent[static_cast<std::size_t>(cur)]) {
            cycle.push_back(cur);
          }
          std::reverse(cycle.begin() + 1, cycle.end());
          std::string path;
          for (const int c : cycle) path += str_cat("k", c, " -> ");
          path += str_cat("k", next);
          support::Diagnostic& diag = diags->error(
              "SCL103",
              str_cat("unsatisfiable pipe schedule: blocked-write cycle ",
                      path, " deadlocks the region pass"));
          diag.location = {"design", "pipe graph", -1};
          diag.notes.push_back(
              "every kernel on the cycle is mid-write into a full FIFO "
              "whose reader is itself blocked writing; no kernel ever "
              "reaches its read phase");
          reported = true;
          return;
        }
        if (state[static_cast<std::size_t>(next)] == 0) {
          parent[static_cast<std::size_t>(next)] = node;
          self(self, next);
        }
      }
    }
    state[static_cast<std::size_t>(node)] = 2;
  };
  for (int k = 0; k < kernels && !reported; ++k) {
    if (state[static_cast<std::size_t>(k)] == 0) dfs(dfs, k);
  }
}

}  // namespace

void analyze_pipe_graph(const AnalysisInput& input,
                        support::DiagnosticEngine* diags) {
  DesignBounds extents(input);
  pipe_graph_pass(input, extents, diags);
}

// ---- pass 2: halo & bounds interval analysis (SCL2xx) ----------------------

namespace {

void check_buffer_bounds(const AnalysisInput& input, const Samples& samples,
                         int kernel, const CompiledBounds& bounds,
                         support::DiagnosticEngine* diags) {
  const StencilProgram& prog = *input.ctx.program;
  PointEnv env;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const std::int64_t grid_hi = prog.grid_box().hi[ds];
    for (const std::int64_t origin : samples.origins[ds]) {
      env.set(d, origin, 0);
      Failure failure;
      const std::optional<std::int64_t> lo = env.eval(*bounds.lo[ds], &failure);
      const std::optional<std::int64_t> hi =
          lo ? env.eval(*bounds.hi[ds], &failure) : std::nullopt;
      if (!hi) {
        report_unparsable(diags, kernel, failure);
        break;
      }
      if (*hi <= *lo) continue;  // empty burst: no access happens
      if (*lo < 0 || *hi > grid_hi) {
        support::Diagnostic& diag = diags->error(
            "SCL201",
            str_cat("burst bounds [", *lo, ", ", *hi, ") along dim ", d,
                    " escape the grid [0, ", grid_hi, ") at region origin ",
                    origin));
        diag.location = {"kernel", kernel_name(kernel), -1};
        diag.notes.push_back(str_cat("lower bound expression: ",
                                     bounds.lo[ds]->text));
        diag.notes.push_back(str_cat("upper bound expression: ",
                                     bounds.hi[ds]->text));
        break;
      }
    }
  }
}

void check_owned_bounds(const AnalysisInput& input, const Samples& samples,
                        int kernel, int f, const CompiledBounds& bounds,
                        support::DiagnosticEngine* diags) {
  const StencilProgram& prog = *input.ctx.program;
  const scl::stencil::Box updated = prog.updated_box(f);
  PointEnv env;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (const std::int64_t origin : samples.origins[ds]) {
      env.set(d, origin, 0);
      Failure failure;
      const std::optional<std::int64_t> lo = env.eval(*bounds.lo[ds], &failure);
      const std::optional<std::int64_t> hi =
          lo ? env.eval(*bounds.hi[ds], &failure) : std::nullopt;
      if (!hi) {
        report_unparsable(diags, kernel, failure);
        break;
      }
      if (*hi <= *lo) continue;
      if (*lo < updated.lo[ds] || *hi > updated.hi[ds]) {
        support::Diagnostic& diag = diags->error(
            "SCL203",
            str_cat("burst write of field '", prog.field(f).name,
                    "' covers [", *lo, ", ", *hi, ") along dim ", d,
                    ", outside the updatable region [", updated.lo[ds],
                    ", ", updated.hi[ds], ") at region origin ", origin));
        diag.location = {"kernel", kernel_name(kernel), -1};
        diag.notes.push_back(
            "cells outside the updatable region are Dirichlet boundary "
            "and must keep their initial values");
        break;
      }
    }
  }
}

/// The compute and buffer bounds of one dimension at one sampled point.
/// They do not depend on the access, so check_stage_accesses evaluates
/// them once and tests every access's offset against them.
struct StagePoint {
  std::int64_t origin = 0;
  std::int64_t dt = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t buf_lo = 0;
  std::int64_t buf_hi = 0;
  std::optional<Failure> failure;
};

void check_stage_accesses(const AnalysisInput& input, const Samples& samples,
                          int kernel, int stage, const CompiledBounds& bounds,
                          const CompiledBounds& buffer,
                          support::DiagnosticEngine* diags) {
  const GenContext& ctx = input.ctx;
  const StencilProgram& prog = *ctx.program;
  const auto& reads = prog.stage(stage).reads;
  if (reads.empty()) return;
  PointEnv env;
  std::array<std::vector<StagePoint>, 3> points;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (const std::int64_t origin : samples.origins[ds]) {
      for (const std::int64_t dt : samples.dts) {
        env.set(d, origin, dt);
        StagePoint point;
        point.origin = origin;
        point.dt = dt;
        Failure failure;
        std::optional<std::int64_t> v[4];
        const CompiledBound* order[4] = {bounds.lo[ds], bounds.hi[ds],
                                         buffer.lo[ds], buffer.hi[ds]};
        for (int i = 0; i < 4 && (i == 0 || v[i - 1]); ++i) {
          v[i] = env.eval(*order[i], &failure);
        }
        if (v[3]) {
          point.lo = *v[0];
          point.hi = *v[1];
          point.buf_lo = *v[2];
          point.buf_hi = *v[3];
        } else {
          point.failure = std::move(failure);
        }
        points[ds].push_back(std::move(point));
      }
    }
  }
  for (const scl::stencil::ReadAccess& access : reads) {
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      const int off = access.offset[ds];
      const std::int64_t ext = static_buffer_extent(ctx, kernel, d);
      for (const StagePoint& p : points[ds]) {
        if (p.failure) {
          report_unparsable(diags, kernel, *p.failure);
          break;
        }
        if (p.hi <= p.lo) continue;  // no cells computed at this point
        const std::int64_t access_lo = p.lo + off;
        const std::int64_t access_hi = p.hi - 1 + off;
        // Static array extent: local index (i - B_LO) must fit.
        const std::int64_t static_hi = p.buf_lo + ext;
        if (access_lo < p.buf_lo || access_hi >= p.buf_hi ||
            access_hi >= static_hi) {
          support::Diagnostic& diag = diags->error(
              "SCL202",
              str_cat("stage '", prog.stage(stage).name, "' reads field '",
                      prog.field(access.field).name, "' at offset ", off,
                      " over [", access_lo, ", ", access_hi + 1,
                      ") along dim ", d,
                      ", escaping the local buffer box [", p.buf_lo, ", ",
                      std::min(p.buf_hi, static_hi), ")"));
          diag.location = {"kernel", kernel_name(kernel), -1};
          diag.notes.push_back(str_cat(
              "evaluated at region origin ", p.origin,
              ", fused-iteration distance pass_h - it = ", p.dt));
          diag.notes.push_back(str_cat(
              "the halo this access needs is neither held in the "
              "buffer margin nor deliverable by a pipe at that "
              "iteration"));
          break;
        }
      }
    }
  }
}

void bounds_pass(const AnalysisInput& input, DesignBounds& extents,
                 support::DiagnosticEngine* diags) {
  const GenContext& ctx = input.ctx;
  const StencilProgram& prog = *ctx.program;
  for (int k = 0; k < ctx.kernel_count(); ++k) {
    const Samples& samples = extents.samples();
    const CompiledBounds buffer =
        extents.compile(codegen::buffer_bounds(ctx, k));
    check_buffer_bounds(input, samples, k, buffer, diags);
    for (int f = 0; f < prog.field_count(); ++f) {
      if (prog.is_constant_field(f)) continue;
      check_owned_bounds(input, samples, k, f,
                         extents.compile(codegen::owned_bounds(ctx, k, f)),
                         diags);
    }
    for (int s = 0; s < prog.stage_count(); ++s) {
      check_stage_accesses(input, samples, k, s, extents.bounds(k, s), buffer,
                           diags);
    }
  }
}

}  // namespace

void check_buffer_bounds(const AnalysisInput& input, int kernel,
                         const LoopBounds& bounds,
                         support::DiagnosticEngine* diags) {
  DesignBounds design(input);
  check_buffer_bounds(input, design.samples(), kernel, design.compile(bounds),
                      diags);
}

void check_owned_bounds(const AnalysisInput& input, int kernel, int f,
                        const LoopBounds& bounds,
                        support::DiagnosticEngine* diags) {
  DesignBounds design(input);
  check_owned_bounds(input, design.samples(), kernel, f, design.compile(bounds),
                     diags);
}

void check_stage_accesses(const AnalysisInput& input, int kernel, int stage,
                          const LoopBounds& bounds,
                          support::DiagnosticEngine* diags) {
  DesignBounds design(input);
  const CompiledBounds buffer =
      design.compile(codegen::buffer_bounds(input.ctx, kernel));
  check_stage_accesses(input, design.samples(), kernel, stage,
                       design.compile(bounds), buffer, diags);
}

void analyze_bounds(const AnalysisInput& input,
                    support::DiagnosticEngine* diags) {
  DesignBounds extents(input);
  bounds_pass(input, extents, diags);
}

// ---- pass 3: resource feasibility cross-check (SCL3xx) ---------------------

namespace {

void resource_pass(const AnalysisInput& input, const ChargedResources& charged,
                   DesignBounds& extents, support::DiagnosticEngine* diags) {
  const GenContext& ctx = input.ctx;
  const StencilProgram& prog = *ctx.program;

  // Directed channels the codegen view declares versus the FIFOs the
  // model paid for.
  const auto declared = static_cast<std::int64_t>(input.pipes.size());
  if (declared != charged.pipe_count) {
    support::Diagnostic& diag = diags->error(
        "SCL301",
        str_cat("codegen declares ", declared,
                " pipe channels but the resource model charged ",
                charged.pipe_count));
    diag.location = {"design", "resource model", -1};
    diag.notes.push_back(
        "model/codegen drift: the DSE compared candidates under a "
        "different pipe inventory than the emitted design uses");
  }

  // Local-buffer footprint, recomputed from the emitter's static extents.
  int shadow_stages = 0;
  for (int s = 0; s < prog.stage_count(); ++s) {
    if (prog.stage_needs_double_buffer(s)) ++shadow_stages;
  }
  std::int64_t buffer_elements = 0;
  if (ctx.config.family == arch::DesignFamily::kTemporalShift) {
    // The cascade kernel's on-chip state is its shift registers, not
    // tile-shaped line buffers; recompute from the emitter's layout. Each
    // of the R replica cascades owns a full copy.
    buffer_elements = arch::make_temporal_layout(prog, ctx.config).sr_elements *
                      ctx.config.replication;
  } else {
    for (int k = 0; k < ctx.kernel_count(); ++k) {
      std::int64_t cells = 1;
      for (int d = 0; d < prog.dims(); ++d) {
        cells *= static_buffer_extent(ctx, k, d);
      }
      buffer_elements += cells * (prog.field_count() + shadow_stages);
    }
  }
  if (buffer_elements != charged.buffer_elements) {
    support::Diagnostic& diag = diags->error(
        "SCL302",
        str_cat("generated kernels hold ", buffer_elements,
                " local-buffer elements but the resource model charged ",
                charged.buffer_elements));
    diag.location = {"design", "resource model", -1};
    diag.notes.push_back(
        "BRAM sizing in the DSE no longer reflects the emitted buffers");
  }

  // FIFO storage: the model must charge at least the boundary-layer
  // volume the schedule actually keeps in flight.
  std::int64_t required_fifo = 0;
  for (const PipeDecl& pipe : input.pipes) {
    const TilePlacement& tile = ctx.tile(pipe.from_kernel);
    for (int d = 0; d < prog.dims(); ++d) {
      for (int side = 0; side < 2; ++side) {
        if (tile.exterior[static_cast<std::size_t>(d)]
                         [static_cast<std::size_t>(side)]) {
          continue;
        }
        if (ctx.neighbor_index(tile, d, side) != pipe.to_kernel) continue;
        const std::int64_t volume =
            extents.max_phase_volume(pipe.from_kernel, d, side, diags);
        if (volume > 0) required_fifo += volume;
      }
    }
  }
  if (charged.pipe_count == declared && declared > 0 &&
      charged.pipe_fifo_elements < required_fifo) {
    support::Diagnostic& diag = diags->error(
        "SCL303",
        str_cat("resource model charges ", charged.pipe_fifo_elements,
                " FIFO elements but the exchange schedule keeps ",
                required_fifo, " elements in flight"));
    diag.location = {"design", "resource model", -1};
    diag.notes.push_back(
        "undersized FIFO charging lets infeasible pipe-heavy designs win "
        "the DSE");
  }

  if (!charged.total.fits_within(ctx.device.capacity)) {
    support::Diagnostic& diag = diags->warning(
        "SCL310",
        str_cat("design needs ", charged.total.to_string(),
                " which exceeds device ", ctx.device.name, " capacity ",
                ctx.device.capacity.to_string()));
    diag.location = {"design", "resource model", -1};
  }
}

}  // namespace

void analyze_resources(const AnalysisInput& input,
                       const ChargedResources& charged,
                       support::DiagnosticEngine* diags) {
  DesignBounds extents(input);
  resource_pass(input, charged, extents, diags);
}

// ---- entry points ----------------------------------------------------------

support::DiagnosticEngine analyze(const AnalysisInput& input,
                                  const ChargedResources* charged) {
  support::DiagnosticEngine diags;
  DesignBounds extents(input);
  pipe_graph_pass(input, extents, &diags);
  bounds_pass(input, extents, &diags);
  if (charged != nullptr) resource_pass(input, *charged, extents, &diags);
  return diags;
}

support::DiagnosticEngine analyze_design(const StencilProgram& program,
                                         const sim::DesignConfig& config,
                                         const fpga::DeviceSpec& device) {
  return analyze(make_analysis_input(program, config, device));
}

}  // namespace scl::analysis
