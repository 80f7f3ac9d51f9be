#include "analysis/ir/dataflow.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "analysis/ir/lower.hpp"
#include "sim/design.hpp"
#include "stencil/program.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::analysis::ir {

namespace {

/// Enumerating a loop variable concretely (pipe-token counting) is capped
/// here; the only loop whose variable appears in nested bounds is the
/// fused-iteration loop (trip count = pass_h), so the cap is generous.
constexpr std::int64_t kEnumerationCap = 1 << 16;

/// Disjoint written-interval unions are coalesced to their hull past this
/// many fragments; precision only matters near the handful of halo strips.
constexpr std::size_t kMaxHullFragments = 16;

bool overlaps_or_adjacent(const Interval& a, const Interval& b) {
  return a.lo <= b.hi + 1 && b.lo <= a.hi + 1;
}

/// Union-of-intervals with bounded fragmentation.
struct IntervalUnion {
  std::vector<Interval> parts;

  void add(Interval v) {
    for (;;) {
      bool merged = false;
      for (auto it = parts.begin(); it != parts.end(); ++it) {
        if (overlaps_or_adjacent(*it, v)) {
          v = {std::min(it->lo, v.lo), std::max(it->hi, v.hi)};
          parts.erase(it);
          merged = true;
          break;
        }
      }
      if (!merged) break;
    }
    parts.push_back(v);
    if (parts.size() > kMaxHullFragments) {
      Interval hull = parts.front();
      for (const Interval& p : parts) {
        hull = {std::min(hull.lo, p.lo), std::max(hull.hi, p.hi)};
      }
      parts = {hull};
    }
  }

  bool empty() const { return parts.empty(); }

  bool intersects(const Interval& v) const {
    return std::any_of(parts.begin(), parts.end(), [&](const Interval& p) {
      return p.lo <= v.hi && v.lo <= p.hi;
    });
  }
};

/// One kernel's facts accumulated across every sampled environment,
/// indexed the way the lowering resolved the names.
struct KernelFacts {
  explicit KernelFacts(const Kernel& kernel)
      : written(kernel.locals.size()),
        stored(kernel.locals.size(), 0),
        loaded(kernel.locals.size(), 0),
        stored_outputs(kernel.global_outputs.size(), 0),
        loop_seen(static_cast<std::size_t>(kernel.loop_count), 0),
        loop_executed(static_cast<std::size_t>(kernel.loop_count), 0) {}

  std::vector<IntervalUnion> written;  ///< per local buffer
  std::vector<char> stored;            ///< per local buffer
  std::vector<char> loaded;            ///< per local buffer
  std::vector<char> stored_outputs;    ///< per __global output
  /// Per loop: seen at all, and its body ran under at least one sampled
  /// environment.
  std::vector<char> loop_seen;
  std::vector<char> loop_executed;
};

/// One host enqueue: the region origin and the pass depth.
struct Sample {
  std::array<std::int64_t, 3> r{0, 0, 0};
  std::int64_t pass_h = 1;
};

/// A local-buffer load and the index range it reached under one
/// environment.
struct LocalLoad {
  const ArrayRef* ref;
  Interval index;
};

/// Per-pipe token totals for one walk: [0] = writes, [1] = reads.
using TokenCount = std::array<std::int64_t, 2>;

class ModuleAnalyzer {
 public:
  ModuleAnalyzer(const Module& module, const IrContext& ctx,
                 support::DiagnosticEngine* diags, DataflowStats* stats)
      : module_(module), ctx_(ctx), diags_(diags), stats_(stats),
        env_(module.slots) {}

  void run() {
    report_unmodeled();
    build_samples();
    stats_->environments += static_cast<std::int64_t>(samples_.size());
    for (const Kernel& kernel : module_.kernels) {
      analyze_kernel(kernel);
    }
    check_pipe_balance();
  }

 private:
  // ---- diagnostics plumbing -------------------------------------------

  /// Emits once per (code, kernel, subject) so per-environment re-walks do
  /// not repeat themselves.
  support::Diagnostic* emit(const std::string& code,
                            support::Severity severity,
                            const std::string& kernel,
                            const std::string& subject, int line,
                            const std::string& message) {
    if (!emitted_.insert(str_cat(code, '|', kernel, '|', subject)).second) {
      return nullptr;
    }
    support::Diagnostic& diag =
        diags_->add(code, severity, message);
    diag.location = {"kernel", kernel, line};
    return &diag;
  }

  void report_unmodeled() {
    for (const std::string& what : module_.unmodeled) {
      support::Diagnostic* diag =
          emit("SCL409", support::Severity::kWarning, "", what, -1,
               str_cat("emitted construct outside the analyzable subset: ",
                       what));
      if (diag != nullptr) {
        diag->location = {"source", what, -1};
        diag->notes.push_back(
            "the IR dataflow pass skipped it; its effects are unverified");
      }
    }
  }

  // ---- environment sampling -------------------------------------------

  /// pass_h values the host can pass: the full depth and, when the total
  /// iteration count is not a multiple, the final partial pass. The
  /// exhaustive oracle takes every depth up to the full one.
  std::vector<std::int64_t> pass_samples() const {
    const std::int64_t h = std::max<std::int64_t>(ctx_.fused_iterations, 1);
    const std::int64_t full = std::min(h, ctx_.iterations);
    std::vector<std::int64_t> out{full};
    if (ctx_.sampling == Sampling::kExhaustive) {
      for (std::int64_t ph = 1; ph < full; ++ph) out.push_back(ph);
    }
    const std::int64_t tail = ctx_.iterations % h;
    if (tail > 0) out.push_back(tail);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Builds the joint cross product of origin and pass-depth samples. The
  /// origins must vary *jointly* — flattened indices sum per-dimension
  /// contributions, so independent wide intervals would lose the
  /// correlation between a loop's range and the buffer origin macro.
  void build_samples() {
    std::array<std::vector<std::int64_t>, 3> per_dim;
    for (int d = 0; d < 3; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      per_dim[ds] = d < ctx_.dims
                        ? origin_samples(ctx_.grid_extents[ds],
                                         ctx_.region_extents[ds],
                                         ctx_.clamp_reach[ds], ctx_.sampling)
                        : std::vector<std::int64_t>{0};
    }
    const std::vector<std::int64_t> depths = pass_samples();
    for (const std::int64_t r0 : per_dim[0]) {
      for (const std::int64_t r1 : per_dim[1]) {
        for (const std::int64_t r2 : per_dim[2]) {
          for (const std::int64_t ph : depths) {
            samples_.push_back({{r0, r1, r2}, ph});
          }
        }
      }
    }
  }

  /// Resets `env_` to `sample`: origins and pass depth bound, every other
  /// slot (including the fused-iteration counter) out of scope.
  void bind_sample(const Sample& sample) {
    std::fill(env_.values.begin(), env_.values.end(), kUnbound);
    env_[kSlotR0] = Interval::point(sample.r[0]);
    env_[kSlotR1] = Interval::point(sample.r[1]);
    env_[kSlotR2] = Interval::point(sample.r[2]);
    env_[kSlotPassH] = Interval::point(sample.pass_h);
  }

  static std::string env_summary(const Env& env) {
    return str_cat("r0=", env[kSlotR0].lo, " r1=", env[kSlotR1].lo,
                   " r2=", env[kSlotR2].lo, " pass_h=", env[kSlotPassH].lo);
  }

  Interval eval(const Expr& expr, bool* int32_overflow = nullptr) {
    ++stats_->expressions;
    return eval_expr(expr, env_, int32_overflow);
  }

  // ---- per-kernel analysis --------------------------------------------

  void analyze_kernel(const Kernel& kernel) {
    KernelFacts facts(kernel);
    buffer_sizes_.assign(kernel.locals.size(), std::nullopt);
    std::fill(env_.values.begin(), env_.values.end(), kUnbound);
    for (std::size_t b = 0; b < kernel.locals.size(); ++b) {
      const Buffer& buffer = kernel.locals[b];
      try {
        buffer_sizes_[b] = eval(buffer.size).lo;
      } catch (const Error& e) {
        emit("SCL409", support::Severity::kWarning, kernel.name, buffer.name,
             buffer.line,
             str_cat("size of __local buffer '", buffer.name,
                     "' is not a compile-time constant: ", e.what()));
      }
    }

    // Walk 1 per environment: index checks + fact accumulation. The
    // fused-iteration counter stays abstract ([1, pass_h]) — sound for
    // indices and cheap. Local-buffer loads are recorded with their index
    // ranges, per environment.
    local_loads_.clear();
    std::vector<std::size_t> loads_end;
    for (const Sample& sample : samples_) {
      bind_sample(sample);
      env_[kSlotIt] = {1, sample.pass_h};
      ++stats_->walks;
      walk_collect(kernel, kernel.body, &facts);
      loads_end.push_back(local_loads_.size());
    }

    // Then the uninitialized-read checks, which need the complete written
    // hull: replay each environment's recorded loads (a second walk would
    // re-evaluate the same indices under the same bindings).
    std::size_t begin = 0;
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      bind_sample(samples_[i]);
      for (std::size_t l = begin; l < loads_end[i]; ++l) {
        check_uninit(kernel, *local_loads_[l].ref, local_loads_[l].index,
                     facts);
      }
      begin = loads_end[i];
    }

    // Whole-kernel verdicts.
    for (std::size_t b = 0; b < kernel.locals.size(); ++b) {
      const Buffer& buffer = kernel.locals[b];
      if (facts.stored[b] != 0 && facts.loaded[b] == 0) {
        support::Diagnostic* diag = emit(
            "SCL404", support::Severity::kError, kernel.name, buffer.name,
            buffer.line,
            str_cat("every store to __local buffer '", buffer.name,
                    "' is dead: the kernel never loads it"));
        if (diag != nullptr) {
          diag->notes.push_back(
              "data written there can never reach global memory or a pipe");
        }
      }
    }
    for (std::size_t o = 0; o < kernel.global_outputs.size(); ++o) {
      if (facts.stored_outputs[o] == 0) {
        const std::string& global = kernel.global_outputs[o];
        emit("SCL408", support::Severity::kError, kernel.name, global,
             kernel.line,
             str_cat("__global output '", global,
                     "' is never stored to; the kernel produces no result"));
      }
    }
    // Loops are reported by line, like the source reads: a line is
    // covered when any loop on it ran.
    std::set<int> lines_seen;
    std::set<int> lines_executed;
    collect_loop_lines(kernel.body, facts, &lines_seen, &lines_executed);
    for (const int line : lines_seen) {
      if (lines_executed.count(line) == 0) {
        support::Diagnostic* diag =
            emit("SCL407", support::Severity::kWarning, kernel.name,
                 str_cat("loop@", line), line,
                 str_cat("loop at line ", line,
                         " has an empty range under every host-reachable "
                         "parameter sample"));
        if (diag != nullptr) {
          diag->notes.push_back(
              "a provably zero-trip loop usually means swapped or "
              "inverted bounds");
        }
      }
    }
  }

  static void collect_loop_lines(const StmtList& stmts,
                                 const KernelFacts& facts,
                                 std::set<int>* seen,
                                 std::set<int>* executed) {
    for (const Stmt& stmt : stmts) {
      if (stmt.kind != Stmt::Kind::kLoop) continue;
      const auto id = static_cast<std::size_t>(stmt.loop_id);
      if (facts.loop_seen[id] != 0) seen->insert(stmt.line);
      if (facts.loop_executed[id] != 0) executed->insert(stmt.line);
      collect_loop_lines(stmt.body, facts, seen, executed);
    }
  }

  /// True when `ref` indexes a local buffer of known size.
  bool sized_local(const ArrayRef& ref) const {
    return ref.local >= 0 &&
           buffer_sizes_[static_cast<std::size_t>(ref.local)].has_value();
  }

  /// Evaluates one index, reporting SCL401/402/405 (or SCL409 when the
  /// index cannot be evaluated), and records the access in `facts`.
  void check_ref(const Kernel& kernel, const ArrayRef& ref, bool is_store,
                 KernelFacts* facts) {
    bool int32_overflow = false;
    Interval idx;
    try {
      idx = eval(ref.index, &int32_overflow);
    } catch (const Error& e) {
      emit("SCL409", support::Severity::kWarning, kernel.name,
           str_cat(ref.array, "@", ref.line), ref.line,
           str_cat("index of '", ref.array,
                   "' could not be evaluated: ", e.what()));
      return;
    }
    if (int32_overflow) {
      support::Diagnostic* diag =
          emit("SCL405", support::Severity::kError, kernel.name,
               str_cat(ref.array, "@", ref.line), ref.line,
               str_cat("index arithmetic for '", ref.array, "[",
                       ref.index.to_string(module_.slots),
                       "]' can exceed 32-bit signed range"));
      if (diag != nullptr) {
        diag->notes.push_back(
            "OpenCL `int` is 32 bits; the emitted expression wraps on the "
            "device");
        diag->notes.push_back(str_cat("under ", env_summary(env_)));
      }
    }
    const bool local = sized_local(ref);
    if (local) {
      const std::int64_t size =
          *buffer_sizes_[static_cast<std::size_t>(ref.local)];
      if (idx.lo < 0 || idx.hi >= size) {
        support::Diagnostic* diag = emit(
            "SCL401", support::Severity::kError, kernel.name,
            str_cat(ref.array, "@", ref.line), ref.line,
            str_cat(is_store ? "store to" : "load from", " __local buffer '",
                    ref.array, "' can reach index [", idx.lo, ", ", idx.hi,
                    "], outside [0, ", size, ")"));
        if (diag != nullptr) {
          diag->notes.push_back(str_cat(
              "emitted index: ", ref.index.to_string(module_.slots)));
          diag->notes.push_back(str_cat("under ", env_summary(env_)));
        }
      }
    } else if (ref.global) {
      const std::int64_t cells = ctx_.grid_cells();
      if (idx.lo < 0 || idx.hi >= cells) {
        support::Diagnostic* diag = emit(
            "SCL402", support::Severity::kError, kernel.name,
            str_cat(ref.array, "@", ref.line), ref.line,
            str_cat(is_store ? "store to" : "load from", " __global '",
                    ref.array, "' can reach index [", idx.lo, ", ", idx.hi,
                    "], outside the grid's [0, ", cells, ")"));
        if (diag != nullptr) {
          diag->notes.push_back(str_cat(
              "emitted index: ", ref.index.to_string(module_.slots)));
          diag->notes.push_back(str_cat("under ", env_summary(env_)));
        }
      }
    }
    if (is_store) {
      if (local) {
        const auto b = static_cast<std::size_t>(ref.local);
        facts->stored[b] = 1;
        facts->written[b].add(idx);
      } else if (ref.output >= 0) {
        facts->stored_outputs[static_cast<std::size_t>(ref.output)] = 1;
      }
    } else if (local) {
      facts->loaded[static_cast<std::size_t>(ref.local)] = 1;
      local_loads_.push_back({&ref, idx});
    }
  }

  /// Loop-range evaluation. Returns false when the body provably never
  /// executes (or its bounds cannot be evaluated); otherwise binds the
  /// loop variable, saving its previous value.
  bool enter_loop(const Kernel& kernel, const Stmt& loop, KernelFacts* facts,
                  Interval* saved) {
    facts->loop_seen[static_cast<std::size_t>(loop.loop_id)] = 1;
    Interval lo;
    Interval hi;
    try {
      lo = eval(loop.lo);
      hi = eval(loop.hi);
    } catch (const Error& e) {
      emit("SCL409", support::Severity::kWarning, kernel.name,
           str_cat("loop@", loop.line), loop.line,
           str_cat("loop bounds at line ", loop.line,
                   " could not be evaluated: ", e.what()));
      return false;
    }
    const std::int64_t var_max = loop.inclusive ? hi.hi : hi.hi - 1;
    if (lo.lo > var_max) return false;  // empty range: body unreachable
    facts->loop_executed[static_cast<std::size_t>(loop.loop_id)] = 1;
    *saved = env_[loop.var_slot];
    env_[loop.var_slot] = {lo.lo, var_max};
    return true;
  }

  void walk_collect(const Kernel& kernel, const StmtList& stmts,
                    KernelFacts* facts) {
    for (const Stmt& stmt : stmts) {
      switch (stmt.kind) {
        case Stmt::Kind::kLoop: {
          Interval saved;
          if (enter_loop(kernel, stmt, facts, &saved)) {
            walk_collect(kernel, stmt.body, facts);
            env_[stmt.var_slot] = saved;
          }
          break;
        }
        case Stmt::Kind::kStore:
          if (stmt.store.has_value()) {
            check_ref(kernel, *stmt.store, /*is_store=*/true, facts);
          }
          for (const ArrayRef& load : stmt.loads) {
            check_ref(kernel, load, /*is_store=*/false, facts);
          }
          break;
        case Stmt::Kind::kPipeRead:
        case Stmt::Kind::kPipeWrite:
        case Stmt::Kind::kBarrier:
        case Stmt::Kind::kOpaque:
          break;
      }
    }
  }

  /// SCL403: a local load whose index range no store can have written.
  void check_uninit(const Kernel& kernel, const ArrayRef& load,
                    const Interval& idx, const KernelFacts& facts) {
    const IntervalUnion& written =
        facts.written[static_cast<std::size_t>(load.local)];
    const bool never_written = written.empty();
    if (!never_written && written.intersects(idx)) return;
    support::Diagnostic* diag =
        emit("SCL403", support::Severity::kError, kernel.name,
             str_cat(load.array, "@", load.line), load.line,
             str_cat("load from __local buffer '", load.array, "' at index [",
                     idx.lo, ", ", idx.hi, "] that no store can have written"));
    if (diag != nullptr) {
      diag->notes.push_back(
          never_written
              ? str_cat("the kernel never stores to '", load.array, "'")
              : "every store's index range is disjoint from this load");
      diag->notes.push_back(str_cat("under ", env_summary(env_)));
    }
  }

  // ---- pipe token balance ---------------------------------------------

  void mark_unknown(const Stmt& loop) {
    for (const int p : loop.pipes) {
      unknown_[static_cast<std::size_t>(p)] = 1;
    }
  }

  /// Exact token counts for every pipe at once under a fully concrete
  /// environment — one walk per (kernel, environment) instead of one per
  /// (pipe, direction, kernel, environment). Loops whose variable appears
  /// in nested bounds are enumerated; others multiply one body pass by
  /// the trip count. A loop whose bound fails to evaluate or whose
  /// enumeration exceeds the cap poisons only the pipes inside it (marked
  /// unknown) — balance for those is skipped, never a false positive.
  void count_tokens(const StmtList& stmts) {
    for (const Stmt& stmt : stmts) {
      if (stmt.kind == Stmt::Kind::kPipeWrite ||
          stmt.kind == Stmt::Kind::kPipeRead) {
        if (stmt.pipe_index >= 0) {
          ++counts_[static_cast<std::size_t>(stmt.pipe_index)]
                   [stmt.kind == Stmt::Kind::kPipeWrite ? 0 : 1];
        }
        continue;
      }
      if (stmt.kind != Stmt::Kind::kLoop || !stmt.has_pipe_op) continue;
      Interval lo;
      Interval hi;
      try {
        lo = eval(stmt.lo);
        hi = eval(stmt.hi);
      } catch (const Error&) {
        mark_unknown(stmt);
        continue;
      }
      const std::int64_t last = stmt.inclusive ? hi.lo : hi.lo - 1;
      const std::int64_t trip = std::max<std::int64_t>(0, last - lo.lo + 1);
      if (trip == 0) continue;
      if (stmt.bounds_use_var) {
        if (trip > kEnumerationCap) {
          mark_unknown(stmt);
          continue;
        }
        const Interval saved = env_[stmt.var_slot];
        for (std::int64_t v = lo.lo; v <= last; ++v) {
          env_[stmt.var_slot] = Interval::point(v);
          count_tokens(stmt.body);
        }
        env_[stmt.var_slot] = saved;
      } else {
        // One body pass, scaled: remember the touched pipes' totals,
        // count the body once, then multiply its contribution by trip.
        const std::size_t base = before_.size();
        for (const int p : stmt.pipes) {
          before_.push_back(counts_[static_cast<std::size_t>(p)]);
        }
        env_[stmt.var_slot] = Interval::point(lo.lo);  // bounds ignore it
        count_tokens(stmt.body);
        env_[stmt.var_slot] = kUnbound;
        for (std::size_t i = 0; i < stmt.pipes.size(); ++i) {
          TokenCount& now = counts_[static_cast<std::size_t>(stmt.pipes[i])];
          const TokenCount& was = before_[base + i];
          for (std::size_t dir = 0; dir < 2; ++dir) {
            now[dir] = was[dir] + trip * (now[dir] - was[dir]);
          }
        }
        before_.resize(base);
      }
    }
  }

  void check_pipe_balance() {
    if (module_.pipes.empty()) return;
    const std::size_t pipes = module_.pipes.size();
    std::vector<char> reported(pipes, 0);
    unknown_.assign(pipes, 0);
    for (const Sample& sample : samples_) {
      counts_.assign(pipes, TokenCount{0, 0});
      for (const Kernel& kernel : module_.kernels) {
        bind_sample(sample);
        ++stats_->walks;
        count_tokens(kernel.body);
      }
      for (std::size_t p = 0; p < pipes; ++p) {
        const PipeChannel& pipe = module_.pipes[p];
        if (reported[p] != 0 || unknown_[p] != 0) continue;
        const std::int64_t writes = counts_[p][0];
        const std::int64_t reads = counts_[p][1];
        if (writes == reads) continue;
        reported[p] = 1;  // one environment is enough evidence
        support::Diagnostic* diag = emit(
            "SCL406", support::Severity::kError, "", pipe.name, pipe.line,
            str_cat("pipe '", pipe.name, "' is unbalanced: ", writes,
                    " write(s) vs ", reads, " read(s) over one pass"));
        if (diag != nullptr) {
          diag->location = {"pipe", pipe.name, pipe.line};
          bind_sample(sample);
          diag->notes.push_back(str_cat("under ", env_summary(env_)));
          diag->notes.push_back(
              writes > reads
                  ? "surplus tokens accumulate until the writer blocks "
                    "forever"
                  : "the reader eventually blocks on a token that never "
                    "arrives");
        }
      }
    }
    for (std::size_t p = 0; p < pipes; ++p) {
      if (unknown_[p] == 0) continue;
      const PipeChannel& pipe = module_.pipes[p];
      emit("SCL409", support::Severity::kWarning, "", pipe.name, pipe.line,
           str_cat("token balance for pipe '", pipe.name,
                   "' could not be established (unevaluable or oversized "
                   "loop nest)"));
    }
  }

  const Module& module_;
  const IrContext& ctx_;
  support::DiagnosticEngine* diags_;
  DataflowStats* stats_;
  std::vector<Sample> samples_;
  /// The environment every walk evaluates under, one interval per slot.
  Env env_;
  /// Current kernel's local-buffer sizes (nullopt: not a constant).
  std::vector<std::optional<std::int64_t>> buffer_sizes_;
  /// The current kernel's local-buffer loads walk 1 evaluated, in walk
  /// order, for the uninitialized-read replay.
  std::vector<LocalLoad> local_loads_;
  /// Token-count state of check_pipe_balance, per declared pipe.
  std::vector<TokenCount> counts_;
  std::vector<TokenCount> before_;
  std::vector<char> unknown_;
  std::set<std::string> emitted_;
};

}  // namespace

IrContext make_ir_context(const scl::stencil::StencilProgram& program,
                          const scl::sim::DesignConfig& config) {
  IrContext ctx;
  ctx.dims = program.dims();
  for (int d = 0; d < program.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    ctx.grid_extents[ds] = program.grid_box().extent(d);
    ctx.region_extents[ds] = std::max<std::int64_t>(config.region_extent(d), 1);
    ctx.clamp_reach[ds] = clamp_reach(program, config, d);
  }
  ctx.fused_iterations = std::max<std::int64_t>(config.fused_iterations, 1);
  ctx.iterations = std::max<std::int64_t>(program.iterations(), 1);
  return ctx;
}

void analyze_module(const Module& module, const IrContext& ctx,
                    support::DiagnosticEngine* diags, DataflowStats* stats) {
  DataflowStats local;
  ModuleAnalyzer(module, ctx, diags, stats != nullptr ? stats : &local).run();
}

void analyze_kernel_source(const std::string& source, const IrContext& ctx,
                           support::DiagnosticEngine* diags) {
  Module module;
  try {
    module = lower_kernel_source(source);
  } catch (const Error& e) {
    support::Diagnostic& diag = diags->error(
        "SCL409",
        str_cat("emitted kernel source could not be lowered to the "
                "analysis IR: ",
                e.what()));
    diag.location = {"source", "stencil_kernels.cl", -1};
    return;
  }
  analyze_module(module, ctx, diags);
}

}  // namespace scl::analysis::ir
