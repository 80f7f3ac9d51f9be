// Tests for the pass-4 kernel-IR verifier (analysis/ir/): lowering the
// emitted OpenCL subset, interval evaluation of IR expressions, golden
// SCL4xx diagnostics on seeded-defect mini-kernels and on tampered real
// emitter output, and the analyzer-clean guarantee over the paper suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "analysis/ir/dataflow.hpp"
#include "analysis/ir/ir.hpp"
#include "analysis/ir/lower.hpp"
#include "codegen/opencl_emitter.hpp"
#include "core/verify.hpp"
#include "fpga/device.hpp"
#include "sim/design.hpp"
#include "stencil/kernels.hpp"
#include "support/diagnostics.hpp"
#include "support/error.hpp"

namespace scl::analysis::ir {
namespace {

using scl::sim::DesignConfig;
using scl::sim::DesignKind;
using scl::support::DiagnosticEngine;
using scl::support::Severity;

bool has_code(const DiagnosticEngine& diags, const char* code) {
  const auto& all = diags.diagnostics();
  return std::any_of(all.begin(), all.end(),
                     [&](const auto& d) { return d.code == code; });
}

/// A one-dimensional runtime context for the hand-written mini-kernels:
/// grid of 64 cells swept in regions of 32, pass depth 4.
IrContext mini_ctx() {
  IrContext ctx;
  ctx.dims = 1;
  ctx.grid_extents = {64, 1, 1};
  ctx.region_extents = {32, 1, 1};
  ctx.fused_iterations = 4;
  ctx.iterations = 8;
  return ctx;
}

DiagnosticEngine analyze(const std::string& source) {
  DiagnosticEngine diags;
  analyze_kernel_source(source, mini_ctx(), &diags);
  return diags;
}

/// The shared mini-kernel prologue: one input, one output, the host's
/// sweep parameters.
constexpr const char* kParams =
    "(__global const float* restrict A_in, __global float* restrict A_out, "
    "const int r0, const int pass_h)";

// --- lowering ---------------------------------------------------------------

TEST(IrLowerTest, LowersPipesKernelsParamsAndLocals) {
  const std::string src =
      "pipe float p_k0_k1 __attribute__((xcl_reqd_pipe_depth(512)));\n"
      "__kernel __attribute__((reqd_work_group_size(1, 1, 1)))\n"
      "void stencil_k0" +
      std::string(kParams) +
      " {\n"
      "  __local float buf[24];\n"
      "  for (int i = 0; i < 8; ++i) {\n"
      "    buf[i] = A_in[i];\n"
      "  }\n"
      "  for (int it = 1; it <= pass_h; ++it) {\n"
      "    float v = buf[0];\n"
      "    write_pipe_block(p_k0_k1, &v);\n"
      "    barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  }\n"
      "  A_out[r0] = buf[1];\n"
      "}\n";
  const Module module = lower_kernel_source(src);
  EXPECT_TRUE(module.unmodeled.empty());
  ASSERT_EQ(module.pipes.size(), 1u);
  EXPECT_EQ(module.pipes[0].name, "p_k0_k1");
  EXPECT_EQ(module.pipes[0].depth, 512);
  ASSERT_EQ(module.kernels.size(), 1u);
  const Kernel& k = module.kernels[0];
  EXPECT_EQ(k.name, "stencil_k0");
  EXPECT_EQ(k.global_inputs, std::vector<std::string>{"A_in"});
  EXPECT_EQ(k.global_outputs, std::vector<std::string>{"A_out"});
  EXPECT_EQ(k.int_params, (std::vector<std::string>{"r0", "pass_h"}));
  ASSERT_EQ(k.locals.size(), 1u);
  EXPECT_EQ(k.locals[0].name, "buf");
  ASSERT_EQ(k.body.size(), 3u);
  EXPECT_EQ(k.body[0].kind, Stmt::Kind::kLoop);
  EXPECT_FALSE(k.body[0].inclusive);
  EXPECT_EQ(k.body[1].kind, Stmt::Kind::kLoop);
  EXPECT_TRUE(k.body[1].inclusive);  // `it <= pass_h`
  ASSERT_EQ(k.body[1].body.size(), 3u);
  EXPECT_EQ(k.body[1].body[0].kind, Stmt::Kind::kStore);  // carrier decl
  EXPECT_EQ(k.body[1].body[1].kind, Stmt::Kind::kPipeWrite);
  EXPECT_EQ(k.body[1].body[1].pipe, "p_k0_k1");
  EXPECT_EQ(k.body[1].body[2].kind, Stmt::Kind::kBarrier);
  EXPECT_EQ(k.body[2].kind, Stmt::Kind::kStore);
  ASSERT_TRUE(k.body[2].store.has_value());
  EXPECT_EQ(k.body[2].store->array, "A_out");
  ASSERT_EQ(k.body[2].loads.size(), 1u);
  EXPECT_EQ(k.body[2].loads[0].array, "buf");
}

TEST(IrLowerTest, ExpandsFunctionLikeMacrosAtUseSite) {
  const std::string src =
      "#define IDX(i) ((i) * 2 + 1)\n"
      "#define EXT 24\n"
      "__kernel void k" +
      std::string(kParams) +
      " {\n"
      "  __local float buf[EXT];\n"
      "  for (int i = 0; i < 4; ++i) {\n"
      "    buf[IDX(i)] = A_in[i];\n"
      "  }\n"
      "  A_out[0] = buf[1];\n"
      "}\n";
  const Module module = lower_kernel_source(src);
  ASSERT_EQ(module.kernels.size(), 1u);
  const Kernel& k = module.kernels[0];
  Env env(module.slots);
  const Interval size = eval_expr(k.locals[0].size, env);
  EXPECT_EQ(size, Interval::point(24));
  // buf[IDX(i)] with i = 3 must evaluate to 7 after expansion.
  env[module.slots.find("i")] = Interval::point(3);
  const Stmt& store = k.body[0].body[0];
  ASSERT_TRUE(store.store.has_value());
  EXPECT_EQ(eval_expr(store.store->index, env), Interval::point(7));
}

TEST(IrLowerTest, UnmodeledStatementsAreRecordedNotFatal) {
  const std::string src =
      "__kernel void k" + std::string(kParams) +
      " {\n"
      "  int z = 3;\n"
      "  A_out[0] = A_in[0];\n"
      "}\n";
  const Module module = lower_kernel_source(src);
  ASSERT_EQ(module.unmodeled.size(), 1u);
  ASSERT_EQ(module.kernels.size(), 1u);
  // The store after the unmodeled statement is still lowered.
  EXPECT_EQ(module.kernels[0].body.back().kind, Stmt::Kind::kStore);
}

TEST(IrLowerTest, StructurallyBrokenSourceThrows) {
  EXPECT_THROW(lower_kernel_source("__kernel void k("), Error);
  EXPECT_THROW(
      lower_kernel_source("__kernel void k() { for (int i = 0; i > 1; --i) "
                          "{ } }"),
      Error);  // unsupported loop condition
}

// --- expression evaluation --------------------------------------------------

TEST(IrExprTest, EvaluatesWithIntervalSemantics) {
  const Module module = lower_kernel_source(
      "__kernel void k(const int it) { __local float b[64]; "
      "b[max(0, it * 3 - 2)] = 1.0f; b[mystery] = 0.0f; }");
  Env env(module.slots);
  env[kSlotIt] = Interval{1, 4};
  const Stmt& store = module.kernels[0].body[0];
  EXPECT_EQ(eval_expr(store.store->index, env), (Interval{1, 10}));
  // An unbound slot is a variable out of scope: evaluation throws.
  const Stmt& unknown = module.kernels[0].body[1];
  EXPECT_THROW(eval_expr(unknown.store->index, env), Error);
}

TEST(IrExprTest, FlagsInt32OverflowWithoutSaturatingInt64) {
  const Expr big = Expr::make(
      Expr::Kind::kMul,
      {Expr::literal(1'000'000'000), Expr::literal(1'000'000)});
  bool overflow = false;
  const Env env(SlotTable::fixed());
  const Interval v = eval_expr(big, env, &overflow);
  EXPECT_TRUE(overflow);
  EXPECT_EQ(v, Interval::point(1'000'000'000'000'000));
  overflow = false;
  eval_expr(Expr::literal(1'000'000), env, &overflow);
  EXPECT_FALSE(overflow);
}

TEST(IrExprTest, Cast64WidensTheResultButNotTheOperands) {
  // (long)(a) * b is 64-bit device arithmetic: no int32 flag even though
  // the product is huge.
  const Expr widened = Expr::make(
      Expr::Kind::kMul,
      {Expr::make(Expr::Kind::kCast64, {Expr::literal(1'000'000'000)}),
       Expr::literal(1'000'000)});
  const Env env(SlotTable::fixed());
  bool overflow = false;
  EXPECT_EQ(eval_expr(widened, env, &overflow),
            Interval::point(1'000'000'000'000'000));
  EXPECT_FALSE(overflow);

  // But arithmetic *inside* the cast argument is still `int` on the
  // device and still checked.
  const Expr inner_wraps = Expr::make(
      Expr::Kind::kCast64,
      {Expr::make(Expr::Kind::kMul, {Expr::literal(1'000'000'000),
                                     Expr::literal(1'000'000)})});
  overflow = false;
  eval_expr(inner_wraps, env, &overflow);
  EXPECT_TRUE(overflow);
}

// --- golden SCL4xx diagnostics on seeded-defect mini-kernels ----------------

TEST(IrDataflowTest, CleanMiniKernelHasNoDiagnostics) {
  const DiagnosticEngine diags = analyze(
      "__kernel void k" + std::string(kParams) +
      " {\n"
      "  __local float buf[64];\n"
      "  for (int i = 0; i < 16; ++i) { buf[i] = A_in[i]; }\n"
      "  for (int i = 0; i < 16; ++i) { A_out[i] = buf[i]; }\n"
      "}\n");
  EXPECT_TRUE(diags.empty()) << diags.render_text();
}

TEST(IrDataflowTest, Scl401LocalBufferOverrun) {
  // Off-by-one: `<= 16` stores index 16 into a 16-element buffer.
  const DiagnosticEngine diags = analyze(
      "__kernel void k" + std::string(kParams) +
      " {\n"
      "  __local float buf[16];\n"
      "  for (int i = 0; i <= 16; ++i) { buf[i] = A_in[i]; }\n"
      "  for (int i = 0; i < 16; ++i) { A_out[i] = buf[i]; }\n"
      "}\n");
  EXPECT_TRUE(has_code(diags, "SCL401"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(IrDataflowTest, Scl402GlobalIndexEscapesGrid) {
  // The mini context's grid holds 64 cells; index 64 is out of range.
  const DiagnosticEngine diags = analyze(
      "__kernel void k" + std::string(kParams) +
      " {\n"
      "  for (int i = 0; i < 65; ++i) { A_out[i] = A_in[0]; }\n"
      "}\n");
  EXPECT_TRUE(has_code(diags, "SCL402"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(IrDataflowTest, Scl403UninitializedLocalRead) {
  // Stores cover [0, 8); the loads read [8, 16) — provably disjoint.
  const DiagnosticEngine diags = analyze(
      "__kernel void k" + std::string(kParams) +
      " {\n"
      "  __local float buf[16];\n"
      "  for (int i = 0; i < 8; ++i) { buf[i] = A_in[i]; }\n"
      "  for (int i = 0; i < 8; ++i) { A_out[i] = buf[i + 8]; }\n"
      "}\n");
  EXPECT_TRUE(has_code(diags, "SCL403"));
  EXPECT_FALSE(has_code(diags, "SCL401")) << diags.render_text();
}

TEST(IrDataflowTest, Scl404DeadLocalStores) {
  const DiagnosticEngine diags = analyze(
      "__kernel void k" + std::string(kParams) +
      " {\n"
      "  __local float buf[16];\n"
      "  for (int i = 0; i < 16; ++i) { buf[i] = A_in[i]; }\n"
      "  for (int i = 0; i < 16; ++i) { A_out[i] = A_in[i]; }\n"
      "}\n");
  EXPECT_TRUE(has_code(diags, "SCL404"));
}

TEST(IrDataflowTest, Scl405Int32IndexOverflow) {
  const DiagnosticEngine diags = analyze(
      "__kernel void k" + std::string(kParams) +
      " {\n"
      "  for (int i = 0; i < 8; ++i) { A_out[i * 1000000000] = A_in[0]; }\n"
      "}\n");
  EXPECT_TRUE(has_code(diags, "SCL405"));
}

TEST(IrDataflowTest, Scl406PipeTokenImbalance) {
  // The writer pushes 4 tokens per pass, the reader drains 3.
  const std::string src =
      "pipe float p __attribute__((xcl_reqd_pipe_depth(16)));\n"
      "__kernel void k0" + std::string(kParams) +
      " {\n"
      "  for (int i = 0; i < 4; ++i) {\n"
      "    float v = A_in[i];\n"
      "    write_pipe_block(p, &v);\n"
      "  }\n"
      "  A_out[0] = A_in[0];\n"
      "}\n"
      "__kernel void k1" + std::string(kParams) +
      " {\n"
      "  for (int i = 0; i < 3; ++i) {\n"
      "    float v;\n"
      "    read_pipe_block(p, &v);\n"
      "  }\n"
      "  A_out[1] = A_in[1];\n"
      "}\n";
  const DiagnosticEngine diags = analyze(src);
  EXPECT_TRUE(has_code(diags, "SCL406"));

  // Balancing the trip counts clears the diagnostic.
  std::string balanced = src;
  balanced.replace(balanced.find("i < 3"), 5, "i < 4");
  EXPECT_FALSE(has_code(analyze(balanced), "SCL406"));
}

TEST(IrDataflowTest, Scl407ProvablyEmptyLoop) {
  const DiagnosticEngine diags = analyze(
      "__kernel void k" + std::string(kParams) +
      " {\n"
      "  __local float buf[16];\n"
      "  for (int i = 8; i < 4; ++i) { buf[i] = A_in[i]; }\n"
      "  A_out[0] = A_in[0];\n"
      "}\n");
  EXPECT_TRUE(has_code(diags, "SCL407"));
  EXPECT_EQ(diags.error_count(), 0) << diags.render_text();
}

TEST(IrDataflowTest, Scl408OutputNeverStored) {
  const DiagnosticEngine diags = analyze(
      "__kernel void k" + std::string(kParams) +
      " {\n"
      "  __local float buf[16];\n"
      "  for (int i = 0; i < 16; ++i) { buf[i] = A_in[i]; }\n"
      "}\n");
  EXPECT_TRUE(has_code(diags, "SCL408"));
}

TEST(IrDataflowTest, Scl409UnmodeledConstructWarns) {
  const DiagnosticEngine diags = analyze(
      "__kernel void k" + std::string(kParams) +
      " {\n"
      "  int z = 3;\n"
      "  A_out[0] = A_in[0];\n"
      "}\n");
  EXPECT_TRUE(has_code(diags, "SCL409"));
  EXPECT_EQ(diags.error_count(), 0);
}

TEST(IrDataflowTest, Scl409LoweringFailureIsAnError) {
  const DiagnosticEngine diags = analyze("__kernel void k(");
  EXPECT_TRUE(has_code(diags, "SCL409"));
  EXPECT_TRUE(diags.has_errors());
}

// --- tampered real emitter output -------------------------------------------

struct Emitted {
  scl::stencil::StencilProgram program;
  DesignConfig config;
  std::string source;
};

/// Emits the heterogeneous Jacobi-2D kernels at test scale.
Emitted emit_jacobi2d() {
  Emitted out{scl::stencil::make_jacobi2d(64, 64, 16), DesignConfig{}, ""};
  out.config.kind = DesignKind::kHeterogeneous;
  out.config.fused_iterations = 4;
  out.config.parallelism = {2, 2, 1};
  out.config.tile_size = {16, 16, 1};
  out.source = codegen::generate_opencl(out.program, out.config,
                                        fpga::virtex7_690t())
                   .kernel_source;
  return out;
}

DiagnosticEngine analyze_emitted(const Emitted& emitted) {
  DiagnosticEngine diags;
  analyze_kernel_source(emitted.source,
                        make_ir_context(emitted.program, emitted.config),
                        &diags);
  return diags;
}

TEST(IrTamperTest, PristineEmitterOutputIsClean) {
  const Emitted emitted = emit_jacobi2d();
  const DiagnosticEngine diags = analyze_emitted(emitted);
  EXPECT_EQ(diags.error_count(), 0) << diags.render_text();
  EXPECT_EQ(diags.warning_count(), 0) << diags.render_text();
}

TEST(IrTamperTest, OffsetLocalIndexFiresScl401) {
  Emitted emitted = emit_jacobi2d();
  // Shift every kernel-0 local index far past the buffer: the classic
  // wrong-origin-macro emitter bug.
  const std::string needle = "- K0_B0_LO";
  std::size_t pos = emitted.source.find(needle);
  ASSERT_NE(pos, std::string::npos);
  while (pos != std::string::npos) {
    emitted.source.replace(pos, needle.size(), "- K0_B0_LO + 1000000");
    pos = emitted.source.find(needle, pos + needle.size() + 10);
  }
  EXPECT_TRUE(has_code(analyze_emitted(emitted), "SCL401"));
}

TEST(IrTamperTest, DroppedPipeWriteFiresScl406) {
  Emitted emitted = emit_jacobi2d();
  const std::size_t call = emitted.source.find("write_pipe_block(");
  ASSERT_NE(call, std::string::npos);
  const std::size_t end = emitted.source.find(';', call);
  ASSERT_NE(end, std::string::npos);
  emitted.source.erase(call, end - call + 1);
  EXPECT_TRUE(has_code(analyze_emitted(emitted), "SCL406"));
}

TEST(IrTamperTest, SwappedIterationBoundFiresScl407) {
  Emitted emitted = emit_jacobi2d();
  const std::string needle = "it <= pass_h";
  const std::size_t pos = emitted.source.find(needle);
  ASSERT_NE(pos, std::string::npos);
  emitted.source.replace(pos, needle.size(), "it <= 0");
  EXPECT_TRUE(has_code(analyze_emitted(emitted), "SCL407"));
}

TEST(IrTamperTest, BlownUpGlobalIndexMacroFiresScl405) {
  Emitted emitted = emit_jacobi2d();
  const std::size_t macro = emitted.source.find("#define GIDX");
  ASSERT_NE(macro, std::string::npos);
  // Drop the emitter's 64-bit widening so the index is `int` again, then
  // blow up the row stride: classic silent device-side wrap.
  const std::size_t cast = emitted.source.find("(long)", macro);
  ASSERT_NE(cast, std::string::npos);
  emitted.source.erase(cast, 6);
  const std::size_t mul = emitted.source.find("* 64", macro);
  ASSERT_NE(mul, std::string::npos);
  emitted.source.replace(mul, 4, "* 1000000000");
  const DiagnosticEngine diags = analyze_emitted(emitted);
  EXPECT_TRUE(has_code(diags, "SCL405"));
  EXPECT_TRUE(has_code(diags, "SCL402"));
}

TEST(IrTamperTest, PaperScaleFlatIndexNeedsTheLongCast) {
  // The regression that motivated the 64-bit GIDX: at paper-scale grids
  // the row-major flat index exceeds INT32_MAX, so without the widening
  // cast the emitted `int` arithmetic wraps on the device.
  Emitted emitted{scl::stencil::make_jacobi2d(65536, 65536, 4),
                  DesignConfig{}, ""};
  emitted.config.kind = DesignKind::kHeterogeneous;
  emitted.config.fused_iterations = 4;
  emitted.config.parallelism = {2, 2, 1};
  emitted.config.tile_size = {16, 16, 1};
  emitted.source = codegen::generate_opencl(emitted.program, emitted.config,
                                            fpga::virtex7_690t())
                       .kernel_source;
  EXPECT_FALSE(has_code(analyze_emitted(emitted), "SCL405"));

  const std::size_t macro = emitted.source.find("#define GIDX");
  ASSERT_NE(macro, std::string::npos);
  const std::size_t cast = emitted.source.find("(long)", macro);
  ASSERT_NE(cast, std::string::npos);
  emitted.source.erase(cast, 6);
  EXPECT_TRUE(has_code(analyze_emitted(emitted), "SCL405"));
}

// --- the analyzer-clean guarantee over the paper suite ----------------------

TEST(IrSuiteTest, EveryBundledBenchmarkLowersAndAnalyzesClean) {
  for (const auto& bench : scl::stencil::paper_benchmarks()) {
    SCOPED_TRACE(bench.name);
    const scl::stencil::StencilProgram program =
        bench.make_scaled({64, 64, 64}, 16);
    DesignConfig config;
    config.kind = DesignKind::kHeterogeneous;
    config.fused_iterations = 4;
    config.parallelism = {2, 1, 1};
    config.tile_size = {16, 1, 1};
    for (int d = 1; d < program.dims(); ++d) {
      config.parallelism[static_cast<std::size_t>(d)] = 2;
      config.tile_size[static_cast<std::size_t>(d)] = 16;
    }
    const codegen::GeneratedCode code =
        codegen::generate_opencl(program, config, fpga::virtex7_690t());
    const Module module = lower_kernel_source(code.kernel_source);
    EXPECT_TRUE(module.unmodeled.empty())
        << module.unmodeled.front() << " (+" << module.unmodeled.size() - 1
        << " more)";
    DiagnosticEngine diags;
    analyze_module(module, make_ir_context(program, config), &diags);
    EXPECT_EQ(diags.error_count(), 0) << diags.render_text();
    EXPECT_EQ(diags.warning_count(), 0) << diags.render_text();
  }
}

// --- core wiring ------------------------------------------------------------

TEST(IrVerifyTest, VerifyGeneratedIrReportsStats) {
  const Emitted emitted = emit_jacobi2d();
  DiagnosticEngine diags;
  codegen::GeneratedCode code;
  code.kernel_source = emitted.source;
  const core::IrVerifyStats stats = core::verify_generated_ir(
      emitted.program, emitted.config, code, &diags);
  EXPECT_TRUE(stats.ran);
  EXPECT_GT(stats.kernels_lowered, 0);
  EXPECT_GT(stats.pipes_checked, 0);
  EXPECT_EQ(stats.unmodeled_constructs, 0);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.warnings, 0);
  EXPECT_TRUE(diags.empty()) << diags.render_text();
}

TEST(IrVerifyTest, UndeclaredPipeInEmittedKernelFiresScl013) {
  // Pipe pairing is read from the lowered module: rename the pipe of one
  // read_pipe_block call in a real pipe-tiling design's kernels to a name
  // no declaration carries.
  Emitted emitted = emit_jacobi2d();
  const std::string call = "read_pipe_block(";
  const std::size_t at = emitted.source.find(call);
  ASSERT_NE(at, std::string::npos);
  const std::size_t name = at + call.size();
  const std::size_t comma = emitted.source.find(',', name);
  ASSERT_NE(comma, std::string::npos);
  emitted.source.replace(name, comma - name, "p_undeclared");
  codegen::GeneratedCode code;
  code.kernel_source = emitted.source;
  DiagnosticEngine diags;
  const core::IrVerifyStats stats = core::verify_generated_ir(
      emitted.program, emitted.config, code, &diags);
  EXPECT_GT(stats.errors, 0);
  bool found = false;
  bool pass4_seen = false;
  for (const auto& diag : diags.diagnostics()) {
    if (diag.code.rfind("SCL4", 0) == 0) pass4_seen = true;
    if (diag.code.rfind("SCL0", 0) == 0) {
      EXPECT_FALSE(pass4_seen) << "SCL0xx must precede SCL4xx";
    }
    if (diag.code == "SCL013") {
      found = true;
      EXPECT_EQ(diag.message, "pipe 'p_undeclared' read but not declared");
      EXPECT_EQ(diag.location.component, "pipe");
      EXPECT_EQ(diag.location.detail, "p_undeclared");
    }
  }
  EXPECT_TRUE(found) << diags.render_text();
}

TEST(IrVerifyTest, VerificationErrorCarriesStructuredDiagnostics) {
  DiagnosticEngine diags;
  diags.error("SCL406", "pipe 'p' is unbalanced");
  diags.warning("SCL409", "one construct skipped");
  const core::VerificationError error("analysis failed",
                                      diags.diagnostics());
  EXPECT_STREQ(error.what(), "analysis failed");
  ASSERT_EQ(error.diagnostics().size(), 2u);
  EXPECT_EQ(error.diagnostics()[0].code, "SCL406");
  // The serve layer catches it as scl::Error too (scheduler rethrow).
  try {
    throw core::VerificationError("x", diags.diagnostics());
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "x");
  }
}

}  // namespace
}  // namespace scl::analysis::ir
