#include "serve/serialize.hpp"

#include "core/report.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::serve {

namespace {

using support::JsonValue;
using support::JsonWriter;

void write_int_triple(JsonWriter* json, std::string_view name,
                      std::int64_t a, std::int64_t b, std::int64_t c) {
  json->key(name).begin_array();
  json->value(a).value(b).value(c);
  json->end_array();
}

void parse_int_triple(const JsonValue& v, std::string_view name,
                      std::int64_t* a, std::int64_t* b, std::int64_t* c) {
  const JsonValue& arr = v.at(name);
  if (arr.size() != 3) {
    throw Error(str_cat("artifact: \"", name, "\" must have 3 entries"));
  }
  *a = arr[0].as_int64();
  *b = arr[1].as_int64();
  *c = arr[2].as_int64();
}

void write_resource_vector(JsonWriter* json, const fpga::ResourceVector& r) {
  json->begin_object();
  json->member("ff", r.ff);
  json->member("lut", r.lut);
  json->member("dsp", r.dsp);
  json->member("bram18", r.bram18);
  json->end_object();
}

fpga::ResourceVector parse_resource_vector(const JsonValue& v) {
  fpga::ResourceVector r;
  r.ff = v.at("ff").as_int64();
  r.lut = v.at("lut").as_int64();
  r.dsp = v.at("dsp").as_int64();
  r.bram18 = v.at("bram18").as_int64();
  return r;
}

void write_prediction(JsonWriter* json, const model::Prediction& p) {
  json->begin_object();
  json->member("total_cycles", p.total_cycles);
  json->member("total_ms", p.total_ms);
  json->member("n_region", p.n_region);
  json->member("l_mem", p.l_mem);
  json->member("l_comp", p.l_comp);
  json->member("l_share_exposed", p.l_share_exposed);
  json->member("lambda", p.lambda);
  json->member("l_tile", p.l_tile);
  json->end_object();
}

model::Prediction parse_prediction(const JsonValue& v) {
  model::Prediction p;
  p.total_cycles = v.at("total_cycles").as_double();
  p.total_ms = v.at("total_ms").as_double();
  p.n_region = v.at("n_region").as_int64();
  p.l_mem = v.at("l_mem").as_double();
  p.l_comp = v.at("l_comp").as_double();
  p.l_share_exposed = v.at("l_share_exposed").as_double();
  p.lambda = v.at("lambda").as_double();
  p.l_tile = v.at("l_tile").as_double();
  return p;
}

void write_design_resources(JsonWriter* json,
                            const core::DesignResources& r) {
  json->begin_object();
  json->key("total");
  write_resource_vector(json, r.total);
  json->key("worst_kernel");
  write_resource_vector(json, r.worst_kernel);
  json->member("buffer_elements_total", r.buffer_elements_total);
  json->member("pipe_count", r.pipe_count);
  json->member("pipe_fifo_elements_total", r.pipe_fifo_elements_total);
  json->end_object();
}

core::DesignResources parse_design_resources(const JsonValue& v) {
  core::DesignResources r;
  r.total = parse_resource_vector(v.at("total"));
  r.worst_kernel = parse_resource_vector(v.at("worst_kernel"));
  r.buffer_elements_total = v.at("buffer_elements_total").as_int64();
  r.pipe_count = v.at("pipe_count").as_int64();
  r.pipe_fifo_elements_total = v.at("pipe_fifo_elements_total").as_int64();
  return r;
}

void write_generated_code(JsonWriter* json, const codegen::GeneratedCode& c) {
  json->begin_object();
  json->member("kernel_count", c.kernel_count);
  json->member("pipe_count", c.pipe_count);
  json->member("kernel_source", c.kernel_source);
  json->member("host_source", c.host_source);
  json->member("build_script", c.build_script);
  json->end_object();
}

codegen::GeneratedCode parse_generated_code(const JsonValue& v) {
  codegen::GeneratedCode c;
  c.kernel_count = static_cast<int>(v.at("kernel_count").as_int64());
  c.pipe_count = static_cast<int>(v.at("pipe_count").as_int64());
  c.kernel_source = v.at("kernel_source").as_string();
  c.host_source = v.at("host_source").as_string();
  c.build_script = v.at("build_script").as_string();
  return c;
}

support::Severity parse_severity(const std::string& text) {
  if (text == "note") return support::Severity::kNote;
  if (text == "warning") return support::Severity::kWarning;
  if (text == "error") return support::Severity::kError;
  throw Error(str_cat("artifact: unknown diagnostic severity \"", text,
                      "\""));
}

void write_device(JsonWriter* json, const fpga::DeviceSpec& device) {
  json->begin_object();
  json->member("name", device.name);
  json->key("capacity");
  write_resource_vector(json, device.capacity);
  json->member("clock_mhz", device.clock_mhz);
  json->member("mem_bytes_per_cycle", device.mem_bytes_per_cycle);
  json->member("mem_port_bytes_per_cycle", device.mem_port_bytes_per_cycle);
  json->member("kernel_launch_cycles", device.kernel_launch_cycles);
  json->member("pipe_cycles_per_element", device.pipe_cycles_per_element);
  json->member("pipe_fifo_depth", device.pipe_fifo_depth);
  json->key("memory").begin_object();
  json->member("banks", device.memory.banks);
  json->member("bank_bytes_per_cycle", device.memory.bank_bytes_per_cycle);
  json->member("bank_port_bytes_per_cycle",
               device.memory.bank_port_bytes_per_cycle);
  json->member("bank_conflict_factor", device.memory.bank_conflict_factor);
  json->end_object();
  json->end_object();
}

template <typename T>
void write_scalar_list(JsonWriter* json, std::string_view name,
                       const std::vector<T>& values) {
  json->key(name).begin_array();
  for (const T& v : values) json->value(static_cast<std::int64_t>(v));
  json->end_array();
}

}  // namespace

std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void write_design_config(JsonWriter* json, const sim::DesignConfig& config) {
  json->begin_object();
  json->member("family", arch::to_string(config.family));
  json->member("kind", sim::to_string(config.kind));
  json->member("fused_iterations", config.fused_iterations);
  write_int_triple(json, "parallelism", config.parallelism[0],
                   config.parallelism[1], config.parallelism[2]);
  write_int_triple(json, "tile_size", config.tile_size[0],
                   config.tile_size[1], config.tile_size[2]);
  write_int_triple(json, "edge_shrink", config.edge_shrink[0],
                   config.edge_shrink[1], config.edge_shrink[2]);
  json->member("unroll", config.unroll);
  json->member("replication", config.replication);
  json->end_object();
}

sim::DesignConfig parse_design_config(const JsonValue& v) {
  sim::DesignConfig config;
  const std::string& family = v.at("family").as_string();
  if (family == arch::to_string(arch::DesignFamily::kPipeTiling)) {
    config.family = arch::DesignFamily::kPipeTiling;
  } else if (family ==
             arch::to_string(arch::DesignFamily::kTemporalShift)) {
    config.family = arch::DesignFamily::kTemporalShift;
  } else {
    throw Error(str_cat("artifact: unknown design family \"", family, "\""));
  }
  const std::string& kind = v.at("kind").as_string();
  if (kind == sim::to_string(sim::DesignKind::kBaseline)) {
    config.kind = sim::DesignKind::kBaseline;
  } else if (kind == sim::to_string(sim::DesignKind::kHeterogeneous)) {
    config.kind = sim::DesignKind::kHeterogeneous;
  } else {
    throw Error(str_cat("artifact: unknown design kind \"", kind, "\""));
  }
  config.fused_iterations = v.at("fused_iterations").as_int64();
  std::int64_t p0 = 0, p1 = 0, p2 = 0;
  parse_int_triple(v, "parallelism", &p0, &p1, &p2);
  config.parallelism = {static_cast<int>(p0), static_cast<int>(p1),
                        static_cast<int>(p2)};
  parse_int_triple(v, "tile_size", &config.tile_size[0],
                   &config.tile_size[1], &config.tile_size[2]);
  parse_int_triple(v, "edge_shrink", &config.edge_shrink[0],
                   &config.edge_shrink[1], &config.edge_shrink[2]);
  config.unroll = static_cast<int>(v.at("unroll").as_int64());
  config.replication = static_cast<int>(v.at("replication").as_int64());
  return config;
}

void write_design_point(JsonWriter* json, const core::DesignPoint& point) {
  json->begin_object();
  json->key("config");
  write_design_config(json, point.config);
  json->key("prediction");
  write_prediction(json, point.prediction);
  json->key("resources");
  write_design_resources(json, point.resources);
  // Kept until the next schema bump so artifact bytes do not move.
  json->member("analysis_errors", std::int64_t{0});
  json->end_object();
}

core::DesignPoint parse_design_point(const JsonValue& v) {
  core::DesignPoint point;
  point.config = parse_design_config(v.at("config"));
  point.prediction = parse_prediction(v.at("prediction"));
  point.resources = parse_design_resources(v.at("resources"));
  return point;
}

void write_diagnostics(JsonWriter* json,
                       const support::DiagnosticEngine& diags) {
  json->begin_array();
  for (const support::Diagnostic& diag : diags.diagnostics()) {
    json->begin_object();
    json->member("code", diag.code);
    json->member("severity", support::to_string(diag.severity));
    json->member("message", diag.message);
    if (!diag.location.empty()) {
      json->key("location").begin_object();
      json->member("component", diag.location.component);
      json->member("detail", diag.location.detail);
      if (diag.location.line >= 0) json->member("line", diag.location.line);
      json->end_object();
    }
    if (!diag.notes.empty()) {
      json->key("notes").begin_array();
      for (const std::string& note : diag.notes) json->value(note);
      json->end_array();
    }
    json->end_object();
  }
  json->end_array();
}

support::DiagnosticEngine parse_diagnostics(const JsonValue& v) {
  support::DiagnosticEngine diags;
  for (const JsonValue& entry : v.items()) {
    support::Diagnostic& diag =
        diags.add(entry.at("code").as_string(),
                  parse_severity(entry.at("severity").as_string()),
                  entry.at("message").as_string());
    if (const JsonValue* loc = entry.find("location")) {
      diag.location.component = loc->get_string("component", "");
      diag.location.detail = loc->get_string("detail", "");
      diag.location.line = static_cast<int>(loc->get_int64("line", -1));
    }
    if (const JsonValue* notes = entry.find("notes")) {
      for (const JsonValue& note : notes->items()) {
        diag.notes.push_back(note.as_string());
      }
    }
  }
  return diags;
}

std::string serialize_artifact(const SynthesisArtifact& artifact) {
  JsonWriter json(support::JsonStyle::kCompact);
  json.begin_object();
  json.member("schema", kArtifactSchemaVersion);
  json.member("code_version", kCodeVersion);
  json.member("key", artifact.key);
  json.member("program", artifact.program_name);
  json.member("device", artifact.device_name);
  json.key("baseline");
  write_design_point(&json, artifact.baseline);
  json.key("heterogeneous");
  write_design_point(&json, artifact.heterogeneous);
  json.member("selected_family", arch::to_string(artifact.selected_family));
  if (artifact.temporal) {
    json.key("temporal");
    write_design_point(&json, *artifact.temporal);
  }
  json.key("simulated").begin_object();
  json.member("baseline_cycles", artifact.baseline_cycles);
  json.member("heterogeneous_cycles", artifact.heterogeneous_cycles);
  json.member("temporal_cycles", artifact.temporal_cycles);
  json.member("baseline_ms", artifact.baseline_ms);
  json.member("heterogeneous_ms", artifact.heterogeneous_ms);
  json.member("speedup", artifact.speedup);
  json.end_object();
  json.key("code");
  write_generated_code(&json, artifact.code);
  json.key("analysis");
  write_diagnostics(&json, artifact.analysis);
  json.member("report", artifact.markdown_report);
  json.end_object();
  return json.take();
}

SynthesisArtifact parse_artifact(const std::string& payload) {
  const JsonValue v = JsonValue::parse(payload);
  if (!v.is_object()) throw Error("artifact: payload is not a JSON object");
  const std::int64_t schema = v.get_int64("schema", -1);
  if (schema != kArtifactSchemaVersion) {
    throw Error(str_cat("artifact: schema ", schema, " != expected ",
                        kArtifactSchemaVersion));
  }
  if (v.get_string("code_version", "") != kCodeVersion) {
    throw Error("artifact: produced by a different code version");
  }
  SynthesisArtifact artifact;
  artifact.key = v.at("key").as_string();
  artifact.program_name = v.at("program").as_string();
  artifact.device_name = v.at("device").as_string();
  artifact.baseline = parse_design_point(v.at("baseline"));
  artifact.heterogeneous = parse_design_point(v.at("heterogeneous"));
  const std::string& family = v.at("selected_family").as_string();
  if (family == arch::to_string(arch::DesignFamily::kTemporalShift)) {
    artifact.selected_family = arch::DesignFamily::kTemporalShift;
  } else if (family != arch::to_string(arch::DesignFamily::kPipeTiling)) {
    throw Error(str_cat("artifact: unknown selected family \"", family,
                        "\""));
  }
  if (const JsonValue* temporal = v.find("temporal")) {
    artifact.temporal = parse_design_point(*temporal);
  }
  const JsonValue& simulated = v.at("simulated");
  artifact.baseline_cycles = simulated.at("baseline_cycles").as_int64();
  artifact.heterogeneous_cycles =
      simulated.at("heterogeneous_cycles").as_int64();
  artifact.temporal_cycles = simulated.at("temporal_cycles").as_int64();
  artifact.baseline_ms = simulated.at("baseline_ms").as_double();
  artifact.heterogeneous_ms = simulated.at("heterogeneous_ms").as_double();
  artifact.speedup = simulated.at("speedup").as_double();
  artifact.code = parse_generated_code(v.at("code"));
  artifact.analysis = parse_diagnostics(v.at("analysis"));
  artifact.markdown_report = v.at("report").as_string();
  return artifact;
}

SynthesisArtifact make_artifact(std::string key,
                                const core::SynthesisReport& report) {
  SynthesisArtifact artifact;
  artifact.key = std::move(key);
  artifact.program_name = report.features.name;
  artifact.device_name = report.device.name;
  artifact.baseline = report.baseline;
  artifact.heterogeneous = report.heterogeneous;
  artifact.selected_family = report.selected_family;
  artifact.temporal = report.temporal;
  artifact.baseline_cycles = report.baseline_sim.total_cycles;
  artifact.heterogeneous_cycles = report.heterogeneous_sim.total_cycles;
  artifact.temporal_cycles = report.temporal_sim.total_cycles;
  artifact.baseline_ms = report.baseline_sim.total_ms;
  artifact.heterogeneous_ms = report.heterogeneous_sim.total_ms;
  artifact.speedup = report.speedup;
  artifact.code = report.code;
  artifact.analysis = report.analysis;
  // No timing rows: stored artifacts must be byte-deterministic.
  artifact.markdown_report = core::render_markdown_report(
      report, core::MarkdownReportOptions{/*include_timing=*/false});
  return artifact;
}

std::string request_fingerprint(const std::string& canonical_program,
                                const core::FrameworkOptions& options) {
  const core::OptimizerOptions& opt = options.optimizer;
  JsonWriter json(support::JsonStyle::kCompact);
  json.begin_object();
  json.member("schema", kArtifactSchemaVersion);
  json.member("code_version", kCodeVersion);
  json.member("program", canonical_program);
  json.key("device");
  write_device(&json, opt.device);
  json.key("options").begin_object();
  // The family policy changes which design is emitted, so it is part of
  // the content address.
  json.member("family", core::to_string(options.family));
  json.member("resource_fraction", opt.resource_fraction);
  write_scalar_list(&json, "fusion_candidates", opt.fusion_candidates);
  write_scalar_list(&json, "tile_candidates", opt.tile_candidates);
  write_scalar_list(&json, "unroll_candidates", opt.unroll_candidates);
  json.member("max_kernels", opt.max_kernels);
  write_scalar_list(&json, "shrink_candidates", opt.shrink_candidates);
  write_scalar_list(&json, "replication_candidates", opt.replication_candidates);
  json.member("cone_mode", static_cast<std::int64_t>(opt.cone_mode));
  // Kept until the next schema bump so content addresses do not move.
  json.member("analyze_candidates", false);
  json.member("simulate", options.simulate);
  json.member("generate_code", options.generate_code);
  json.member("analyze", options.analyze);
  json.member("fail_on_analysis_error", options.fail_on_analysis_error);
  json.end_object();
  json.end_object();
  return json.take();
}

std::string request_key(const std::string& canonical_program,
                        const core::FrameworkOptions& options) {
  const std::string fingerprint =
      request_fingerprint(canonical_program, options);
  // Two independent 64-bit FNV-1a passes (the second one salted) give a
  // 128-bit address; a 64-bit key alone would make birthday collisions
  // plausible at production cache sizes.
  const std::uint64_t lo = fnv1a64(fingerprint);
  const std::uint64_t hi =
      fnv1a64(fingerprint, fnv1a64("scl-artifact-salt"));
  static const char* hex = "0123456789abcdef";
  std::string key;
  key.reserve(32);
  for (int shift = 60; shift >= 0; shift -= 4) {
    key += hex[(hi >> shift) & 0xF];
  }
  for (int shift = 60; shift >= 0; shift -= 4) {
    key += hex[(lo >> shift) & 0xF];
  }
  return key;
}

}  // namespace scl::serve
