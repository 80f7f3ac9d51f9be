// End-to-end tests of the batched synthesis service (serve/service.hpp):
// store round trips across service instances, corruption recovery,
// request coalescing, and payload determinism.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/serialize.hpp"
#include "stencil/kernels.hpp"
#include "stencil/parser.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/observability/observability.hpp"

namespace scl::serve {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<const stencil::StencilProgram> small_program(
    const std::string& benchmark = "Jacobi-2D",
    std::array<std::int64_t, 3> extents = {64, 64, 1},
    std::int64_t iterations = 8) {
  return std::make_shared<stencil::StencilProgram>(
      stencil::find_benchmark(benchmark).make_scaled(extents, iterations));
}

std::map<std::string, std::string> slurp_dir(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    files[entry.path().filename().string()] = body.str();
  }
  return files;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("scl-service-test-" + std::string(::testing::UnitTest::
                                                   GetInstance()
                                                       ->current_test_info()
                                                       ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  ServiceOptions options_with_store(int threads = 2) {
    ServiceOptions options;
    options.store_dir = (root_ / "store").string();
    options.threads = threads;
    return options;
  }

  fs::path root_;
};

TEST_F(ServiceTest, ColdThenWarmServesFromStore) {
  JobRequest request;
  request.program = small_program();

  std::string cold_key;
  std::int64_t cold_cycles = 0;
  {
    SynthesisService service(options_with_store());
    const JobResult cold = service.wait(service.submit(request));
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.from_cache);
    ASSERT_EQ(cold.key.size(), 32u);
    cold_key = cold.key;
    cold_cycles = cold.artifact->heterogeneous_cycles;
    EXPECT_GT(cold.artifact->speedup, 0.0);
    EXPECT_FALSE(cold.artifact->code.kernel_source.empty());
    EXPECT_EQ(service.stats().synthesized, 1);
  }
  // A brand-new service over the same directory — the "second process" —
  // serves the identical result warm.
  {
    SynthesisService service(options_with_store());
    const JobResult warm = service.wait(service.submit(request));
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.from_cache);
    EXPECT_EQ(warm.key, cold_key);
    EXPECT_EQ(warm.artifact->heterogeneous_cycles, cold_cycles);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.synthesized, 0);
    EXPECT_EQ(stats.store_hits, 1);
  }
}

TEST_F(ServiceTest, RestartedServiceAnswersFirstRequestFromMemory) {
  JobRequest request;
  request.program = small_program();
  {
    SynthesisService service(options_with_store());
    ASSERT_TRUE(service.wait(service.submit(request)).ok);
  }
  // The restarted service preloads its hot tier from the store's
  // most-recently-used artifacts, so even the FIRST request after the
  // restart is a memory hit — no disk read on the serving path.
  SynthesisService restarted(options_with_store());
  const JobResult warm = restarted.wait(restarted.submit(request));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.from_cache);
  EXPECT_TRUE(warm.from_memory)
      << "hot-tier warmup must preload the artifact at startup";
  EXPECT_TRUE(warm.artifact->served_from_memory);

  // Opting out restores the cold-memory restart behavior.
  ServiceOptions cold_options = options_with_store();
  cold_options.warm_memory_cache = false;
  SynthesisService cold_restart(std::move(cold_options));
  const JobResult disk = cold_restart.wait(cold_restart.submit(request));
  ASSERT_TRUE(disk.ok) << disk.error;
  EXPECT_TRUE(disk.from_cache);
  EXPECT_FALSE(disk.from_memory);
}

TEST_F(ServiceTest, WarmArtifactRoundTripsEveryField) {
  JobRequest request;
  request.program = small_program();
  SynthesisService service(options_with_store());
  const JobResult cold = service.wait(service.submit(request));
  ASSERT_TRUE(cold.ok) << cold.error;
  const JobResult warm = service.wait(service.submit(request));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.from_cache);

  const SynthesisArtifact& a = *cold.artifact;
  const SynthesisArtifact& b = *warm.artifact;
  EXPECT_EQ(a.program_name, b.program_name);
  EXPECT_EQ(a.device_name, b.device_name);
  EXPECT_EQ(a.baseline.config.key(), b.baseline.config.key());
  EXPECT_EQ(a.heterogeneous.config.key(), b.heterogeneous.config.key());
  EXPECT_EQ(a.baseline_cycles, b.baseline_cycles);
  EXPECT_EQ(a.heterogeneous_cycles, b.heterogeneous_cycles);
  EXPECT_EQ(a.baseline_ms, b.baseline_ms);
  EXPECT_EQ(a.heterogeneous_ms, b.heterogeneous_ms);
  EXPECT_EQ(a.speedup, b.speedup);
  EXPECT_EQ(a.code.kernel_source, b.code.kernel_source);
  EXPECT_EQ(a.code.host_source, b.code.host_source);
  EXPECT_EQ(a.code.build_script, b.code.build_script);
  EXPECT_EQ(a.markdown_report, b.markdown_report);
  EXPECT_EQ(a.analysis.render_json(), b.analysis.render_json());
  // The round trip is exact: re-serializing the warm artifact gives the
  // stored payload back byte for byte.
  EXPECT_EQ(serialize_artifact(a), serialize_artifact(b));
}

TEST_F(ServiceTest, CorruptedArtifactIsRecomputedNotFatal) {
  JobRequest request;
  request.program = small_program();
  std::string key;
  {
    SynthesisService service(options_with_store());
    const JobResult cold = service.wait(service.submit(request));
    ASSERT_TRUE(cold.ok) << cold.error;
    key = cold.key;
  }
  // Corrupt every stored byte stream in place.
  const fs::path store_dir = root_ / "store";
  for (const auto& entry : fs::recursive_directory_iterator(store_dir)) {
    if (!entry.is_regular_file()) continue;
    std::ofstream out(entry.path(),
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }

  SynthesisService service(options_with_store());
  const JobResult recovered = service.wait(service.submit(request));
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_FALSE(recovered.from_cache) << "corrupt artifact must recompute";
  EXPECT_EQ(recovered.key, key);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.synthesized, 1);
  EXPECT_EQ(stats.corrupt_recovered, 1);

  // And the recomputed artifact is back on disk, loadable.
  const JobResult warm = service.wait(service.submit(request));
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.from_cache);
}

TEST_F(ServiceTest, IdenticalConcurrentRequestsCoalesce) {
  // No store: every non-coalesced request would synthesize, so the
  // synthesized counter exposes coalescing directly. The batch is
  // submitted in one burst (microseconds) against a synthesis that takes
  // milliseconds, so all twins find the first request in flight.
  ServiceOptions options;
  options.threads = 4;
  SynthesisService service(options);

  JobRequest request;
  request.program = small_program("Jacobi-3D", {32, 32, 32}, 4);
  const std::vector<JobRequest> batch(8, request);
  const std::vector<JobResult> results = service.run_batch(batch);

  std::int64_t coalesced = 0;
  for (const JobResult& result : results) {
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.artifact->heterogeneous_cycles,
              results[0].artifact->heterogeneous_cycles);
    coalesced += result.coalesced ? 1 : 0;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 8);
  EXPECT_EQ(stats.synthesized, 1) << "8 identical requests, 1 synthesis";
  EXPECT_EQ(stats.coalesced, 7);
  EXPECT_EQ(coalesced, 7);
}

TEST_F(ServiceTest, ParallelBatchOfDistinctJobsSynthesizesAll) {
  // Four pumps synthesize four distinct jobs at once, each searching its
  // own design space on its pump's thread.
  SynthesisService service(options_with_store(/*threads=*/4));
  std::vector<JobRequest> batch;
  for (const auto& [name, extents, iters] :
       {std::tuple{"Jacobi-2D", std::array<std::int64_t, 3>{64, 64, 1},
                   std::int64_t{8}},
        std::tuple{"HotSpot-2D", std::array<std::int64_t, 3>{64, 64, 1},
                   std::int64_t{8}},
        std::tuple{"FDTD-2D", std::array<std::int64_t, 3>{64, 64, 1},
                   std::int64_t{8}},
        std::tuple{"Jacobi-3D", std::array<std::int64_t, 3>{32, 32, 32},
                   std::int64_t{4}}}) {
    JobRequest request;
    request.name = name;
    request.program = small_program(name, extents, iters);
    batch.push_back(std::move(request));
  }
  const std::vector<JobResult> results = service.run_batch(batch);
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& result : results) {
    EXPECT_TRUE(result.ok) << result.name << ": " << result.error;
    EXPECT_FALSE(result.from_cache);
  }
  EXPECT_EQ(service.stats().synthesized, 4);
}

TEST_F(ServiceTest, IndependentColdRunsProduceByteIdenticalStores) {
  const std::vector<std::string> names = {"Jacobi-2D", "HotSpot-2D"};
  auto run_into = [&](const std::string& dir) {
    ServiceOptions options;
    options.store_dir = (root_ / dir).string();
    SynthesisService service(options);
    for (const auto& name : names) {
      JobRequest request;
      request.program = small_program(name);
      const JobResult result = service.wait(service.submit(request));
      ASSERT_TRUE(result.ok) << result.error;
    }
  };
  run_into("store-a");
  run_into("store-b");
  const auto a = slurp_dir(root_ / "store-a");
  const auto b = slurp_dir(root_ / "store-b");
  ASSERT_EQ(a.size(), names.size());
  EXPECT_EQ(a, b) << "artifact bytes must be deterministic";
}

TEST_F(ServiceTest, StatsJsonIsWellFormed) {
  SynthesisService service(options_with_store());
  JobRequest request;
  request.program = small_program();
  ASSERT_TRUE(service.wait(service.submit(request)).ok);

  const support::JsonValue stats =
      support::JsonValue::parse(service.render_stats_json());
  EXPECT_EQ(stats.at("requests").as_int64(), 1);
  EXPECT_EQ(stats.at("synthesized").as_int64(), 1);
  EXPECT_EQ(stats.at("store_misses").as_int64(), 1);
  EXPECT_GT(stats.at("store_bytes").as_int64(), 0);
  EXPECT_GE(stats.at("latency_ms").at("p95").as_double(),
            stats.at("latency_ms").at("p50").as_double() * 0.999);
}

TEST_F(ServiceTest, JsonStatsMatchStructAndRegistryAfterMigration) {
  // The JSON stats now read from the service's metric registry; the
  // struct, the JSON and the exposition must agree on a known workload:
  // 3 requests for one key = 1 miss (cold), 2 hits (warm).
  SynthesisService service(options_with_store());
  JobRequest request;
  request.program = small_program();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.wait(service.submit(request)).ok);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.synthesized, 1);
  EXPECT_EQ(stats.store_hits, 2);
  EXPECT_EQ(stats.store_misses, 1);
  EXPECT_EQ(stats.failures, 0);

  const support::JsonValue json =
      support::JsonValue::parse(service.render_stats_json());
  EXPECT_EQ(json.at("requests").as_int64(), stats.requests);
  EXPECT_EQ(json.at("store_hits").as_int64(), stats.store_hits);
  EXPECT_EQ(json.at("store_misses").as_int64(), stats.store_misses);
  EXPECT_EQ(json.at("coalesced").as_int64(), stats.coalesced);
  EXPECT_EQ(json.at("synthesized").as_int64(), stats.synthesized);
  EXPECT_EQ(json.at("failures").as_int64(), stats.failures);
  EXPECT_EQ(json.at("store_bytes").as_int64(), stats.store_bytes);
  EXPECT_EQ(json.at("store_entries").as_int64(), stats.store_entries);
  EXPECT_DOUBLE_EQ(json.at("latency_ms").at("p50").as_double(),
                   stats.latency_p50_ms);
  EXPECT_DOUBLE_EQ(json.at("latency_ms").at("p95").as_double(),
                   stats.latency_p95_ms);

  const std::string exposition = service.render_metrics_exposition();
  EXPECT_NE(exposition.find("scl_serve_requests_total 3"),
            std::string::npos);
  EXPECT_NE(exposition.find("scl_serve_synthesized_total 1"),
            std::string::npos);
  EXPECT_NE(exposition.find("scl_serve_store_hits 2"), std::string::npos);
  EXPECT_NE(exposition.find("scl_serve_store_misses 1"),
            std::string::npos);
  EXPECT_NE(exposition.find("scl_serve_latency_ms_count 3"),
            std::string::npos);
}

TEST_F(ServiceTest, TwoServicesKeepIsolatedRegistries) {
  SynthesisService first(options_with_store());
  ServiceOptions storeless;
  SynthesisService second(storeless);
  JobRequest request;
  request.program = small_program();
  ASSERT_TRUE(first.wait(first.submit(request)).ok);
  EXPECT_EQ(first.stats().requests, 1);
  EXPECT_EQ(second.stats().requests, 0)
      << "per-instance registries must not share counters";
}

TEST_F(ServiceTest, ArtifactsAreByteIdenticalWithObservabilityEnabled) {
  // The determinism contract: observability is observation-only, so
  // flipping the global switch cannot change a single artifact byte.
  const bool was_enabled = support::obs::enabled();
  auto run_into = [&](const std::string& dir, bool observe) {
    support::obs::set_enabled(observe);
    ServiceOptions options;
    options.store_dir = (root_ / dir).string();
    SynthesisService service(options);
    JobRequest request;
    request.program = small_program();
    ASSERT_TRUE(service.wait(service.submit(request)).ok);
  };
  run_into("store-plain", false);
  run_into("store-observed", true);
  support::obs::set_enabled(was_enabled);
  const auto plain = slurp_dir(root_ / "store-plain");
  const auto observed = slurp_dir(root_ / "store-observed");
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, observed)
      << "observability must not perturb artifact bytes";
}

TEST_F(ServiceTest, SubmitWithoutProgramThrows) {
  SynthesisService service(options_with_store());
  EXPECT_THROW(service.submit(JobRequest{}), Error);
}

TEST_F(ServiceTest, StorelessServiceStillSynthesizes) {
  ServiceOptions options;  // no store_dir
  SynthesisService service(options);
  JobRequest request;
  request.program = small_program();
  const JobResult first = service.wait(service.submit(request));
  const JobResult second = service.wait(service.submit(request));
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(second.from_cache);
  EXPECT_EQ(service.stats().synthesized, 2);
  EXPECT_EQ(service.store(), nullptr);
}

TEST(RequestKeyTest, SensitiveToProgramDeviceAndOptions) {
  const auto program = small_program();
  const std::string text = stencil::program_to_text(*program);
  core::FrameworkOptions options;

  const std::string base = request_key(text, options);
  EXPECT_EQ(base.size(), 32u);
  EXPECT_EQ(request_key(text, options), base) << "stable across calls";

  // A different program changes the key.
  const auto other = small_program("HotSpot-2D");
  EXPECT_NE(request_key(stencil::program_to_text(*other), options), base);

  // A result-affecting option changes the key.
  core::FrameworkOptions simulate = options;
  simulate.simulate = !simulate.simulate;
  EXPECT_NE(request_key(text, simulate), base);

  // The ignored DSE thread-count field must NOT change the key.
  core::FrameworkOptions threads = options;
  threads.optimizer.threads = 7;
  EXPECT_EQ(request_key(text, threads), base);
}

}  // namespace
}  // namespace scl::serve
