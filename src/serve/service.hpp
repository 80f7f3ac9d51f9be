// SynthesisService: the batched synthesis facade.
//
// Wires the full serving path for one stencil job:
//
//   canonicalize program  ->  content address (serve/serialize.hpp)
//     -> coalescing scheduler (serve/scheduler.hpp)
//       -> tiered store lookup (serve/tiered_store.hpp: memory LRU, then
//          the on-disk store)
//         -> hit:  parse artifact, respond warm (memory hits skip disk)
//         -> miss: Framework::synthesize + verify, persist, respond cold
//
// Programs without a canonical `.stencil` round-trip (hand-written
// lambdas) get an empty key: they bypass the store and never coalesce,
// but still flow through the scheduler like every other job.
//
// Each synthesis runs on the scheduler pump that picked it up; the
// service scales across concurrent *jobs*, which is the right shape for
// batch traffic.
//
// The service exports counters: store hits/misses, coalesced requests,
// evictions, synthesis failures, and request-turnaround p50/p95 — as a
// human-readable block, as JSON (render_stats_json) for dashboards, and
// as a Prometheus-style text exposition (render_metrics_exposition).
// Request/synthesis/failure counts and the latency distribution live on
// a per-instance obs::MetricsRegistry (always on — the global
// observability switch only gates the pipeline-wide registry), so two
// services in one process never share counters. All public methods are
// thread-safe.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "serve/scheduler.hpp"
#include "serve/serialize.hpp"
#include "serve/tiered_store.hpp"
#include "stencil/program.hpp"
#include "support/observability/metrics.hpp"

namespace scl::serve {

struct ServiceOptions {
  /// Artifact-store root; empty disables persistence (every job is a
  /// cold synthesis, coalescing still applies).
  std::string store_dir;
  std::int64_t store_capacity_bytes = kDefaultDiskCapacityBytes;
  /// Byte bound of the hot in-memory artifact tier; <= 0 disables it
  /// (every warm hit re-reads and re-validates its disk file).
  std::int64_t memory_cache_bytes = kDefaultMemoryCapacityBytes;
  /// Preload the memory tier from the most-recently-used disk artifacts
  /// at startup, so a restarted daemon answers its hot set from memory
  /// on the first request.
  bool warm_memory_cache = true;
  /// Concurrent synthesis workers; <= 0 resolves via SCL_THREADS /
  /// hardware concurrency.
  int threads = 0;
  /// Per-job synthesis configuration (device, DSE candidates, flags).
  core::FrameworkOptions framework;
};

struct JobRequest {
  std::string name;  ///< display name (defaults to the program's)
  std::shared_ptr<const stencil::StencilProgram> program;
  int priority = 0;  ///< higher dispatches first
  std::chrono::milliseconds timeout{0};  ///< queue-time bound; 0 = none
};

struct JobResult {
  std::string name;
  std::string key;  ///< empty for uncacheable programs
  bool ok = false;
  bool from_cache = false;   ///< served from the artifact store (any tier)
  bool from_memory = false;  ///< served from the hot in-memory tier
  bool coalesced = false;    ///< rode an identical in-flight request
  std::string error;        ///< set when !ok
  /// Structured verifier diagnostics when synthesis failed verification
  /// (core::VerificationError); empty for other failures and successes.
  std::vector<support::Diagnostic> diagnostics;
  std::shared_ptr<const SynthesisArtifact> artifact;  ///< set when ok
  double latency_ms = 0.0;  ///< submit-to-completion turnaround
};

struct ServiceStats {
  std::int64_t requests = 0;
  std::int64_t store_hits = 0;         ///< memory + disk tier hits
  std::int64_t store_memory_hits = 0;  ///< hot in-memory tier hits
  std::int64_t store_disk_hits = 0;    ///< disk hits
  std::int64_t store_demotions = 0;    ///< memory-tier LRU evictions
  std::int64_t store_misses = 0;
  std::int64_t coalesced = 0;
  std::int64_t synthesized = 0;  ///< cold Framework::synthesize runs
  std::int64_t failures = 0;
  std::int64_t evictions = 0;
  std::int64_t corrupt_recovered = 0;
  std::int64_t store_bytes = 0;
  std::int64_t store_entries = 0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;

  std::string to_string() const;
};

class SynthesisService {
 public:
  explicit SynthesisService(ServiceOptions options);
  ~SynthesisService();

  /// An accepted, in-flight job. Move-only value handle; pass to wait().
  struct PendingJob {
    std::string name;
    std::string key;
    bool coalesced = false;
    std::chrono::steady_clock::time_point submitted{};
    std::shared_future<std::shared_ptr<const SynthesisArtifact>> future;
  };

  /// Schedules one job. Throws scl::Error when the request carries no
  /// program or the service is shutting down.
  PendingJob submit(const JobRequest& request);

  /// Blocks until `job` finishes; failures surface as !result.ok.
  JobResult wait(const PendingJob& job);

  /// Submits every request, then waits in input order. The result vector
  /// lines up with `requests`.
  std::vector<JobResult> run_batch(const std::vector<JobRequest>& requests);

  /// Blocks until every accepted job completed.
  void drain();

  /// Load shedding passthrough: fails every *queued* job whose deadline
  /// already passed (their futures throw). Returns how many were shed.
  std::size_t shed_expired();

  /// Queued + running jobs right now (the daemon's backpressure signal).
  std::int64_t queue_depth() const;

  ServiceStats stats() const;
  std::string render_stats_json() const;

  /// Prometheus-style text exposition of this service's registry, with
  /// store/scheduler ground-truth stats mirrored into gauges at scrape
  /// time.
  std::string render_metrics_exposition() const;

  /// This instance's metric registry (always enabled).
  support::obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The backing tiered store; nullptr when persistence is disabled.
  const TieredArtifactStore* store() const { return store_.get(); }

  /// Scheduler ground truth (coalescing, queue, shed counts).
  SchedulerStats scheduler_stats() const { return scheduler_->stats(); }

 private:
  std::shared_ptr<const SynthesisArtifact> perform(
      const std::string& key,
      const std::shared_ptr<const stencil::StencilProgram>& program);

  ServiceOptions options_;
  std::unique_ptr<TieredArtifactStore> store_;
  std::unique_ptr<Scheduler<std::shared_ptr<const SynthesisArtifact>>>
      scheduler_;

  /// Mutable because scraping (a logically-const read) mirrors store/
  /// scheduler stats into gauges. Handles below point into the registry
  /// and share its lifetime.
  mutable support::obs::MetricsRegistry metrics_;
  support::obs::Counter* requests_ = nullptr;
  support::obs::Counter* synthesized_ = nullptr;
  support::obs::Counter* failures_ = nullptr;
  support::obs::Histogram* latency_ms_ = nullptr;
};

}  // namespace scl::serve
