#include "serve/service.hpp"

#include "stencil/parser.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace scl::serve {

std::string ServiceStats::to_string() const {
  return str_cat(
      "service: ", requests, " request(s), ", store_hits, " store hit(s) (",
      store_memory_hits, " memory, ", store_disk_hits, " disk), ",
      store_misses, " miss(es), ", coalesced, " coalesced, ", synthesized,
      " synthesized, ", failures, " failure(s)\n", "store: ", store_entries,
      " artifact(s), ", format_thousands(store_bytes), " bytes, ", evictions,
      " eviction(s), ", store_demotions, " demotion(s), ",
      corrupt_recovered, " corrupt artifact(s) recovered\n", "latency: p50 ",
      format_fixed(latency_p50_ms, 2), " ms, p95 ",
      format_fixed(latency_p95_ms, 2), " ms\n");
}

SynthesisService::SynthesisService(ServiceOptions options)
    : options_(std::move(options)) {
  if (!options_.store_dir.empty()) {
    store_ = std::make_unique<TieredArtifactStore>(
        TieredStoreOptions{options_.store_dir, options_.store_capacity_bytes,
                           options_.memory_cache_bytes});
    if (options_.warm_memory_cache) store_->warm_memory_tier();
  }
  scheduler_ = std::make_unique<
      Scheduler<std::shared_ptr<const SynthesisArtifact>>>(
      options_.threads);
  requests_ = &metrics_.counter("scl_serve_requests_total",
                                "jobs accepted by submit()");
  synthesized_ = &metrics_.counter("scl_serve_synthesized_total",
                                   "cold Framework::synthesize runs");
  failures_ = &metrics_.counter("scl_serve_failures_total",
                                "jobs that completed with an error");
  latency_ms_ = &metrics_.histogram(
      "scl_serve_latency_ms", support::obs::default_latency_ms_buckets(),
      "submit-to-completion turnaround");
}

SynthesisService::~SynthesisService() = default;

SynthesisService::PendingJob SynthesisService::submit(
    const JobRequest& request) {
  if (request.program == nullptr) {
    throw Error("SynthesisService: request carries no program");
  }
  PendingJob job;
  job.name =
      request.name.empty() ? request.program->name() : request.name;
  // Canonicalize for content addressing. Programs built from custom
  // lambdas have no textual form — they stay uncacheable (empty key:
  // store bypass, no coalescing) but synthesize normally.
  try {
    job.key = request_key(stencil::program_to_text(*request.program),
                          options_.framework);
  } catch (const Error&) {
    job.key.clear();
  }
  requests_->increment();
  job.submitted = std::chrono::steady_clock::now();
  const std::shared_ptr<const stencil::StencilProgram> program =
      request.program;
  const std::string key = job.key;
  auto submission = scheduler_->submit(
      key, [this, key, program] { return perform(key, program); },
      request.priority, request.timeout);
  job.coalesced = submission.coalesced;
  job.future = std::move(submission.future);
  return job;
}

JobResult SynthesisService::wait(const PendingJob& job) {
  JobResult result;
  result.name = job.name;
  result.key = job.key;
  result.coalesced = job.coalesced;
  try {
    result.artifact = job.future.get();
    result.ok = true;
    result.from_cache = result.artifact->served_from_store;
    result.from_memory = result.artifact->served_from_memory;
  } catch (const core::VerificationError& e) {
    result.ok = false;
    result.error = e.what();
    result.diagnostics = e.diagnostics();
    failures_->increment();
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
    failures_->increment();
  }
  const auto elapsed = std::chrono::steady_clock::now() - job.submitted;
  result.latency_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  latency_ms_->observe(result.latency_ms);
  return result;
}

std::vector<JobResult> SynthesisService::run_batch(
    const std::vector<JobRequest>& requests) {
  std::vector<PendingJob> pending;
  pending.reserve(requests.size());
  for (const JobRequest& request : requests) {
    pending.push_back(submit(request));
  }
  std::vector<JobResult> results;
  results.reserve(pending.size());
  for (const PendingJob& job : pending) {
    results.push_back(wait(job));
  }
  return results;
}

void SynthesisService::drain() { scheduler_->drain(); }

std::size_t SynthesisService::shed_expired() {
  return scheduler_->shed_expired();
}

std::int64_t SynthesisService::queue_depth() const {
  return scheduler_->depth();
}

std::shared_ptr<const SynthesisArtifact> SynthesisService::perform(
    const std::string& key,
    const std::shared_ptr<const stencil::StencilProgram>& program) {
  if (store_ != nullptr && !key.empty()) {
    bool from_memory = false;
    if (std::optional<std::string> payload =
            store_->load(key, &from_memory)) {
      try {
        auto artifact = std::make_shared<SynthesisArtifact>(
            parse_artifact(*payload));
        if (artifact->key == key) {
          artifact->served_from_store = true;
          artifact->served_from_memory = from_memory;
          return artifact;
        }
        SCL_INFO() << "artifact " << key
                   << ": embedded key mismatch, recomputing";
      } catch (const Error& e) {
        // Undecodable payload despite an intact checksum (e.g. written
        // by a future schema): recompute and overwrite below.
        SCL_INFO() << "artifact " << key << ": " << e.what()
                   << ", recomputing";
      }
    }
  }
  synthesized_->increment();
  const core::Framework framework(*program, options_.framework);
  const core::SynthesisReport report = framework.synthesize();
  auto artifact =
      std::make_shared<SynthesisArtifact>(make_artifact(key, report));
  if (store_ != nullptr && !key.empty()) {
    store_->store(key, serialize_artifact(*artifact));
  }
  return artifact;
}

ServiceStats SynthesisService::stats() const {
  ServiceStats stats;
  const SchedulerStats sched = scheduler_->stats();
  stats.requests = requests_->value();
  stats.synthesized = synthesized_->value();
  stats.failures = failures_->value();
  stats.coalesced = sched.coalesced;
  if (store_ != nullptr) {
    const TieredStoreStats store = store_->stats();
    stats.store_hits = store.hits();
    stats.store_memory_hits = store.memory_hits;
    stats.store_disk_hits = store.disk_hits;
    stats.store_demotions = store.demotions;
    stats.store_misses = store.misses;
    stats.evictions = store.evictions;
    stats.corrupt_recovered = store.corrupt_dropped;
    stats.store_bytes = store_->total_bytes();
    stats.store_entries =
        static_cast<std::int64_t>(store_->entry_count());
  }
  const auto latency = latency_ms_->snapshot();
  stats.latency_p50_ms = latency.percentile(0.50);
  stats.latency_p95_ms = latency.percentile(0.95);
  return stats;
}

std::string SynthesisService::render_metrics_exposition() const {
  // The store and scheduler keep their own ground-truth counters (they
  // also serve callers that never touch this facade); mirror them into
  // gauges at scrape time so one exposition covers the whole service.
  const SchedulerStats sched = scheduler_->stats();
  auto mirror = [&](std::string_view name, std::string_view help,
                    double value) {
    metrics_.gauge(name, help).set(value);
  };
  mirror("scl_serve_coalesced", "requests served by an in-flight twin",
         static_cast<double>(sched.coalesced));
  mirror("scl_serve_queue_depth_max", "high-water mark of the request queue",
         static_cast<double>(sched.max_queue_depth));
  mirror("scl_serve_timed_out", "requests expired while queued",
         static_cast<double>(sched.timed_out));
  mirror("scl_serve_scheduler_shed", "queued requests shed past deadline",
         static_cast<double>(sched.shed));
  if (store_ != nullptr) {
    const TieredStoreStats store = store_->stats();
    mirror("scl_serve_store_hits", "artifact store lookup hits (all tiers)",
           static_cast<double>(store.hits()));
    mirror("scl_serve_store_memory_hits", "hot in-memory tier hits",
           static_cast<double>(store.memory_hits));
    mirror("scl_serve_store_disk_hits", "disk hits",
           static_cast<double>(store.disk_hits));
    mirror("scl_serve_store_demotions", "memory-tier LRU evictions",
           static_cast<double>(store.demotions));
    mirror("scl_serve_store_misses", "artifact store lookup misses",
           static_cast<double>(store.misses));
    mirror("scl_serve_store_evictions", "artifacts evicted by the LRU cap",
           static_cast<double>(store.evictions));
    mirror("scl_serve_store_bytes", "bytes resident in the artifact store",
           static_cast<double>(store_->total_bytes()));
    mirror("scl_serve_store_entries", "artifacts resident in the store",
           static_cast<double>(store_->entry_count()));
  }
  return metrics_.render_exposition();
}

std::string SynthesisService::render_stats_json() const {
  const ServiceStats s = stats();
  support::JsonWriter json(support::JsonStyle::kSpaced);
  json.begin_object();
  json.member("requests", s.requests);
  json.member("store_hits", s.store_hits);
  json.member("store_memory_hits", s.store_memory_hits);
  json.member("store_disk_hits", s.store_disk_hits);
  json.member("store_demotions", s.store_demotions);
  json.member("store_misses", s.store_misses);
  json.member("coalesced", s.coalesced);
  json.member("synthesized", s.synthesized);
  json.member("failures", s.failures);
  json.member("evictions", s.evictions);
  json.member("corrupt_recovered", s.corrupt_recovered);
  json.member("store_bytes", s.store_bytes);
  json.member("store_entries", s.store_entries);
  json.key("latency_ms").begin_object();
  json.key("p50").value_fixed(s.latency_p50_ms, 3);
  json.key("p95").value_fixed(s.latency_p95_ms, 3);
  json.end_object();
  json.end_object();
  return json.take();
}

}  // namespace scl::serve
