#include "core/eval_cache.hpp"

#include "support/observability/observability.hpp"

namespace scl::core {

namespace {

support::obs::Counter& cache_hits_counter() {
  static auto& counter = support::obs::metrics().counter(
      "scl_dse_cache_hits_total", "eval-cache lookups served memoized");
  return counter;
}

support::obs::Counter& cache_misses_counter() {
  static auto& counter = support::obs::metrics().counter(
      "scl_dse_cache_misses_total", "eval-cache lookups that computed");
  return counter;
}

}  // namespace

bool EvalCache::lookup(const sim::DesignKey& key, CachedEvaluation* out) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    *out = it->second;
    ++hits_;
    if (support::obs::enabled()) cache_hits_counter().increment();
    return true;
  }
  ++misses_;
  if (support::obs::enabled()) cache_misses_counter().increment();
  return false;
}

bool EvalCache::insert(const sim::DesignKey& key,
                       const CachedEvaluation& value) {
  return map_.emplace(key, value).second;
}

double EvalCache::hit_rate() const {
  const double h = static_cast<double>(hits_);
  const double m = static_cast<double>(misses_);
  return h + m > 0.0 ? h / (h + m) : 0.0;
}

void EvalCache::clear() {
  map_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace scl::core
