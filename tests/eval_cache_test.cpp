#include "core/eval_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "core/optimizer.hpp"
#include "stencil/kernels.hpp"
#include "support/thread_pool.hpp"

namespace scl::core {
namespace {

using scl::sim::DesignConfig;
using scl::sim::DesignKey;
using scl::sim::DesignKind;

DesignConfig sample_config(std::int64_t h) {
  DesignConfig c;
  c.kind = DesignKind::kBaseline;
  c.fused_iterations = h;
  c.parallelism = {2, 2, 1};
  c.tile_size = {64, 64, 1};
  return c;
}

CachedEvaluation fake_eval(double cycles) {
  CachedEvaluation eval;
  eval.prediction.total_cycles = cycles;
  eval.resources.total = fpga::ResourceVector{1, 2, 3, 4};
  return eval;
}

TEST(EvalCacheTest, MissThenHitAccounting) {
  EvalCache cache;
  const DesignKey key = sample_config(4).key();
  CachedEvaluation out;
  EXPECT_FALSE(cache.lookup(key, &out));
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  EXPECT_TRUE(cache.insert(key, fake_eval(123.0)));
  EXPECT_TRUE(cache.lookup(key, &out));
  EXPECT_EQ(out.prediction.total_cycles, 123.0);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.size(), 1);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(EvalCacheTest, FindOrComputeComputesOnce) {
  EvalCache cache;
  int computes = 0;
  const DesignKey key = sample_config(8).key();
  auto compute = [&] {
    ++computes;
    return fake_eval(7.0);
  };
  EXPECT_EQ(cache.find_or_compute(key, compute).prediction.total_cycles, 7.0);
  EXPECT_EQ(cache.find_or_compute(key, compute).prediction.total_cycles, 7.0);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.hits(), 1);    // second call served from cache
  EXPECT_EQ(cache.misses(), 1);  // only the first lookup missed
}

TEST(EvalCacheTest, InsertIsFirstWriterWins) {
  EvalCache cache;
  const DesignKey key = sample_config(2).key();
  EXPECT_TRUE(cache.insert(key, fake_eval(1.0)));
  EXPECT_FALSE(cache.insert(key, fake_eval(2.0)));
  CachedEvaluation out;
  ASSERT_TRUE(cache.lookup(key, &out));
  EXPECT_EQ(out.prediction.total_cycles, 1.0);
}

TEST(EvalCacheTest, DistinctConfigsGetDistinctKeys) {
  // Every axis of the design space must feed the key: sweep each field
  // and assert no two generated configs collide.
  std::vector<DesignConfig> configs;
  for (const std::int64_t h : {1, 2, 4}) {
    for (const int k : {1, 2, 4}) {
      for (const std::int64_t w : {32, 64}) {
        for (const int unroll : {1, 2}) {
          for (const std::int64_t shrink : {0, 1}) {
            DesignConfig c;
            c.kind = shrink > 0 ? DesignKind::kHeterogeneous
                                : DesignKind::kBaseline;
            c.fused_iterations = h;
            c.parallelism = {k, 4, 1};
            c.tile_size = {w, 32, 1};
            c.edge_shrink = {0, shrink, 0};
            c.unroll = unroll;
            configs.push_back(c);
          }
        }
      }
    }
  }
  // Both kinds of an otherwise identical config must also differ.
  DesignConfig het = configs.front();
  het.kind = DesignKind::kHeterogeneous;
  configs.push_back(het);

  std::set<DesignKey> keys;
  for (const DesignConfig& c : configs) keys.insert(c.key());
  EXPECT_EQ(keys.size(), configs.size());
}

TEST(EvalCacheTest, HashMatchesKeyEquality) {
  const DesignConfig a = sample_config(4);
  DesignConfig b = sample_config(4);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.key(), b.key());
  b.unroll = 2;
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.hash(), b.hash());
}

TEST(EvalCacheTest, ClearResetsContentsAndCounters) {
  EvalCache cache;
  const DesignKey key = sample_config(16).key();
  cache.insert(key, fake_eval(5.0));
  CachedEvaluation out;
  EXPECT_TRUE(cache.lookup(key, &out));
  cache.clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_FALSE(cache.lookup(key, &out));
}

TEST(EvalCacheTest, ConcurrentFindOrComputeConverges) {
  EvalCache cache;
  ThreadPool pool(8);
  const int n = 512;
  std::vector<double> results(static_cast<std::size_t>(n));
  pool.parallel_for(n, [&](std::int64_t i) {
    // 16 distinct keys, hammered from 8 threads.
    const DesignKey key = sample_config(1 + (i % 16)).key();
    results[static_cast<std::size_t>(i)] =
        cache
            .find_or_compute(key,
                             [&] { return fake_eval(100.0 + (i % 16)); })
            .prediction.total_cycles;
  });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], 100.0 + (i % 16));
  }
  EXPECT_EQ(cache.size(), 16);
  EXPECT_EQ(cache.hits() + cache.misses(), n);
}

TEST(EvalCacheTest, ConcurrentInsertersDedupeExactly) {
  // 8 threads hammer insert() on 16 shared keys: size() must stay exact
  // — one winner per key. TSan runs this in CI.
  EvalCache cache;
  ThreadPool pool(8);
  std::atomic<int> winners{0};
  pool.parallel_for(512, [&](std::int64_t i) {
    const DesignKey key = sample_config(1 + (i % 16)).key();
    if (cache.insert(key, fake_eval(100.0 + (i % 16)))) {
      winners.fetch_add(1);
    }
  });
  EXPECT_EQ(cache.size(), 16);
  EXPECT_EQ(winners.load(), 16);
  for (int k = 0; k < 16; ++k) {
    CachedEvaluation out;
    ASSERT_TRUE(cache.lookup(sample_config(1 + k).key(), &out));
    EXPECT_EQ(out.prediction.total_cycles, 100.0 + k);
  }
}

TEST(EvalCacheTest, ConcurrentReadersSeeConsistentValues) {
  // Readers race writers on a warm and a cold half of the key set; every
  // observed hit must carry the full, untorn value. TSan runs this in
  // CI.
  EvalCache cache;
  ThreadPool pool(8);
  for (int k = 0; k < 8; ++k) {
    cache.insert(sample_config(1 + k).key(), fake_eval(1000.0 + k));
  }
  pool.parallel_for(2048, [&](std::int64_t i) {
    const int k = static_cast<int>(i % 16);
    const DesignKey key = sample_config(1 + k).key();
    CachedEvaluation out;
    if (cache.lookup(key, &out)) {
      EXPECT_EQ(out.prediction.total_cycles, 1000.0 + k);
      EXPECT_EQ(out.resources.total.lut, 2);
    } else {
      cache.insert(key, fake_eval(1000.0 + k));
    }
  });
  EXPECT_EQ(cache.size(), 16);
}

TEST(EvalCacheTest, OptimizerSearchesShareTheCache) {
  // The Pareto sweep walks the full feasible set; a following
  // optimize_baseline() — pruned or exhaustive — revisits a subset of
  // those configs and must be served mostly from cache.
  const auto p = scl::stencil::make_jacobi2d(512, 512, 64);
  const Optimizer opt(p, OptimizerOptions{});
  (void)opt.pareto_frontier(DesignKind::kBaseline);
  const DseStats after_pareto = opt.dse_stats();
  EXPECT_GT(after_pareto.candidates_evaluated, 0);

  (void)opt.optimize_baseline();
  const DseStats after_baseline = opt.dse_stats();
  const std::int64_t walked =
      after_baseline.candidates_evaluated - after_pareto.candidates_evaluated;
  const std::int64_t hits =
      after_baseline.cache_hits - after_pareto.cache_hits;
  EXPECT_GT(walked, 0);
  // Not 100%: the sweep's chain early exit never priced the over-budget
  // fusion tails, and a pruned search may still bound-keep a few of them.
  EXPECT_GT(static_cast<double>(hits), 0.5 * static_cast<double>(walked));
}

}  // namespace
}  // namespace scl::core
