#include "core/eval_cache.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/optimizer.hpp"
#include "stencil/kernels.hpp"

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
