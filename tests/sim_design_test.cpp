#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/design.hpp"
#include "sim/region.hpp"
#include "sim/timeline.hpp"
#include "stencil/kernels.hpp"

namespace scl::sim {
namespace {

using scl::stencil::make_jacobi1d;
using scl::stencil::make_jacobi2d;

DesignConfig hetero2d(std::int64_t h, int k, std::int64_t w,
                      std::int64_t shrink = 0) {
  DesignConfig c;
  c.kind = DesignKind::kHeterogeneous;
  c.fused_iterations = h;
  c.parallelism = {k, k, 1};
  c.tile_size = {w, w, 1};
  c.edge_shrink = {shrink, shrink, 0};
  return c;
}

TEST(DesignConfigTest, TotalKernels) {
  DesignConfig c;
  c.parallelism = {4, 2, 2};
  EXPECT_EQ(c.total_kernels(), 16);
}

TEST(DesignConfigTest, UnbalancedTileExtents) {
  const DesignConfig c = hetero2d(4, 4, 32);
  EXPECT_EQ(c.tile_extents(0),
            (std::vector<std::int64_t>{32, 32, 32, 32}));
  EXPECT_EQ(c.region_extent(0), 128);
}

TEST(DesignConfigTest, BalancedTileExtentsConserveRegion) {
  const DesignConfig c = hetero2d(4, 4, 32, 8);
  EXPECT_EQ(c.tile_extents(0),
            (std::vector<std::int64_t>{24, 40, 40, 24}));
  EXPECT_EQ(c.region_extent(0), 128);
}

TEST(DesignConfigTest, BalancedRemainderGoesToFirstInteriorTiles) {
  DesignConfig c = hetero2d(4, 5, 32, 8);
  // released = 16, interior = 3 -> 6,5,5.
  EXPECT_EQ(c.tile_extents(0),
            (std::vector<std::int64_t>{24, 38, 37, 37, 24}));
  EXPECT_EQ(c.region_extent(0), 160);
}

TEST(DesignConfigTest, BalanceFactor) {
  const DesignConfig c = hetero2d(4, 4, 32, 8);
  EXPECT_DOUBLE_EQ(c.balance_factor(0, 0), 0.75);
  EXPECT_DOUBLE_EQ(c.balance_factor(0, 1), 1.25);
}

TEST(DesignConfigTest, ValidateAcceptsGoodConfig) {
  const auto p = make_jacobi2d(64, 64, 16);
  EXPECT_NO_THROW(hetero2d(4, 4, 16, 2).validate(p));
}

TEST(DesignConfigTest, ValidateRejectsBadConfigs) {
  const auto p = make_jacobi2d(64, 64, 16);
  EXPECT_THROW(hetero2d(0, 4, 16).validate(p), Error);       // h < 1
  EXPECT_THROW(hetero2d(17, 4, 16).validate(p), Error);      // h > H
  EXPECT_THROW(hetero2d(4, 0, 16).validate(p), Error);       // K < 1
  EXPECT_THROW(hetero2d(4, 4, 0).validate(p), Error);        // w < 1
  EXPECT_THROW(hetero2d(4, 4, 16, 16).validate(p), Error);   // shrink >= w
  EXPECT_THROW(hetero2d(4, 2, 16, 2).validate(p), Error);    // K_d <= 2
  DesignConfig bad = hetero2d(4, 4, 16, 2);
  bad.kind = DesignKind::kBaseline;
  EXPECT_THROW(bad.validate(p), Error);  // baseline cannot balance
  DesignConfig unroll0 = hetero2d(4, 4, 16);
  unroll0.unroll = 0;
  EXPECT_THROW(unroll0.validate(p), Error);
}

TEST(DesignConfigTest, ValidateRejectsActiveInactiveDims) {
  const auto p1 = make_jacobi1d(64, 8);
  DesignConfig c;
  c.parallelism = {4, 2, 1};  // dim 1 inactive for a 1-D program
  c.tile_size = {16, 1, 1};
  EXPECT_THROW(c.validate(p1), Error);
}

TEST(DesignConfigTest, SummaryIsReadable) {
  const DesignConfig c = hetero2d(8, 4, 32);
  const std::string s = c.summary(2);
  EXPECT_NE(s.find("Heterogeneous"), std::string::npos);
  EXPECT_NE(s.find("h=8"), std::string::npos);
  EXPECT_NE(s.find("32x32"), std::string::npos);
  EXPECT_NE(s.find("4x4"), std::string::npos);
}

// --- DesignKey ---------------------------------------------------------------

TEST(DesignKeyTest, DistinctConfigsGetDistinctKeys) {
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

TEST(DesignKeyTest, KeyEqualityFollowsFields) {
  DesignConfig a;
  a.fused_iterations = 4;
  a.parallelism = {2, 2, 1};
  a.tile_size = {64, 64, 1};
  DesignConfig b = a;
  EXPECT_EQ(a.key(), b.key());
  b.unroll = 2;
  EXPECT_NE(a.key(), b.key());
}

// --- RegionGrid ------------------------------------------------------------

TEST(RegionGridTest, EvenDecomposition) {
  const auto p = make_jacobi2d(128, 128, 16);
  DesignConfig c = hetero2d(4, 2, 32);  // region 64x64
  const RegionGrid rg(p, c);
  EXPECT_EQ(rg.regions_per_pass(), 4);
  EXPECT_EQ(rg.passes(), 4);
  EXPECT_EQ(rg.last_pass_iterations(), 4);
  EXPECT_EQ(rg.total_region_executions(), 16);
}

TEST(RegionGridTest, RemainderPass) {
  const auto p = make_jacobi2d(64, 64, 10);
  DesignConfig c = hetero2d(4, 2, 32);  // region covers the grid
  const RegionGrid rg(p, c);
  EXPECT_EQ(rg.passes(), 3);
  EXPECT_EQ(rg.last_pass_iterations(), 2);
}

TEST(RegionGridTest, TilesPartitionEachRegion) {
  const auto p = make_jacobi2d(100, 100, 8);  // 100 = 64 + 36 remainder
  DesignConfig c = hetero2d(2, 2, 32);
  const RegionGrid rg(p, c);
  EXPECT_EQ(rg.regions_per_pass(), 4);
  std::int64_t covered = 0;
  for (const RegionPlan& plan : rg.all_regions()) {
    std::int64_t tiles_volume = 0;
    for (const TilePlacement& t : plan.tiles) {
      tiles_volume += t.box.volume();
      EXPECT_TRUE(plan.box.contains(t.box)) << t.box.to_string();
    }
    EXPECT_EQ(tiles_volume, plan.box.volume());
    covered += plan.box.volume();
  }
  EXPECT_EQ(covered, p.grid_box().volume());
}

TEST(RegionGridTest, DistinctShapeCountsSumToRegions) {
  const auto p = make_jacobi2d(100, 132, 8);
  DesignConfig c = hetero2d(2, 2, 16);  // region 32: 4 regions minus rem
  const RegionGrid rg(p, c);
  std::int64_t total = 0;
  for (const auto& shape : rg.distinct_shapes()) {
    total += shape.count;
  }
  EXPECT_EQ(total, rg.regions_per_pass());
}

TEST(RegionGridTest, ExteriorFlagsMatchRegionBoundary) {
  const auto p = make_jacobi2d(64, 64, 8);
  DesignConfig c = hetero2d(2, 2, 16);
  const RegionGrid rg(p, c);
  const RegionPlan plan = rg.all_regions().front();
  for (const TilePlacement& t : plan.tiles) {
    for (int d = 0; d < 2; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      EXPECT_EQ(t.exterior[ds][0], t.box.lo[ds] == plan.box.lo[ds]);
      EXPECT_EQ(t.exterior[ds][1], t.box.hi[ds] == plan.box.hi[ds]);
    }
  }
}

TEST(RegionGridTest, ClippedNeighborFaceBecomesExterior) {
  // 40 = 32 + 8: the second region column has extent 8, so with K=2 tiles
  // of nominal width 16 the second tile is empty and the first tile's high
  // face must be exterior.
  const auto p = make_jacobi2d(40, 40, 8);
  DesignConfig c = hetero2d(2, 2, 16);
  const RegionGrid rg(p, c);
  bool found_empty = false;
  for (const RegionPlan& plan : rg.all_regions()) {
    for (const TilePlacement& t : plan.tiles) {
      if (t.box.empty()) found_empty = true;
    }
    for (const TilePlacement& t : plan.tiles) {
      if (t.box.empty()) continue;
      for (int d = 0; d < 2; ++d) {
        const auto ds = static_cast<std::size_t>(d);
        if (t.box.hi[ds] == plan.box.hi[ds]) {
          EXPECT_TRUE(t.exterior[ds][1]);
        }
      }
    }
  }
  EXPECT_TRUE(found_empty);
}

TEST(RegionGridTest, GridEdgeFlags) {
  const auto p = make_jacobi2d(64, 64, 8);
  DesignConfig c = hetero2d(2, 2, 16);  // 2x2 regions
  const RegionGrid rg(p, c);
  const auto regions = rg.all_regions();
  ASSERT_EQ(regions.size(), 4u);
  EXPECT_TRUE(regions[0].at_grid_edge[0][0]);
  EXPECT_FALSE(regions[0].at_grid_edge[0][1]);
  EXPECT_TRUE(regions[3].at_grid_edge[0][1]);
  EXPECT_TRUE(regions[3].at_grid_edge[1][1]);
}

// --- PhaseBreakdown ----------------------------------------------------------

TEST(PhaseBreakdownTest, TotalAndAccumulate) {
  PhaseBreakdown a;
  a.launch = 1;
  a.mem_read = 2;
  a.compute_own = 3;
  a.pipe_stall = 4;
  EXPECT_EQ(a.total(), 10);
  PhaseBreakdown b = a;
  b += a;
  EXPECT_EQ(b.total(), 20);
  EXPECT_EQ((a * 3).total(), 30);
}

TEST(PhaseBreakdownTest, ToStringHasPercentages) {
  PhaseBreakdown a;
  a.compute_own = 75;
  a.mem_read = 25;
  const std::string s = a.to_string();
  EXPECT_NE(s.find("75.0%"), std::string::npos);
  EXPECT_NE(s.find("25.0%"), std::string::npos);
}

}  // namespace
}  // namespace scl::sim
