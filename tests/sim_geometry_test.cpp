// Unit tests for the tile/strip geometry helpers the pipe protocol rests
// on: extended (cone) boxes, halo strip boxes, and FIFO sizing.
#include <gtest/gtest.h>

#include "sim/tile_task.hpp"
#include "stencil/kernels.hpp"
#include "stencil/parser.hpp"

namespace scl::sim {
namespace {

using scl::stencil::Box;
using scl::stencil::Face;
using scl::stencil::Index;

TilePlacement place(std::array<std::int64_t, 3> lo,
                    std::array<std::int64_t, 3> hi,
                    std::array<std::array<bool, 2>, 3> exterior) {
  TilePlacement t;
  t.box.lo = {lo[0], lo[1], lo[2]};
  t.box.hi = {hi[0], hi[1], hi[2]};
  t.exterior = exterior;
  return t;
}

TEST(ExtendedBoxTest, GrowsOnlyExteriorFaces) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 16);
  // Tile [16,32)x[16,32): exterior on the low side of dim 0 only.
  const TilePlacement t = place({16, 16, 0}, {32, 32, 1},
                                {{{true, false}, {false, false}, {false, false}}});
  const Box e1 = extended_tile_box(p, t, /*h=*/8, /*i=*/1);
  EXPECT_EQ(e1.lo[0], 16 - 7);  // radius 1 * (8-1)
  EXPECT_EQ(e1.hi[0], 32);
  EXPECT_EQ(e1.lo[1], 16);
  EXPECT_EQ(e1.hi[1], 32);
  // Last iteration: no margin left.
  EXPECT_EQ(extended_tile_box(p, t, 8, 8), t.box);
}

TEST(ExtendedBoxTest, ClipsAtGrid) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 16);
  const TilePlacement t = place({0, 0, 0}, {16, 16, 1},
                                {{{true, true}, {true, true}, {false, false}}});
  const Box e = extended_tile_box(p, t, 8, 1);
  EXPECT_EQ(e.lo[0], 0);       // clipped at the grid border
  EXPECT_EQ(e.hi[0], 16 + 7);  // free to grow inward
}

TEST(HaloStripTest, SymmetricBetweenSenderAndReceiver) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 16);
  const TilePlacement a = place({0, 0, 0}, {16, 32, 1},
                                {{{false, false}, {true, true}, {false, false}}});
  const TilePlacement b = place({16, 0, 0}, {32, 32, 1},
                                {{{false, false}, {true, true}, {false, false}}});
  // a receives across its high-dim0 face. Both ends of the pipe b -> a
  // read its strips from one schedule: one per iteration (Jacobi has one
  // stage) except the last, whose strip nothing reads.
  const auto strips =
      pipe_strip_schedule(p, extended_tile_boxes(p, a, 8),
                          extended_tile_boxes(p, b, 8), Face{0, +1}, 8);
  ASSERT_EQ(strips.size(), 7u);
  for (std::int64_t i = 1; i <= 7; ++i) {
    const StripSpec& strip = strips[static_cast<std::size_t>(i - 1)];
    EXPECT_EQ(strip.key, (StripKey{i, 0}));
    EXPECT_EQ(strip.field, 0);
    EXPECT_EQ(strip.box, halo_strip_box(p, a, b, Face{0, +1}, 0, 8, i));
  }
  // The strip sits just above a's edge, one cell wide (radius 1).
  EXPECT_EQ(strips[2].box.lo[0], 16);
  EXPECT_EQ(strips[2].box.hi[0], 17);
  // Tangentially it follows the extended boxes (dim1 exterior, margin 5).
  EXPECT_EQ(strips[2].box.lo[1], 0);
  EXPECT_EQ(strips[2].box.hi[1], 32 + 5);
}

TEST(HaloStripTest, ZeroWidthFieldsHaveNoStrip) {
  // HotSpot's power field is only read at offset 0: no strips, ever.
  const auto p = scl::stencil::make_hotspot2d(64, 64, 16);
  const TilePlacement a = place({0, 0, 0}, {16, 32, 1},
                                {{{false, false}, {true, true}, {false, false}}});
  const TilePlacement b = place({16, 0, 0}, {32, 32, 1},
                                {{{false, false}, {true, true}, {false, false}}});
  EXPECT_TRUE(halo_strip_box(p, a, b, Face{0, +1}, /*power*/ 1, 8, 1).empty());
  EXPECT_FALSE(halo_strip_box(p, a, b, Face{0, +1}, /*temp*/ 0, 8, 1).empty());
}

TEST(HaloStripTest, RadiusTwoStencilsGetWiderStrips) {
  const auto p = scl::stencil::parse_program(R"(
stencil "r2" dims 2 grid 64 64 iterations 8
field u init constant 1
stage s writes u: 0.2f * ($u(0,0) + $u(-2,0) + $u(2,0) + $u(0,-2) + $u(0,2))
)");
  const TilePlacement a = place({0, 0, 0}, {16, 32, 1},
                                {{{false, false}, {true, true}, {false, false}}});
  const TilePlacement b = place({16, 0, 0}, {32, 32, 1},
                                {{{false, false}, {true, true}, {false, false}}});
  const Box strip = halo_strip_box(p, a, b, Face{0, +1}, 0, 4, 4);
  EXPECT_EQ(strip.hi[0] - strip.lo[0], 2);  // radius-2 halo
}

TEST(FifoSizingTest, CoversBothDirectionsAndTwoIterations) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 16);
  const TilePlacement a = place({0, 0, 0}, {16, 32, 1},
                                {{{false, false}, {true, true}, {false, false}}});
  const TilePlacement b = place({16, 0, 0}, {32, 32, 1},
                                {{{false, false}, {true, true}, {false, false}}});
  const std::int64_t cap =
      max_face_strip_elements(p, a, b, Face{0, +1}, /*h=*/8);
  // Strip at i=1 spans the tangential extended range (32 + 7) x width 1;
  // capacity doubles it for the two iterations in flight.
  EXPECT_EQ(cap, 2 * (32 + 7));
}

TEST(FifoSizingTest, MultiFieldProgramsSumTheirStrips) {
  const auto fdtd = scl::stencil::make_fdtd2d(64, 64, 16);
  const auto jacobi = scl::stencil::make_jacobi2d(64, 64, 16);
  const TilePlacement a = place({0, 0, 0}, {16, 32, 1},
                                {{{false, false}, {true, true}, {false, false}}});
  const TilePlacement b = place({16, 0, 0}, {32, 32, 1},
                                {{{false, false}, {true, true}, {false, false}}});
  // FDTD moves three mutable fields across the face; Jacobi one.
  EXPECT_GT(max_face_strip_elements(fdtd, a, b, Face{0, +1}, 8),
            max_face_strip_elements(jacobi, a, b, Face{0, +1}, 8));
}

TEST(UndersizedFifoTest, SymmetricSendsSurviveViaOpportunisticDrain) {
  // Pipes far smaller than a boundary strip would deadlock a naive
  // send-then-receive protocol (both kernels blocked mid-send on each
  // other's full FIFO). The tile tasks drain their inboxes into pending
  // strip buffers whenever a send backpressures, so even depth-4 FIFOs
  // make progress — build the two-tile region manually and check it
  // completes.
  const auto p = scl::stencil::make_jacobi2d(64, 64, 16);
  const TilePlacement a = place({0, 0, 0}, {32, 64, 1},
                                {{{true, false}, {true, true}, {false, false}}});
  const TilePlacement b = place({32, 0, 0}, {64, 64, 1},
                                {{{false, true}, {true, true}, {false, false}}});
  const std::vector<Box> ext_a = extended_tile_boxes(p, a, 4);
  const std::vector<Box> ext_b = extended_tile_boxes(p, b, 4);
  // a sends across its high face into b's low halo, and back.
  PipeChannel ab{ocl::Pipe("ab", 4, 2),
                 pipe_strip_schedule(p, ext_b, ext_a, Face{0, -1}, 4)};
  PipeChannel ba{ocl::Pipe("ba", 4, 2),
                 pipe_strip_schedule(p, ext_a, ext_b, Face{0, +1}, 4)};
  ocl::GlobalMemory memory(fpga::virtex7_690t());

  auto make_params = [&](const TilePlacement& self,
                         const std::vector<Box>& extended, int side,
                         PipeChannel* out, PipeChannel* in) {
    TileTaskParams params;
    params.program = &p;
    params.mode = SimMode::kTimingOnly;
    params.kind = DesignKind::kHeterogeneous;
    params.tile = self;
    params.fused_iterations = 4;
    params.extended = extended;
    params.stage_cycles_per_element = {1.0};
    params.stage_depth = {0};
    params.memory = &memory;
    params.out_pipes[0][static_cast<std::size_t>(side)] = out;
    params.in_pipes[0][static_cast<std::size_t>(side)] = in;
    return params;
  };

  ocl::Runtime runtime;
  runtime.add_task(
      std::make_shared<TileTask>(make_params(a, ext_a, 1, &ab, &ba)));
  runtime.add_task(
      std::make_shared<TileTask>(make_params(b, ext_b, 0, &ba, &ab)));
  ASSERT_NO_THROW(runtime.run_all());
  EXPECT_GT(runtime.completion_cycles(), 0);
  // Both directions actually moved whole strips through the tiny FIFOs.
  EXPECT_GT(ab.pipe.total_written(), ab.pipe.capacity());
  EXPECT_GT(ba.pipe.total_written(), ba.pipe.capacity());
}

}  // namespace
}  // namespace scl::sim
