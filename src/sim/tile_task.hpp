// TileTask: one synthesized stencil kernel executing one tile's workload
// for one region pass.
//
// The task walks a state machine (read burst -> h fused iterations of
// staged compute with pipe-based halo exchange -> write burst) under the
// cooperative ocl::Runtime. It runs in two modes:
//
//  * Functional — compute steps evaluate the stencil update on real field
//    buffers, strips carry real values, and the owned output is written to
//    the pass's global output field set. Used at small scale to prove the
//    tiling designs bit-exact against the ReferenceExecutor.
//  * TimingOnly — the identical state machine and geometry, but no data is
//    touched: compute charges cycles from cell counts and strips are
//    element counts. Used at paper-scale inputs. A timing-only step
//    allocates nothing: strip payloads exist only in functional mode, and
//    the task name and trace labels are built only for a trace sink or a
//    deadlock report.
//
// Geometry is computed once per pass, not per step. The executor hands
// every task its extended boxes (one per fused iteration), and every
// directed pipe is a PipeChannel that carries its strip schedule: the box
// of each strip it transports, in protocol order. The sender and the
// receiver both walk that one schedule, so the two ends agree on every
// strip box by construction.
//
// Latency hiding (paper §3.1). Within each stage the cells are split into
// the *independent* group (no halo data needed) and the *dependent* group
// (within the stage's read radius of a pipe-shared face). The kernel
// computes the independent group first, then applies exactly the neighbor
// strips the dependent group requires — strips that have been in flight
// since the neighbor's matching stage — then computes the dependent group
// and pushes its own boundary strips. Incoming strips are also drained
// from the FIFOs opportunistically whenever a send backpressures, but they
// are *applied* to the halo only at their protocol position, so a kernel
// racing ahead can never leak a too-new value into a neighbor's update.
//
// Compute-box calculus. The task tracks, per field, the box over which the
// field's *latest* version is valid inside the tile buffer. A stage's
// compute box starts from the field's updatable region, is clipped to the
// tile edge on faces shared with sibling tiles, and on region-exterior
// faces extends as far as every read field's validity allows — with a
// margin "pinned" once validity reaches the Dirichlet boundary region,
// whose cells never change. This yields the shrinking overlapped cone of
// the baseline design and the exterior-face-only cone of the heterogeneous
// design from a single implementation.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "ocl/memory.hpp"
#include "ocl/pipe.hpp"
#include "ocl/runtime.hpp"
#include "sim/design.hpp"
#include "sim/region.hpp"
#include "sim/timeline.hpp"
#include "sim/trace.hpp"
#include "stencil/grid.hpp"
#include "stencil/program.hpp"
#include "stencil/state.hpp"

namespace scl::sim {

enum class SimMode { kFunctional, kTimingOnly };

/// `placement`'s box grown by iter_radii * (h - i) on its region-exterior
/// faces and clipped to the grid: the cells that must be correct after
/// fused iteration `i` (of `h`) for the final owned output to be exact.
Box extended_tile_box(const scl::stencil::StencilProgram& program,
                      const TilePlacement& placement, std::int64_t h,
                      std::int64_t i);

/// The strip of field `f` that crosses `face` into `receiver`'s halo during
/// fused iteration `i`: the receiver-side halo of width
/// field_read_radii(f), clipped to the sender's extended box.
/// pipe_strip_schedule computes it once per pipe for both of the pipe's
/// ends, which is what keeps the header-free FIFO protocol
/// self-synchronizing.
Box halo_strip_box(const scl::stencil::StencilProgram& program,
                   const TilePlacement& receiver, const TilePlacement& sender,
                   const Face& face, int f, std::int64_t h, std::int64_t i);

/// extended_tile_box(program, placement, h, i) for i = 0..h, indexed by i.
std::vector<Box> extended_tile_boxes(
    const scl::stencil::StencilProgram& program,
    const TilePlacement& placement, std::int64_t h);

/// Protocol position of a strip: lexicographic (iteration, stage).
struct StripKey {
  std::int64_t iter = 0;
  int stage = 0;
  friend auto operator<=>(const StripKey&, const StripKey&) = default;
};

/// One boundary strip a directed pipe carries.
struct StripSpec {
  StripKey key;
  int field = 0;
  Box box;  ///< never empty
};

/// Every strip that crosses `face` (the receiver's face) into the
/// receiver's halo during a pass of `h` fused iterations, in protocol
/// order: one per (iteration, stage) whose output field a later stage or
/// iteration reads across `face`, with the box halo_strip_box gives.
/// Empty boxes are skipped. `receiver_extended` and `sender_extended` are
/// the two tiles' extended_tile_boxes.
std::vector<StripSpec> pipe_strip_schedule(
    const scl::stencil::StencilProgram& program,
    const std::vector<Box>& receiver_extended,
    const std::vector<Box>& sender_extended, const Face& face,
    std::int64_t h);

/// One directed pipe between face-adjacent tiles and its strip schedule
/// for the pass. Both ends consume `strips`; neither recomputes a box.
struct PipeChannel {
  ocl::Pipe pipe;
  std::vector<StripSpec> strips;
};

/// Widest strip (elements) ever exchanged in either direction across the
/// face between `a` and `b` (`face` is from `a`'s perspective). Pipes must
/// be at least this deep or the symmetric send phases deadlock.
std::int64_t max_face_strip_elements(
    const scl::stencil::StencilProgram& program, const TilePlacement& a,
    const TilePlacement& b, const Face& face, std::int64_t h);

/// The same from the two tiles' extended boxes at fused iteration 1.
std::int64_t max_face_strip_elements(
    const scl::stencil::StencilProgram& program, const Box& a_extended,
    const Box& b_extended, const Face& face);

/// Per-face pipe endpoints (index [dim][side]); null when the face is
/// region-exterior or has no neighbor.
using FacePipes = std::array<std::array<PipeChannel*, 2>, 3>;

struct TileTaskParams {
  const scl::stencil::StencilProgram* program = nullptr;
  SimMode mode = SimMode::kTimingOnly;
  DesignKind kind = DesignKind::kBaseline;

  TilePlacement tile;
  std::int64_t fused_iterations = 1;  ///< h for this pass
  /// extended_tile_boxes(program, tile, fused_iterations).
  std::vector<Box> extended;

  // Timing parameters (one entry per program stage).
  std::vector<double> stage_cycles_per_element;  ///< II_s / N_PE per stage
  std::vector<std::int64_t> stage_depth;  ///< pipeline fill/drain per stage
  std::int64_t launch_offset = 0;    ///< start clock (sequential launches)
  ocl::GlobalMemory* memory = nullptr;
  int memory_sharers = 1;            ///< kernels sharing DDR bandwidth (K)

  FacePipes out_pipes{};  ///< strips this tile sends
  FacePipes in_pipes{};   ///< strips this tile receives

  /// §3.1 latency hiding; off = pipe writes fully exposed (ablation).
  bool latency_hiding = true;

  /// Optional event sink; every clock-advancing step is appended.
  std::vector<TraceEvent>* trace = nullptr;

  // Functional-mode global state (pass input / pass output).
  const scl::stencil::FieldSet* global_in = nullptr;
  scl::stencil::FieldSet* global_out = nullptr;
};

class TileTask final : public ocl::KernelTask {
 public:
  explicit TileTask(TileTaskParams params);

  StepResult step() override;
  std::int64_t clock() const override { return clock_; }
  /// "tile(x,y,z)", built on first use.
  const std::string& name() const override;

  const PhaseBreakdown& phases() const { return phases_; }
  std::int64_t cells_owned() const { return cells_owned_; }
  std::int64_t cells_redundant() const { return cells_redundant_; }

  /// The tile buffer box (tile + cone margins + halos), useful for
  /// resource sizing and tests.
  const Box& buffer_box() const { return buffer_box_; }

 private:
  enum class State {
    kLaunch,
    kRead,
    kStageIndependent,  ///< compute cells needing no halo data
    kApplyHalo,         ///< blocking: apply strips the dependent cells need
    kStageDependent,    ///< compute boundary-adjacent cells
    kSend,              ///< push this stage's boundary strips
    kWrite,
    kDone,
  };

  /// One outgoing strip of the current stage.
  struct Send {
    PipeChannel* channel = nullptr;
    std::int64_t volume = 0;
    std::size_t progress = 0;  ///< elements sent so far
    std::vector<float> data;   ///< functional mode only
  };

  /// Receive state of one incoming pipe, as cursors into its schedule.
  /// Strips [applied, expected) are queued in protocol order: those below
  /// `drained` are complete, strip `drained` holds `progress` elements.
  /// Only strips whose stage has started are expected, so a FIFO never
  /// drains ahead of the receiver's protocol position.
  struct Inbox {
    std::size_t applied = 0;
    std::size_t drained = 0;
    std::size_t expected = 0;
    std::int64_t progress = 0;
    /// Per strip: availability of its last drained element.
    std::vector<std::int64_t> ready_clock;
    /// Per strip payload (functional mode only).
    std::vector<std::vector<float>> data;
  };

  // --- geometry helpers ---
  /// Compute box of `stage` at fused iteration `i` from current validity.
  Box compute_box(int stage, std::int64_t i) const;
  /// Splits `c` into the independent core and the dependent strips along
  /// pipe-shared faces (using the stage's read radii).
  void split_compute_box(int stage, const Box& c, Box* independent,
                         std::vector<Box>* dependent) const;

  // --- state-machine steps ---
  void do_launch();
  void do_read();
  void do_stage_independent();
  bool do_apply_halo();
  void do_stage_dependent();
  bool do_send();
  void do_write();
  void advance_stage();

  void evaluate_chunk(const Box& chunk);
  void commit_stage_output();
  /// Charges the stage's cycles for `box` and returns them.
  std::int64_t charge_compute(const Box& box, bool with_depth);
  bool tracing() const { return params_.trace != nullptr; }
  /// Appends [begin, clock_) to the trace sink (no-op without one).
  void record(std::string_view phase, std::int64_t begin);
  /// Moves available FIFO data into pending strip buffers without applying
  /// it (safe at any time; called opportunistically on send backpressure).
  void drain_face(int d, int side);
  /// Highest strip key stage (iter_, stage_) depends on across `face`,
  /// or nullopt when the stage reads nothing across it.
  std::optional<StripKey> needed_key(int d, int side) const;

  const scl::stencil::StencilProgram& program() const {
    return *params_.program;
  }
  bool face_is_shared(int d, int side) const {
    return params_.kind == DesignKind::kHeterogeneous &&
           !params_.tile.exterior[static_cast<std::size_t>(d)]
                                 [static_cast<std::size_t>(side)];
  }

  TileTaskParams params_;
  mutable std::string name_;
  State state_ = State::kLaunch;
  std::int64_t clock_ = 0;
  PhaseBreakdown phases_;

  Box buffer_box_;
  std::vector<Box> valid_;  ///< per-field latest-version validity box

  // Functional-mode storage.
  std::optional<scl::stencil::FieldSet> fields_;
  std::optional<scl::stencil::Grid<float>> shadow_;

  // Iteration/stage cursor.
  std::int64_t iter_ = 1;  // 1-based fused iteration
  int stage_ = 0;

  // Current stage work decomposition.
  Box current_box_;
  Box independent_box_;
  std::vector<Box> dependent_boxes_;

  // Outgoing strips of the current stage, and per face the next
  // out-channel schedule entry.
  std::vector<Send> sends_;
  std::array<std::array<std::size_t, 2>, 3> send_next_{};
  std::size_t send_cursor_ = 0;
  /// Independent-compute cycles of the current stage still available to
  /// hide pipe-write time behind (paper §3.1 latency hiding).
  std::int64_t overlap_budget_ = 0;

  // Incoming strips per face. They fill as FIFOs drain and are applied
  // (written to the halo) only when a dependent compute requires their
  // key.
  std::array<std::array<Inbox, 2>, 3> inboxes_;

  std::int64_t cells_owned_ = 0;
  std::int64_t cells_redundant_ = 0;
};

}  // namespace scl::sim
