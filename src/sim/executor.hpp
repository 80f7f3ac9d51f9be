// Whole-application discrete-event simulation (the "measured" side of the
// reproduction — the stand-in for running the bitstream under SDAccel).
//
// Functional mode runs every region of every pass with real data against a
// pair of ping-ponged global field sets, exactly as the synthesized system
// double-buffers its DDR arrays between fused passes, and returns the final
// fields for comparison with the golden ReferenceExecutor.
//
// Timing-only mode exploits that regions with identical shape and grid-edge
// adjacency behave identically: it simulates one representative region per
// distinct shape (and per distinct pass length) and multiplies.
#pragma once

#include <cstdint>
#include <optional>

#include "fpga/device.hpp"
#include "sim/design.hpp"
#include "sim/region.hpp"
#include "sim/tile_task.hpp"
#include "sim/timeline.hpp"
#include "stencil/program.hpp"
#include "stencil/state.hpp"

namespace scl::sim {

struct SimResult {
  std::int64_t total_cycles = 0;
  double total_ms = 0.0;
  /// Per-phase cycles summed over every kernel of every region execution.
  PhaseBreakdown phases;
  std::int64_t region_executions = 0;
  std::int64_t cells_owned = 0;
  std::int64_t cells_redundant = 0;
  std::int64_t pipe_elements = 0;
  std::int64_t global_memory_bytes = 0;
  /// Final field contents (functional mode only).
  std::optional<scl::stencil::FieldSet> fields;

  /// Fraction of updated cells that were redundant cone overlap.
  double redundancy_ratio() const {
    const double total =
        static_cast<double>(cells_owned + cells_redundant);
    return total > 0 ? static_cast<double>(cells_redundant) / total : 0.0;
  }
};

/// Deterministic work counters of simulation runs, for the sim bench.
/// They describe how the simulator worked, not the design, so no report
/// or artifact carries them.
struct SimStats {
  /// Region passes evaluated: one per representative (shape, pass length)
  /// in timing-only mode, every region of every pass in functional mode,
  /// one per distinct shape of a temporal cascade (closed form).
  std::int64_t regions = 0;
  std::int64_t tile_tasks = 0;     ///< tile kernels those regions ran
  std::int64_t runtime_steps = 0;  ///< ocl::Runtime scheduler steps
  /// Pipe write calls, including those a full FIFO refused.
  std::int64_t pipe_writes = 0;
};

/// Simulator knobs for ablation studies; the defaults model the paper's
/// proposed design.
struct SimTuning {
  /// §3.1 communication-latency hiding: pipe writes overlap the stage's
  /// independent computation. Off = every transferred element lands on
  /// the producer's critical path (λ = 1 in the paper's terms).
  bool latency_hiding = true;
};

/// Re-entrancy contract: an Executor holds only the immutable device spec
/// and tuning knobs; run() and trace_region() build all simulation state
/// (region grids, tile tasks, pipes, field sets) on the stack per call.
/// Concurrent timing-only runs on one instance are safe without locking
/// as long as the shared program and device are not mutated.
class Executor {
 public:
  explicit Executor(fpga::DeviceSpec device, SimTuning tuning = SimTuning{})
      : device_(std::move(device)), tuning_(tuning) {}

  const fpga::DeviceSpec& device() const { return device_; }

  /// Simulates `config` running `program` on the device. Functional mode
  /// is intended for small instances (it touches every cell of every
  /// region); timing-only handles the paper-scale inputs. When `stats`
  /// is given, the run's work counters are added to it.
  SimResult run(const scl::stencil::StencilProgram& program,
                const DesignConfig& config, SimMode mode,
                SimStats* stats = nullptr) const;

  /// Simulates one representative (interior, full-size) region pass and
  /// returns its per-kernel event trace. Timing-only.
  RegionTrace trace_region(const scl::stencil::StencilProgram& program,
                           const DesignConfig& config) const;

 private:
  struct RegionOutcome {
    std::int64_t cycles = 0;
    PhaseBreakdown phases;
    std::int64_t cells_owned = 0;
    std::int64_t cells_redundant = 0;
    std::int64_t pipe_elements = 0;
    std::int64_t bytes = 0;
  };

  RegionOutcome run_region(const scl::stencil::StencilProgram& program,
                           const DesignConfig& config, const RegionPlan& plan,
                           std::int64_t pass_iterations, SimMode mode,
                           const scl::stencil::FieldSet* global_in,
                           scl::stencil::FieldSet* global_out,
                           SimStats* stats,
                           std::vector<TraceEvent>* trace = nullptr) const;

  /// Pipe-tiling family: event-driven region simulation (see run()).
  SimResult run_pipe_tiling(const scl::stencil::StencilProgram& program,
                            const DesignConfig& config, SimMode mode,
                            SimStats* stats) const;

  /// Temporal-shift family (arch/family.hpp): models the single-kernel
  /// deep pipeline — per strip, one walk of the padded strip through the
  /// T-deep cascade at the walk II, overlapped with the streaming
  /// global-memory traffic, plus launch and pipeline fill/drain. No
  /// pipes, no barriers. Functional mode executes the design's spatial
  /// twin for bit-exact field contents (the cascade computes the same
  /// update schedule) while the timing numbers stay the cascade's.
  SimResult run_temporal(const scl::stencil::StencilProgram& program,
                         const DesignConfig& config, SimMode mode,
                         SimStats* stats) const;

  fpga::DeviceSpec device_;
  SimTuning tuning_;
};

}  // namespace scl::sim
