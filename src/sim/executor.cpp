#include "sim/executor.hpp"

#include <chrono>
#include <cmath>
#include <memory>

#include "arch/temporal_layout.hpp"
#include "fpga/hls.hpp"
#include "ocl/memory.hpp"
#include "ocl/pipe.hpp"
#include "ocl/runtime.hpp"
#include "support/error.hpp"
#include "support/observability/observability.hpp"
#include "support/strings.hpp"

namespace scl::sim {

using scl::stencil::Face;
using scl::stencil::FieldSet;
using scl::stencil::StencilProgram;

Executor::RegionOutcome Executor::run_region(
    const StencilProgram& program, const DesignConfig& config,
    const RegionPlan& plan, std::int64_t pass_iterations, SimMode mode,
    const FieldSet* global_in, FieldSet* global_out, SimStats* stats,
    std::vector<TraceEvent>* trace) const {
  // One region is executed by one replica; its memory channel is the
  // replica's share of the (possibly banked) device bandwidth. Exact
  // no-op at R=1 on single-bank parts.
  ocl::GlobalMemory memory(device_.replica_bytes_per_cycle(config.replication),
                           device_.mem_port_bytes_per_cycle);
  std::vector<double> stage_cel;
  std::vector<std::int64_t> stage_depth;
  for (int s = 0; s < program.stage_count(); ++s) {
    const fpga::HlsEstimate est =
        fpga::estimate_stage(program.stage(s), config.unroll);
    stage_cel.push_back(fpga::cycles_per_element(est, config.unroll));
    stage_depth.push_back(est.depth);
  }

  // The baseline design has no pipes: every tile computes an independent
  // overlapped cone, so all faces behave as region-exterior.
  std::vector<TilePlacement> tiles = plan.tiles;
  if (config.kind == DesignKind::kBaseline) {
    for (TilePlacement& t : tiles) {
      for (auto& dim_flags : t.exterior) dim_flags = {true, true};
    }
  }

  // Index tiles by coordinate for neighbor lookup.
  auto coord_key = [&](const std::array<int, 3>& c) {
    return static_cast<std::size_t>(
        (c[0] * config.parallelism[1] + c[1]) * config.parallelism[2] + c[2]);
  };
  std::vector<std::size_t> by_coord(
      static_cast<std::size_t>(config.total_kernels()), 0);
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    by_coord[coord_key(tiles[i].coord)] = i;
  }
  auto neighbor = [&](const TilePlacement& t, int d, int side) {
    std::array<int, 3> nc = t.coord;
    nc[static_cast<std::size_t>(d)] += side == 0 ? -1 : +1;
    return by_coord[coord_key(nc)];
  };

  // Each tile's extended box per fused iteration, computed once: the tile
  // bounds its compute cone with it, and every strip schedule it takes
  // part in clips to it.
  std::vector<std::vector<Box>> extended;
  extended.reserve(tiles.size());
  for (const TilePlacement& t : tiles) {
    extended.push_back(extended_tile_boxes(program, t, pass_iterations));
  }

  // Create pipe pairs for every interior face (heterogeneous design only).
  // One directed channel per (tile, face), holding the pipe and the strip
  // schedule both of its ends consume; FIFOs are sized to hold at least
  // the widest strip so the symmetric send phases cannot deadlock.
  std::vector<std::unique_ptr<PipeChannel>> channels;
  // out_channel[tile][face id = d * 2 + side]
  std::vector<std::array<PipeChannel*, 6>> out_channel(tiles.size());
  if (config.kind == DesignKind::kHeterogeneous) {
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      const TilePlacement& t = tiles[i];
      for (int d = 0; d < program.dims(); ++d) {
        const auto ds = static_cast<std::size_t>(d);
        for (int side = 0; side < 2; ++side) {
          if (t.exterior[ds][static_cast<std::size_t>(side)]) continue;
          const std::size_t n = neighbor(t, d, side);
          const Face face{d, side == 0 ? -1 : +1};
          const std::int64_t strip = max_face_strip_elements(
              program, extended[i][1], extended[n][1], face);
          const std::int64_t depth =
              std::max(device_.pipe_fifo_depth, strip);
          channels.push_back(std::make_unique<PipeChannel>(PipeChannel{
              ocl::Pipe(str_cat("pipe_k", t.kernel_index, "_d", d,
                                side == 0 ? "n" : "p"),
                        depth, device_.pipe_cycles_per_element),
              // The receiver sees this tile across the mirrored face.
              pipe_strip_schedule(program, extended[n], extended[i],
                                  Face{d, -face.dir}, pass_iterations)}));
          out_channel[i][static_cast<std::size_t>(d * 2 + side)] =
              channels.back().get();
        }
      }
    }
  }

  ocl::Runtime runtime;
  std::vector<std::shared_ptr<TileTask>> tasks;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const TilePlacement& t = tiles[i];
    TileTaskParams params;
    params.program = &program;
    params.mode = mode;
    params.kind = config.kind;
    params.tile = t;
    params.fused_iterations = pass_iterations;
    params.extended = std::move(extended[i]);
    params.stage_cycles_per_element = stage_cel;
    params.stage_depth = stage_depth;
    params.launch_offset =
        (t.kernel_index + 1) * device_.kernel_launch_cycles;
    params.memory = &memory;
    params.memory_sharers = static_cast<int>(config.total_kernels());
    params.latency_hiding = tuning_.latency_hiding;
    params.trace = trace;
    params.global_in = global_in;
    params.global_out = global_out;
    if (config.kind == DesignKind::kHeterogeneous) {
      for (int d = 0; d < program.dims(); ++d) {
        const auto ds = static_cast<std::size_t>(d);
        for (int side = 0; side < 2; ++side) {
          const auto ss = static_cast<std::size_t>(side);
          if (t.exterior[ds][ss]) continue;
          params.out_pipes[ds][ss] =
              out_channel[i][static_cast<std::size_t>(d * 2 + side)];
          // My incoming channel across this face is the neighbor's
          // outgoing channel across the mirrored face.
          params.in_pipes[ds][ss] = out_channel[neighbor(t, d, side)]
                                               [static_cast<std::size_t>(
                                                   d * 2 + (1 - side))];
        }
      }
    }
    auto task = std::make_shared<TileTask>(std::move(params));
    tasks.push_back(task);
    runtime.add_task(task);
  }

  runtime.run_all();

  RegionOutcome outcome;
  outcome.cycles = runtime.completion_cycles();
  for (const auto& task : tasks) {
    PhaseBreakdown p = task->phases();
    p.barrier_wait = outcome.cycles - task->clock();
    outcome.phases += p;
    outcome.cells_owned += task->cells_owned();
    outcome.cells_redundant += task->cells_redundant();
  }
  for (const auto& channel : channels) {
    outcome.pipe_elements += channel->pipe.total_written();
  }
  outcome.bytes = memory.total_bytes();
  if (stats != nullptr) {
    ++stats->regions;
    stats->tile_tasks += static_cast<std::int64_t>(tasks.size());
    stats->runtime_steps += runtime.steps_taken();
    for (const auto& channel : channels) {
      stats->pipe_writes += channel->pipe.write_calls();
    }
  }
  return outcome;
}

SimResult Executor::run_temporal(const StencilProgram& program,
                                 const DesignConfig& config, SimMode mode,
                                 SimStats* stats) const {
  const arch::TemporalLayout layout =
      arch::make_temporal_layout(program, config);
  const RegionGrid grid(program, config);
  SimResult result;
  result.region_executions = grid.total_region_executions();

  // Walk timing. The cascade's stage groups are separate pipeline
  // stations, so the walk advances at the *max* per-stage II; V cells
  // enter per tick. The emitted kernel walks the full padded strip no
  // matter how the grid clipped the strip's owned box (stores clamp into
  // the owned box instead of shortening the loop), so compute and
  // transfer volumes are identical for every region execution.
  std::int64_t ii_walk = 1;
  for (int s = 0; s < program.stage_count(); ++s) {
    ii_walk = std::max(
        ii_walk, fpga::estimate_stage(program.stage(s), config.unroll).ii);
  }
  const std::int64_t fill_drain =
      fpga::estimate_program(program, config.unroll).depth;
  const std::int64_t comp =
      ii_walk * (ceil_div(layout.cells,
                          static_cast<std::int64_t>(layout.vector_width)) +
                 layout.max_store_delay);
  const double bw_share =
      std::min(device_.mem_port_bytes_per_cycle,
               device_.replica_bytes_per_cycle(config.replication));
  const std::int64_t read_bytes =
      layout.cells * program.field_count() * StencilProgram::element_bytes();
  const std::int64_t write_bytes = layout.owned_cells *
                                   program.mutable_field_count() *
                                   StencilProgram::element_bytes();
  const auto mem = static_cast<std::int64_t>(
      std::ceil(static_cast<double>(read_bytes + write_bytes) / bw_share));
  const std::int64_t region_cycles =
      device_.kernel_launch_cycles + std::max(comp, mem) + fill_drain;

  for (const auto& shape : grid.distinct_shapes()) {
    const std::int64_t owned_clip = shape.plan.box.volume();
    const std::int64_t times = shape.count * grid.passes();
    // R replica cascades strip-partition each pass's regions; wall-clock
    // follows the most-loaded replica while work totals stay exact.
    const std::int64_t critical =
        ceil_div(shape.count, static_cast<std::int64_t>(config.replication)) *
        grid.passes();
    result.total_cycles += region_cycles * critical;
    result.cells_owned += owned_clip * times;
    result.cells_redundant += (layout.cells - owned_clip) * times;
    result.global_memory_bytes += (read_bytes + write_bytes) * times;

    PhaseBreakdown phases;
    phases.launch = device_.kernel_launch_cycles;
    const std::int64_t walk = comp + fill_drain;
    phases.compute_own =
        layout.cells > 0 ? walk * owned_clip / layout.cells : walk;
    phases.compute_redundant = walk - phases.compute_own;
    const std::int64_t exposed = std::max<std::int64_t>(0, mem - comp);
    phases.mem_read =
        exposed * read_bytes / std::max<std::int64_t>(1, read_bytes +
                                                             write_bytes);
    phases.mem_write = exposed - phases.mem_read;
    result.phases += phases * critical;
    if (stats != nullptr) ++stats->regions;
  }

  if (mode == SimMode::kFunctional) {
    // The cascade applies exactly the reference update schedule (taps read
    // the previous committed state, boundary cells pass through), so the
    // spatial twin — a single-tile baseline over the same strips — yields
    // bit-identical field contents.
    SimResult twin =
        run_pipe_tiling(program, arch::spatial_twin(config), mode, stats);
    result.fields = std::move(twin.fields);
  }
  result.total_ms =
      device_.cycles_to_ms(static_cast<double>(result.total_cycles));
  return result;
}

RegionTrace Executor::trace_region(const StencilProgram& program,
                                   const DesignConfig& config) const {
  SCL_CHECK(config.family == arch::DesignFamily::kPipeTiling,
            "trace_region models the pipe-tiling family; the temporal "
            "cascade has no per-kernel event timeline");
  const RegionGrid grid(program, config);
  // Prefer the most common shape (the interior, full-size region).
  const auto shapes = grid.distinct_shapes();
  SCL_CHECK(!shapes.empty(), "no regions to trace");
  const RegionGrid::ShapeCount* pick = &shapes.front();
  for (const auto& shape : shapes) {
    if (shape.count > pick->count) pick = &shape;
  }
  RegionTrace trace;
  const RegionOutcome outcome =
      run_region(program, config, pick->plan, config.fused_iterations,
                 SimMode::kTimingOnly, nullptr, nullptr, nullptr,
                 &trace.events);
  trace.region_cycles = outcome.cycles;
  return trace;
}

SimResult Executor::run(const StencilProgram& program,
                        const DesignConfig& config, SimMode mode,
                        SimStats* stats) const {
  const auto span = support::obs::tracer().span("sim/run", "sim");
  const auto sim_start = std::chrono::steady_clock::now();
  SimResult result =
      config.family == arch::DesignFamily::kTemporalShift
          ? run_temporal(program, config, mode, stats)
          : run_pipe_tiling(program, config, mode, stats);
  if (support::obs::enabled()) {
    // Simulator wall time next to the modeled device cycles: the gap
    // between "how long the simulation took" and "how long the design
    // would run" is the simulator's own overhead, the analogue of the
    // paper's predicted-vs-measured comparison for our pipeline.
    static auto& runs = support::obs::metrics().counter(
        "scl_sim_runs_total", "device simulations executed");
    static auto& modeled = support::obs::metrics().counter(
        "scl_sim_modeled_cycles_total",
        "device cycles accumulated by the discrete-event simulation");
    static auto& wall = support::obs::metrics().histogram(
        "scl_sim_wall_ms", support::obs::default_latency_ms_buckets(),
        "host wall time of one simulation run");
    runs.increment();
    modeled.add(result.total_cycles);
    wall.observe(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - sim_start)
                     .count());
  }
  return result;
}

SimResult Executor::run_pipe_tiling(const StencilProgram& program,
                                    const DesignConfig& config, SimMode mode,
                                    SimStats* stats) const {
  const RegionGrid grid(program, config);
  SimResult result;
  result.region_executions = grid.total_region_executions();

  // `times` counts region executions (work totals); `critical_times` is
  // the longest per-replica share of them when R replicas sweep regions
  // of a pass concurrently. At R=1 the two coincide.
  auto accumulate = [&result](const RegionOutcome& o, std::int64_t times,
                              std::int64_t critical_times) {
    result.total_cycles += o.cycles * critical_times;
    result.phases += o.phases * critical_times;
    result.cells_owned += o.cells_owned * times;
    result.cells_redundant += o.cells_redundant * times;
    result.pipe_elements += o.pipe_elements * times;
    result.global_memory_bytes += o.bytes * times;
  };

  if (mode == SimMode::kFunctional) {
    FieldSet current =
        scl::stencil::make_initial_state(program, program.grid_box());
    FieldSet next = current;
    const std::vector<RegionPlan> regions = grid.all_regions();
    for (std::int64_t pass = 0; pass < grid.passes(); ++pass) {
      const std::int64_t h = pass + 1 == grid.passes()
                                 ? grid.last_pass_iterations()
                                 : config.fused_iterations;
      for (const RegionPlan& plan : regions) {
        accumulate(run_region(program, config, plan, h, mode, &current, &next,
                              stats),
                   1, 1);
      }
      std::swap(current, next);
    }
    result.fields = std::move(current);
  } else {
    // One representative per (region shape, pass length).
    const auto shapes = grid.distinct_shapes();
    const std::int64_t full_passes =
        grid.last_pass_iterations() == config.fused_iterations
            ? grid.passes()
            : grid.passes() - 1;
    for (const auto& shape : shapes) {
      const std::int64_t critical_count = ceil_div(
          shape.count, static_cast<std::int64_t>(config.replication));
      if (full_passes > 0) {
        accumulate(run_region(program, config, shape.plan,
                              config.fused_iterations, mode, nullptr, nullptr,
                              stats),
                   shape.count * full_passes, critical_count * full_passes);
      }
      if (full_passes != grid.passes()) {
        accumulate(run_region(program, config, shape.plan,
                              grid.last_pass_iterations(), mode, nullptr,
                              nullptr, stats),
                   shape.count, critical_count);
      }
    }
  }

  result.total_ms = device_.cycles_to_ms(static_cast<double>(result.total_cycles));
  return result;
}

}  // namespace scl::sim
