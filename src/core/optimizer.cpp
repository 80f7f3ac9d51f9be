#include "core/optimizer.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <optional>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/observability/observability.hpp"
#include "support/strings.hpp"

namespace scl::core {

using scl::sim::DesignConfig;
using scl::sim::DesignKind;
using scl::stencil::StencilProgram;

bool design_order(const DesignPoint& a, const DesignPoint& b) {
  if (a.prediction.total_cycles != b.prediction.total_cycles) {
    return a.prediction.total_cycles < b.prediction.total_cycles;
  }
  const fpga::ResourceVector& ra = a.resources.total;
  const fpga::ResourceVector& rb = b.resources.total;
  if (ra.bram18 != rb.bram18) return ra.bram18 < rb.bram18;
  if (ra.ff != rb.ff) return ra.ff < rb.ff;
  if (ra.lut != rb.lut) return ra.lut < rb.lut;
  if (ra.dsp != rb.dsp) return ra.dsp < rb.dsp;
  return a.config.key() < b.config.key();
}

DesignPoint select_best(const std::vector<DesignPoint>& feasible) {
  SCL_CHECK(!feasible.empty(), "select_best needs a non-empty feasible set");
  double fastest = std::numeric_limits<double>::infinity();
  for (const DesignPoint& point : feasible) {
    fastest = std::min(fastest, point.prediction.total_cycles);
  }
  auto spread = [](const std::array<int, 3>& arrangement) {
    return *std::max_element(arrangement.begin(), arrangement.end()) -
           *std::min_element(arrangement.begin(), arrangement.end());
  };
  auto prefers = [&](const DesignPoint& a, const DesignPoint& b) {
    const std::int64_t ka = a.config.total_kernels();
    const std::int64_t kb = b.config.total_kernels();
    if (ka != kb) return ka > kb;
    const int sa = spread(a.config.parallelism);
    const int sb = spread(b.config.parallelism);
    if (sa != sb) return sa < sb;
    return design_order(a, b);
  };
  const DesignPoint* best = nullptr;
  for (const DesignPoint& point : feasible) {
    if (point.prediction.total_cycles > kNearTie * fastest) continue;
    if (best == nullptr || prefers(point, *best)) best = &point;
  }
  return *best;
}

namespace {

using Clock = std::chrono::steady_clock;

support::obs::Counter& candidates_counter() {
  static auto& counter = support::obs::metrics().counter(
      "scl_dse_candidates_total", "design candidates evaluated or reused");
  return counter;
}

support::obs::Counter& pruned_counter() {
  static auto& counter = support::obs::metrics().counter(
      "scl_dse_pruned_total",
      "design candidates skipped by branch-and-bound lower bounds");
  return counter;
}

support::obs::Histogram& walk_histogram() {
  static auto& histogram = support::obs::metrics().histogram(
      "scl_dse_batch_ms", support::obs::default_latency_ms_buckets(),
      "wall time of one seed batch or chain walk");
  return histogram;
}

/// Credits one evaluation walk, `walked` candidates since `start`.
void record_walk(DseStats* stats, std::int64_t walked,
                 Clock::time_point start) {
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  stats->candidates_evaluated += walked;
  stats->wall_seconds += seconds;
  if (support::obs::enabled()) {
    candidates_counter().add(walked);
    walk_histogram().observe(seconds * 1e3);
  }
}

/// Bounds each config of a flat list, index = list position.
BoundedSpace bound_configs(const std::vector<DesignConfig>& configs,
                           const model::LowerBoundModel& model,
                           const fpga::ResourceVector& cap) {
  BoundedSpace out;
  out.bounded = static_cast<std::int64_t>(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const model::LowerBound lb = model.bound(configs[i]);
    if (lb.floor.fits_within(cap)) {
      out.survivors.push_back({lb.cycles, static_cast<std::int64_t>(i)});
    } else {
      ++out.skipped;
    }
  }
  return out;
}

}  // namespace

BoundedSpace bound_axes(const CandidateAxes& axes,
                        const model::LowerBoundModel& model,
                        const fpga::ResourceVector& cap) {
  BoundedSpace out;
  const auto depths = static_cast<std::int64_t>(axes.depths.size());
  std::int64_t index = 0;
  DesignConfig config = axes.prototype;
  // The group's logic floor is taken at its smallest depth, the floor of
  // every deeper candidate.
  config.fused_iterations =
      *std::min_element(axes.depths.begin(), axes.depths.end());
  for (const int replication : axes.replications) {
    config.replication = replication;
    for (const std::array<int, 3>& parallelism : axes.parallelisms) {
      config.parallelism = parallelism;
      for (const int unroll : axes.unrolls) {
        config.unroll = unroll;
        if (!model.logic_floor(config).fits_within(cap)) {
          out.skipped += axes.group_size();
          index += axes.group_size();
          continue;
        }
        for (const std::array<std::int64_t, 3>& tile : axes.tiles) {
          config.tile_size = tile;
          const model::ChainTerms terms = model.chain_terms(config);
          for (std::int64_t j = 0; j < depths; ++j) {
            const model::LowerBound lb =
                model.bound(terms, axes.depths[static_cast<std::size_t>(j)]);
            ++out.bounded;
            if (!lb.floor.fits_within(cap)) {
              out.skipped += depths - j;  // deeper floors only grow
              break;
            }
            out.survivors.push_back({lb.cycles, index + j});
          }
          index += depths;
        }
      }
    }
  }
  return out;
}

std::int64_t SearchSpace::size() const {
  return configs.empty() ? axes.size()
                         : static_cast<std::int64_t>(configs.size());
}

std::int64_t SearchSpace::chain_length() const {
  return configs.empty() ? static_cast<std::int64_t>(axes.depths.size())
                         : 1;
}

DesignConfig SearchSpace::config(std::int64_t index) const {
  return configs.empty() ? axes.config(index)
                         : configs[static_cast<std::size_t>(index)];
}

Optimizer::Optimizer(const StencilProgram& program, OptimizerOptions options)
    : program_(&program),
      options_(std::move(options)),
      space_(program, options_),
      bound_model_(program, options_.device),
      perf_model_(program, options_.device, options_.cone_mode),
      resource_model_(options_.device) {
  SCL_CHECK(options_.resource_fraction > 0.0 &&
                options_.resource_fraction <= 1.0,
            "resource fraction must be in (0, 1]");
}

fpga::ResourceVector Optimizer::budget() const {
  const fpga::ResourceVector cap = options_.device.capacity;
  auto scale = [&](std::int64_t v) {
    return static_cast<std::int64_t>(static_cast<double>(v) *
                                     options_.resource_fraction);
  };
  return {scale(cap.ff), scale(cap.lut), scale(cap.dsp), scale(cap.bram18)};
}

DseStats Optimizer::dse_stats() const {
  DseStats stats = stats_;
  stats.cache_misses = stats.candidates_evaluated - stats.cache_hits;
  return stats;
}

DesignPoint Optimizer::price(const DesignConfig& config) const {
  DesignPoint point;
  point.config = config;
  point.prediction = perf_model_.predict(config);
  point.resources =
      estimate_design_resources(*program_, config, resource_model_);
  return point;
}

DesignPoint Optimizer::evaluate(const DesignConfig& config) const {
  ++stats_.candidates_evaluated;
  if (support::obs::enabled()) candidates_counter().increment();
  return price(config);
}

SearchSpace Optimizer::product_space(const char* family,
                                     CandidateAxes axes) const {
  SearchSpace space;
  space.family = family;
  space.cap = budget();
  space.cap_name = "the device budget";
  space.axes = std::move(axes);
  return space;
}

SearchSpace Optimizer::baseline_space() const {
  return product_space("baseline", space_.axes(DesignKind::kBaseline));
}

SearchSpace Optimizer::temporal_space() const {
  return product_space("temporal-shift", space_.temporal_axes());
}

SearchSpace Optimizer::heterogeneous_space(const DesignPoint& baseline) const {
  // Paper §5.4: the heterogeneous design is constrained by the baseline's
  // hardware size and keeps its parallelism; only the fusion depth, tile
  // size and balancing factors vary. DSP and BRAM are hard caps; FF/LUT
  // get a 3% tolerance (estimation noise at P&R granularity — relevant
  // only for 1-D stencils whose pipe logic is not amortized by buffer
  // savings).
  SearchSpace space;
  space.family = "heterogeneous";
  space.cap = baseline.resources.total;
  space.cap.ff =
      static_cast<std::int64_t>(static_cast<double>(space.cap.ff) * 1.03);
  space.cap.lut =
      static_cast<std::int64_t>(static_cast<double>(space.cap.lut) * 1.03);
  space.cap_name = "within the baseline's resources";
  // Table 3 protocol: the heterogeneous design keeps the baseline's
  // nominal tile (its region sweep), so the reported "tile size of the
  // slowest kernel" is the baseline tile minus the balancing shrink.
  // Shrink does not vary resources monotonically, so each candidate is
  // its own single-config chain: the chain early exit degenerates to the
  // plain feasibility filter.
  space.configs = space_.heterogeneous_candidates(baseline.config);
  return space;
}

std::vector<DesignPoint> Optimizer::walk(
    const SearchSpace& space, const std::vector<std::int64_t>& indices,
    std::vector<Probe> probes) const {
  const auto span = support::obs::tracer().span("dse/evaluate", "dse");
  const Clock::time_point start = Clock::now();
  std::vector<DesignPoint> feasible;
  auto probe = probes.begin();
  const std::int64_t chain_length = space.chain_length();
  std::int64_t cut_chain = -1;  // the chain whose cap was reached
  std::int64_t walked = 0;
  for (const std::int64_t index : indices) {
    const std::int64_t chain = index / chain_length;
    if (chain == cut_chain) continue;
    while (probe != probes.end() && probe->index < index) ++probe;
    DesignPoint point;
    if (probe != probes.end() && probe->index == index) {
      point = std::move(probe->point);
      ++stats_.cache_hits;
    } else {
      point = price(space.config(index));
    }
    ++walked;
    if (!point.resources.total.fits_within(space.cap)) {
      cut_chain = chain;
      continue;
    }
    feasible.push_back(std::move(point));
  }
  record_walk(&stats_, walked, start);
  return feasible;
}

std::vector<DesignPoint> Optimizer::explore(const SearchSpace& space) const {
  std::vector<std::int64_t> indices(static_cast<std::size_t>(space.size()));
  std::iota(indices.begin(), indices.end(), std::int64_t{0});
  return walk(space, indices, {});
}

DesignPoint Optimizer::search(const SearchSpace& space) const {
  const DseStats before = stats_;
  // Phase A: bound the space, find a feasible seed by walking the most
  // promising bounds first, and decide the kept set from bounds alone.
  std::vector<Probe> probes;
  std::vector<std::int64_t> kept;
  std::optional<double> seed_cycles;
  {
    const auto span = support::obs::tracer().span("dse/prune", "dse");
    BoundedSpace bounded =
        space.configs.empty()
            ? bound_axes(space.axes, bound_model_, space.cap)
            : bound_configs(space.configs, bound_model_, space.cap);
    stats_.candidates_bounded += bounded.bounded;
    // Min-heap on (bound, enumeration index): it pops in exactly the
    // ascending sorted order, but the seed usually turns up in the first
    // batch or two, so only those pops pay the log factor — sorting the
    // survivors would not. Popped candidates collect behind `unpopped`.
    std::vector<BoundedCandidate>& heap = bounded.survivors;
    const auto pops_later = [](const BoundedCandidate& a,
                               const BoundedCandidate& b) {
      if (a.cycles != b.cycles) return a.cycles > b.cycles;
      return a.index > b.index;  // enumeration index breaks ties
    };
    std::make_heap(heap.begin(), heap.end(), pops_later);
    auto unpopped = heap.end();
    // Seed: evaluate bound-ascending in small batches until a design
    // fits. The tighter the seed, the smaller the kept set, but any
    // feasible design is a correct seed. The resource floor only removed
    // designs that cannot fit, so the first feasible design in bound
    // order, the seed, is the same with or without it.
    constexpr std::size_t kSeedBatch = 8;
    while (!seed_cycles && unpopped != heap.begin()) {
      const Clock::time_point start = Clock::now();
      const std::size_t first = probes.size();
      while (probes.size() - first < kSeedBatch && unpopped != heap.begin()) {
        std::pop_heap(heap.begin(), unpopped, pops_later);
        --unpopped;
        const std::int64_t index = unpopped->index;
        probes.push_back({index, price(space.config(index))});
      }
      record_walk(&stats_, static_cast<std::int64_t>(probes.size() - first),
                  start);
      for (std::size_t i = first; i < probes.size(); ++i) {
        if (probes[i].point.resources.total.fits_within(space.cap)) {
          seed_cycles = probes[i].point.prediction.total_cycles;
          break;
        }
      }
    }
    // Floor-skipped candidates are pruned even when nothing fits.
    std::int64_t pruned = bounded.skipped;
    if (seed_cycles) {
      const double ceiling = kPruneMargin * *seed_cycles;
      for (auto it = heap.begin(); it != heap.end(); ++it) {
        if (it->cycles <= ceiling) {
          kept.push_back(it->index);
        } else if (it < unpopped) {
          // Seed-probed candidates were evaluated, not skipped;
          // candidates dropped later by Phase B's early exit are not
          // counted either — this counter reports bound prunes only.
          ++pruned;
        }
      }
    }
    stats_.candidates_pruned += pruned;
    if (support::obs::enabled() && pruned > 0) pruned_counter().add(pruned);
  }
  // Phase B: walk the kept candidates in enumeration order, reusing the
  // seed batches' designs. A design select_best() can pick has latency
  // <= kNearTie x c* <= kNearTie x seed < kPruneMargin x seed, and its
  // bound is no higher, so it is kept; candidates outside the kept set
  // either cannot fit (resource floor) or cannot be picked. Each kept
  // chain is still ascending in depth, so the walk's early exit drops
  // exactly the over-cap tails the exhaustive walk drops.
  std::vector<DesignPoint> feasible;
  if (seed_cycles) {
    std::sort(kept.begin(), kept.end());
    std::sort(probes.begin(), probes.end(),
              [](const Probe& a, const Probe& b) { return a.index < b.index; });
    feasible = walk(space, kept, std::move(probes));
  }
  for (const DesignPoint& point : feasible) retained_.insert(point);
  SCL_INFO() << space.family << " DSE for " << program_->name() << ": "
             << stats_.candidates_evaluated - before.candidates_evaluated
             << " candidates evaluated, "
             << stats_.candidates_pruned - before.candidates_pruned
             << " pruned";
  if (feasible.empty()) {  // the seed is kept, so nothing fits at all
    throw ResourceError(str_cat("no ", space.family, " design for '",
                                program_->name(), "' fits ", space.cap_name,
                                " ", space.cap.to_string()));
  }
  return select_best(feasible);
}

std::vector<DesignPoint> Optimizer::pareto_frontier(DesignKind kind) const {
  std::vector<DesignPoint> feasible =
      explore(product_space("", space_.axes(kind)));
  std::sort(feasible.begin(), feasible.end(), design_order);
  std::vector<DesignPoint> frontier;
  std::int64_t best_bram = std::numeric_limits<std::int64_t>::max();
  for (DesignPoint& point : feasible) {
    if (point.resources.total.bram18 < best_bram) {
      best_bram = point.resources.total.bram18;
      frontier.push_back(std::move(point));
    }
  }
  return frontier;
}

}  // namespace scl::core
