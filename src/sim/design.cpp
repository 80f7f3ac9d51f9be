#include "sim/design.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::sim {

const char* to_string(DesignKind kind) {
  switch (kind) {
    case DesignKind::kBaseline:
      return "Baseline";
    case DesignKind::kHeterogeneous:
      return "Heterogeneous";
  }
  return "?";
}

std::vector<std::int64_t> DesignConfig::tile_extents(int d) const {
  SCL_CHECK(d >= 0 && d < 3, "bad dimension");
  const int k = parallelism[static_cast<std::size_t>(d)];
  const std::int64_t w = tile_size[static_cast<std::size_t>(d)];
  const std::int64_t shrink = edge_shrink[static_cast<std::size_t>(d)];
  std::vector<std::int64_t> extents(static_cast<std::size_t>(k), w);
  if (k >= 3 && shrink > 0) {
    extents.front() -= shrink;
    extents.back() -= shrink;
    const std::int64_t released = 2 * shrink;
    const int interior = k - 2;
    const std::int64_t each = released / interior;
    std::int64_t remainder = released % interior;
    for (int i = 1; i < k - 1; ++i) {
      extents[static_cast<std::size_t>(i)] += each + (remainder > 0 ? 1 : 0);
      if (remainder > 0) --remainder;
    }
  }
  return extents;
}

std::int64_t DesignConfig::region_extent(int d) const {
  // Balancing moves cells between tiles and never changes their sum.
  SCL_CHECK(d >= 0 && d < 3, "bad dimension");
  const auto ds = static_cast<std::size_t>(d);
  return parallelism[ds] * tile_size[ds];
}

double DesignConfig::balance_factor(int d, int k) const {
  const auto extents = tile_extents(d);
  SCL_CHECK(k >= 0 && k < static_cast<int>(extents.size()), "bad tile index");
  return static_cast<double>(extents[static_cast<std::size_t>(k)]) /
         static_cast<double>(tile_size[static_cast<std::size_t>(d)]);
}

void DesignConfig::validate(const scl::stencil::StencilProgram& program) const {
  if (unroll < 1) throw Error("unroll (N_PE) must be >= 1");
  if (replication < 1) throw Error("replication (R) must be >= 1");
  if (fused_iterations < 1) throw Error("fused iteration depth must be >= 1");
  if (fused_iterations > program.iterations()) {
    throw Error(str_cat("fused depth ", fused_iterations,
                        " exceeds program iterations ",
                        program.iterations()));
  }
  if (family == arch::DesignFamily::kTemporalShift) {
    // The temporal family is one deep pipeline walking full-extent strips:
    // the pipe-tiling knobs (kind, K_d, balancing) have no meaning and are
    // pinned so the spatial twin of every temporal config is a valid
    // single-tile baseline design.
    if (kind != DesignKind::kBaseline) {
      throw Error("temporal-shift designs fix kind = Baseline");
    }
    if (parallelism != std::array<int, 3>{1, 1, 1}) {
      throw Error("temporal-shift designs run one pipeline (K = 1x1x1)");
    }
    if (edge_shrink != std::array<std::int64_t, 3>{0, 0, 0}) {
      throw Error("temporal-shift designs have no workload balancing");
    }
    if (program.iterations() % fused_iterations != 0) {
      throw Error(str_cat("temporal degree ", fused_iterations,
                          " must divide the iteration count ",
                          program.iterations(),
                          ": the fixed-depth cascade cannot execute a "
                          "partial pass"));
    }
    for (int d = 0; d < program.dims() - 1; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      if (tile_size[ds] != program.grid_box().extent(d)) {
        throw Error(str_cat("temporal-shift strips keep the full grid "
                            "extent along dimension ", d));
      }
    }
    const int sd = program.dims() - 1;
    if (tile_size[static_cast<std::size_t>(sd)] >
        program.grid_box().extent(sd)) {
      throw Error("temporal-shift strip width exceeds the grid");
    }
  }
  for (int d = 0; d < 3; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const bool active = d < program.dims();
    if (!active) {
      if (parallelism[ds] != 1 || tile_size[ds] != 1 || edge_shrink[ds] != 0) {
        throw Error(str_cat("dimension ", d,
                            " is inactive and must keep K=1, w=1, shrink=0"));
      }
      continue;
    }
    if (parallelism[ds] < 1) throw Error("parallelism must be >= 1");
    if (tile_size[ds] < 1) throw Error("tile size must be >= 1");
    if (edge_shrink[ds] < 0) throw Error("edge shrink cannot be negative");
    if (edge_shrink[ds] > 0) {
      if (kind == DesignKind::kBaseline) {
        throw Error("the baseline design has no workload balancing");
      }
      if (parallelism[ds] <= 2) {
        throw Error(str_cat(
            "balancing along dimension ", d, " needs K_d >= 3 (got ",
            parallelism[ds], "): with two or fewer tiles there is no "
            "interior tile to absorb the released cells"));
      }
      if (edge_shrink[ds] >= tile_size[ds]) {
        throw Error("edge shrink would empty the edge tile");
      }
    }
  }
}

DesignKey DesignConfig::key() const {
  // The family word leads: the lexicographic DesignKey order (the DSE's
  // final tie-breaker) sorts all pipe-tiling designs before all
  // temporal-shift designs, which is the cross-family enumeration-order
  // contract candidate_space.hpp documents.
  DesignKey k;
  k.v[0] = static_cast<std::int64_t>(family);
  k.v[1] = static_cast<std::int64_t>(kind);
  k.v[2] = fused_iterations;
  for (std::size_t d = 0; d < 3; ++d) {
    k.v[3 + d] = parallelism[d];
    k.v[6 + d] = tile_size[d];
    k.v[9 + d] = edge_shrink[d];
  }
  k.v[12] = unroll;
  k.v[13] = replication;
  return k;
}

std::string DesignConfig::summary(int dims) const {
  std::vector<std::string> tiles;
  std::vector<std::string> cus;
  for (int d = 0; d < dims; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    tiles.push_back(std::to_string(tile_size[ds]));
    cus.push_back(std::to_string(parallelism[ds]));
  }
  const std::string rep =
      replication > 1 ? str_cat(", R=", replication) : std::string();
  if (family == arch::DesignFamily::kTemporalShift) {
    return str_cat("TemporalShift: T=", fused_iterations, ", strip ",
                   join(tiles, "x"), ", V=", unroll, rep);
  }
  return str_cat(to_string(kind), ": h=", fused_iterations, ", tile ",
                 join(tiles, "x"), ", CUs ", join(cus, "x"), ", N_PE=",
                 unroll, rep);
}

}  // namespace scl::sim
