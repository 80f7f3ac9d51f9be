// Index and box geometry for up to 3 spatial dimensions.
//
// Everything in stencilcl is phrased over absolute grid coordinates: tiles,
// halos, cone expansions, and validity regions are all `Box`es. Unused
// trailing dimensions are padded (index 0, extent 1) so loops can always be
// written three levels deep without branching on dimensionality.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "support/error.hpp"

namespace scl::stencil {

inline constexpr int kMaxDims = 3;

/// Absolute cell coordinate. Coordinates beyond the active dimensionality
/// are always 0.
using Index = std::array<std::int64_t, kMaxDims>;

/// Relative stencil offset (e.g. {-1, 0, 0} is the "west" neighbor).
using Offset = std::array<int, kMaxDims>;

/// A face of a box: dimension plus direction (-1 = low side, +1 = high side).
struct Face {
  int dim = 0;
  int dir = -1;  // -1 or +1

  friend bool operator==(const Face&, const Face&) = default;
};

/// Enumerates the 2*dims faces of a `dims`-dimensional box.
std::array<Face, 2 * kMaxDims> all_faces();

/// Half-open axis-aligned box: cells x with lo[d] <= x[d] < hi[d].
/// An empty box has hi[d] <= lo[d] in at least one dimension.
struct Box {
  Index lo{0, 0, 0};
  Index hi{0, 0, 0};

  /// Box covering [0, extent_d) per dimension; unused dims get extent 1.
  static Box from_extents(int dims, const std::array<std::int64_t, 3>& extents);

  // The trivial queries below are inline: the timing simulator calls
  // them on every step of every tile kernel.

  /// True if the box contains no cells.
  bool empty() const {
    return hi[0] <= lo[0] || hi[1] <= lo[1] || hi[2] <= lo[2];
  }

  /// Number of cells (0 if empty).
  std::int64_t volume() const {
    if (empty()) return 0;
    return (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
  }

  /// Extent along dimension d (0 if empty along d).
  std::int64_t extent(int d) const {
    SCL_DCHECK(d >= 0 && d < kMaxDims, "bad dimension");
    return std::max<std::int64_t>(0, hi[d] - lo[d]);
  }

  /// True if `p` lies inside the box.
  bool contains(const Index& p) const {
    for (int d = 0; d < kMaxDims; ++d) {
      if (p[d] < lo[d] || p[d] >= hi[d]) return false;
    }
    return true;
  }

  /// True if `other` is fully inside this box.
  bool contains(const Box& other) const {
    if (other.empty()) return true;
    for (int d = 0; d < kMaxDims; ++d) {
      if (other.lo[d] < lo[d] || other.hi[d] > hi[d]) return false;
    }
    return true;
  }

  /// Intersection (possibly empty).
  Box intersect(const Box& other) const {
    Box out;
    for (int d = 0; d < kMaxDims; ++d) {
      out.lo[d] = std::max(lo[d], other.lo[d]);
      out.hi[d] = std::min(hi[d], other.hi[d]);
    }
    return out;
  }

  /// Box grown by `amount` cells on face (d, dir); negative shrinks.
  Box grown(const Face& face, std::int64_t amount) const {
    SCL_DCHECK(face.dim >= 0 && face.dim < kMaxDims, "bad face dim");
    Box out = *this;
    if (face.dir < 0) {
      out.lo[face.dim] -= amount;
    } else {
      out.hi[face.dim] += amount;
    }
    return out;
  }

  /// Box grown by `amount` on every face of the first `dims` dimensions.
  Box grown_all(int dims, std::int64_t amount) const;

  /// Box shrunk so that reading at `off` from any contained cell stays
  /// inside this box: {x : x + off in *this}.
  Box shifted_back(const Offset& off) const;

  /// The strip of `width` cells of this box adjacent to face (d, dir),
  /// inside the box. E.g. width=1, dir=-1 gives the low boundary layer.
  Box boundary_strip(const Face& face, std::int64_t width) const;

  /// The strip of `width` cells just outside this box across face (d, dir)
  /// (the halo region a neighbor fills).
  Box halo_strip(const Face& face, std::int64_t width) const;

  std::string to_string() const;

  friend bool operator==(const Box&, const Box&) = default;
};

/// Linear index of `p` relative to `box` in row-major (last dim fastest)
/// order. Precondition: box.contains(p).
std::int64_t linear_index(const Box& box, const Index& p);

/// Calls `fn(Index)` for every cell of `box` in row-major order.
template <typename Fn>
void for_each_cell(const Box& box, Fn&& fn) {
  if (box.empty()) return;
  Index p;
  for (p[0] = box.lo[0]; p[0] < box.hi[0]; ++p[0]) {
    for (p[1] = box.lo[1]; p[1] < box.hi[1]; ++p[1]) {
      for (p[2] = box.lo[2]; p[2] < box.hi[2]; ++p[2]) {
        fn(p);
      }
    }
  }
}

/// p + off, dimension-wise.
inline Index offset_index(const Index& p, const Offset& off) {
  return Index{p[0] + off[0], p[1] + off[1], p[2] + off[2]};
}

}  // namespace scl::stencil
