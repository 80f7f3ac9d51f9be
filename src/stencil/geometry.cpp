#include "stencil/geometry.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace scl::stencil {

std::array<Face, 2 * kMaxDims> all_faces() {
  return {Face{0, -1}, Face{0, +1}, Face{1, -1},
          Face{1, +1}, Face{2, -1}, Face{2, +1}};
}

Box Box::from_extents(int dims, const std::array<std::int64_t, 3>& extents) {
  SCL_CHECK(dims >= 1 && dims <= kMaxDims, "dims must be 1..3");
  Box box;
  for (int d = 0; d < kMaxDims; ++d) {
    box.lo[d] = 0;
    if (d < dims) {
      SCL_CHECK(extents[d] > 0, "extent must be positive");
      box.hi[d] = extents[d];
    } else {
      box.hi[d] = 1;
    }
  }
  return box;
}

Box Box::grown_all(int dims, std::int64_t amount) const {
  Box out = *this;
  for (int d = 0; d < dims; ++d) {
    out.lo[d] -= amount;
    out.hi[d] += amount;
  }
  return out;
}

Box Box::shifted_back(const Offset& off) const {
  Box out = *this;
  for (int d = 0; d < kMaxDims; ++d) {
    out.lo[d] -= off[d];
    out.hi[d] -= off[d];
  }
  return out;
}

Box Box::boundary_strip(const Face& face, std::int64_t width) const {
  Box out = *this;
  if (face.dir < 0) {
    out.hi[face.dim] = std::min(out.hi[face.dim], lo[face.dim] + width);
  } else {
    out.lo[face.dim] = std::max(out.lo[face.dim], hi[face.dim] - width);
  }
  return out;
}

Box Box::halo_strip(const Face& face, std::int64_t width) const {
  Box out = *this;
  if (face.dir < 0) {
    out.hi[face.dim] = lo[face.dim];
    out.lo[face.dim] = lo[face.dim] - width;
  } else {
    out.lo[face.dim] = hi[face.dim];
    out.hi[face.dim] = hi[face.dim] + width;
  }
  return out;
}

std::string Box::to_string() const {
  return str_cat("[", lo[0], ",", hi[0], ")x[", lo[1], ",", hi[1], ")x[",
                 lo[2], ",", hi[2], ")");
}

std::int64_t linear_index(const Box& box, const Index& p) {
  SCL_DCHECK(box.contains(p), "index outside box");
  const std::int64_t e1 = box.hi[1] - box.lo[1];
  const std::int64_t e2 = box.hi[2] - box.lo[2];
  return ((p[0] - box.lo[0]) * e1 + (p[1] - box.lo[1])) * e2 +
         (p[2] - box.lo[2]);
}

}  // namespace scl::stencil
