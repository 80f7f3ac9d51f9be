#include "stencil/program.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::stencil {

namespace {

SideRadii zero_radii() {
  SideRadii r{};
  for (auto& dim : r) dim = {0, 0};
  return r;
}

SideRadii max_radii(const SideRadii& a, const SideRadii& b) {
  SideRadii out{};
  for (std::size_t d = 0; d < kMaxDims; ++d) {
    out[d][0] = std::max(a[d][0], b[d][0]);
    out[d][1] = std::max(a[d][1], b[d][1]);
  }
  return out;
}

/// Radii needed to read at `off`: reading x+off from cell x pulls the
/// low side when off is negative and the high side when positive.
SideRadii offset_radii(const Offset& off) {
  SideRadii out = zero_radii();
  for (std::size_t d = 0; d < kMaxDims; ++d) {
    if (off[d] < 0) out[d][0] = -off[d];
    if (off[d] > 0) out[d][1] = off[d];
  }
  return out;
}

SideRadii add_radii(const SideRadii& a, const SideRadii& b) {
  SideRadii out{};
  for (std::size_t d = 0; d < kMaxDims; ++d) {
    out[d][0] = a[d][0] + b[d][0];
    out[d][1] = a[d][1] + b[d][1];
  }
  return out;
}

bool is_axis_aligned(const Offset& off) {
  int nonzero = 0;
  for (int d = 0; d < kMaxDims; ++d) {
    if (off[d] != 0) ++nonzero;
  }
  return nonzero <= 1;
}

}  // namespace

StencilProgram::StencilProgram(std::string name, int dims,
                               std::array<std::int64_t, 3> extents,
                               std::int64_t iterations,
                               std::vector<Field> fields,
                               std::vector<Stage> stages)
    : name_(std::move(name)),
      dims_(dims),
      grid_box_(Box::from_extents(dims, extents)),
      iterations_(iterations),
      fields_(std::move(fields)),
      stages_(std::move(stages)) {
  if (iterations_ <= 0) throw Error("program needs a positive iteration count");
  if (fields_.empty()) throw Error("program needs at least one field");
  if (stages_.empty()) throw Error("program needs at least one stage");

  writing_stage_.assign(fields_.size(), -1);
  for (int s = 0; s < stage_count(); ++s) {
    const Stage& st = stages_[static_cast<std::size_t>(s)];
    if (st.output_field < 0 || st.output_field >= field_count()) {
      throw Error(str_cat("stage '", st.name, "' writes unknown field ",
                          st.output_field));
    }
    if (!st.update) {
      throw Error(str_cat("stage '", st.name, "' has no update function"));
    }
    int& writer = writing_stage_[static_cast<std::size_t>(st.output_field)];
    if (writer >= 0) {
      throw Error(str_cat("field '",
                          fields_[static_cast<std::size_t>(st.output_field)].name,
                          "' is written by more than one stage"));
    }
    writer = s;
    for (const ReadAccess& read : st.reads) {
      if (read.field < 0 || read.field >= field_count()) {
        throw Error(str_cat("stage '", st.name, "' reads unknown field ",
                            read.field));
      }
      if (!is_axis_aligned(read.offset)) {
        throw Error(str_cat(
            "stage '", st.name,
            "' uses a diagonal offset; the pipe topology only connects "
            "face-adjacent tiles (axis-aligned shapes only)"));
      }
      for (int d = dims_; d < kMaxDims; ++d) {
        if (read.offset[d] != 0) {
          throw Error(str_cat("stage '", st.name,
                              "' reads beyond the program dimensionality"));
        }
      }
    }
  }

  // Per-stage read radii, per-field read radii, double-buffer requirements.
  stage_radii_.reserve(stages_.size());
  double_buffered_.reserve(stages_.size());
  field_read_radii_.assign(fields_.size(), zero_radii());
  max_stage_radii_ = zero_radii();
  for (const Stage& st : stages_) {
    SideRadii radii = zero_radii();
    bool shadow = false;
    for (const ReadAccess& read : st.reads) {
      const SideRadii r = offset_radii(read.offset);
      radii = max_radii(radii, r);
      auto& frr = field_read_radii_[static_cast<std::size_t>(read.field)];
      frr = max_radii(frr, r);
      if (read.field == st.output_field && read.offset != Offset{0, 0, 0}) {
        shadow = true;
      }
    }
    stage_radii_.push_back(radii);
    double_buffered_.push_back(shadow);
    max_stage_radii_ = max_radii(max_stage_radii_, radii);
  }

  // Per-iteration cone radius: propagate validity shrinkage through the
  // stage sequence. s[f] is how far field f's latest version has shrunk
  // relative to the data valid at the start of the iteration.
  std::vector<SideRadii> shrink(fields_.size(), zero_radii());
  stage_shrink_.reserve(stages_.size());
  for (int s = 0; s < stage_count(); ++s) {
    const Stage& st = stages_[static_cast<std::size_t>(s)];
    SideRadii out = zero_radii();
    for (const ReadAccess& read : st.reads) {
      out = max_radii(out, add_radii(shrink[static_cast<std::size_t>(read.field)],
                                     offset_radii(read.offset)));
    }
    shrink[static_cast<std::size_t>(st.output_field)] = out;
    stage_shrink_.push_back(out);
  }
  iter_radii_ = zero_radii();
  for (int f = 0; f < field_count(); ++f) {
    if (!is_constant_field(f)) {
      iter_radii_ = max_radii(iter_radii_, shrink[static_cast<std::size_t>(f)]);
    }
  }

  // Updatable region per field: the grid inset by its writer's read radii
  // (empty for constant fields, which are never updated).
  updated_boxes_.assign(fields_.size(), Box{});
  for (int f = 0; f < field_count(); ++f) {
    const int s = writing_stage(f);
    if (s < 0) continue;
    const SideRadii& radii = stage_radii_[static_cast<std::size_t>(s)];
    Box& box = updated_boxes_[static_cast<std::size_t>(f)];
    box = grid_box_;
    for (int d = 0; d < dims_; ++d) {
      box.lo[d] += radii[static_cast<std::size_t>(d)][0];
      box.hi[d] -= radii[static_cast<std::size_t>(d)][1];
    }
  }
}

std::int64_t StencilProgram::max_radius() const {
  std::int64_t r = 0;
  for (int d = 0; d < dims_; ++d) {
    r = std::max({r, iter_radii_[static_cast<std::size_t>(d)][0],
                  iter_radii_[static_cast<std::size_t>(d)][1]});
  }
  return r;
}

OpCounts StencilProgram::ops_per_cell() const {
  OpCounts total;
  for (const Stage& st : stages_) total = total + st.ops;
  return total;
}

std::int64_t StencilProgram::mutable_field_count() const {
  std::int64_t count = 0;
  for (int f = 0; f < field_count(); ++f) {
    if (!is_constant_field(f)) ++count;
  }
  return count;
}

}  // namespace scl::stencil
