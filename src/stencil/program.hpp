// StencilProgram: the framework's input language.
//
// An iterative stencil algorithm is described as a set of named scalar
// fields plus an ordered list of update stages executed once per time
// iteration. Each stage writes one output field at every cell of its
// updatable region, reading a fixed pattern of (field, offset) neighbors.
// This covers the whole paper suite: Jacobi-style single-field kernels are
// one double-buffered stage; FDTD is three sequential in-place stages over
// three fields; HotSpot reads an additional constant (never-written) field.
//
// From the declarative description the class derives everything the tiling
// designs and the analytical model need: per-stage read radii, the
// per-iteration cone expansion radius (the paper's `Δw_d`), which stages
// need double buffering, per-element operation counts, and each field's
// updatable region (cells outside it are Dirichlet boundary, held constant).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stencil/geometry.hpp"

namespace scl::stencil {

class Formula;

/// One neighbor access of a stage: field index + relative offset.
struct ReadAccess {
  int field = 0;
  Offset offset{0, 0, 0};
};

/// Floating-point operation counts of one stage applied to one cell.
/// These feed the HLS initiation-interval estimator and the DSP model.
struct OpCounts {
  int adds = 0;
  int muls = 0;
  int divs = 0;

  int total() const { return adds + muls + divs; }

  OpCounts operator+(const OpCounts& o) const {
    return {adds + o.adds, muls + o.muls, divs + o.divs};
  }
};

/// Executor-provided view of the neighborhood of the cell being updated.
/// `read` returns the latest committed value of `field` at the given
/// relative offset (committed = as of the end of the previous stage).
class CellReader {
 public:
  virtual ~CellReader() = default;
  virtual float read(int field, const Offset& off) const = 0;
};

using UpdateFn = std::function<float(const CellReader&)>;

/// Per-dimension, per-side non-negative radii. radii[d][0] is toward the
/// low side of dimension d, radii[d][1] toward the high side.
using SideRadii = std::array<std::array<std::int64_t, 2>, kMaxDims>;

/// One update stage of the iteration.
struct Stage {
  std::string name;
  int output_field = 0;
  std::vector<ReadAccess> reads;
  UpdateFn update;
  OpCounts ops;
  /// Symbolic form of the update (set when built via make_stage); the
  /// OpenCL code generator requires it.
  std::shared_ptr<const Formula> formula;
};

/// Seeds a field's initial condition; must be deterministic in the cell
/// index so every executor starts from identical data.
using InitFn = std::function<float(const Index&)>;

/// Declaration of one scalar field.
struct Field {
  std::string name;
  InitFn init;
  /// Textual initializer spec (e.g. "affine 3 5 0 2 97") when the field
  /// was built via make_field()/the parser; enables round-tripping the
  /// program through the `.stencil` format. Empty for custom lambdas.
  std::string init_spec;
};

class StencilProgram {
 public:
  /// Builds and validates a program. Throws scl::Error when:
  /// stages are empty, a field is written by more than one stage, a read
  /// names an unknown field, or an offset has more than one non-zero
  /// component (the pipe topology only connects face-adjacent tiles, so the
  /// framework is restricted to axis-aligned "von Neumann" shapes — the same
  /// restriction the paper's Figure 1(c) pipe layout implies).
  StencilProgram(std::string name, int dims,
                 std::array<std::int64_t, 3> extents, std::int64_t iterations,
                 std::vector<Field> fields, std::vector<Stage> stages);

  const std::string& name() const { return name_; }
  int dims() const { return dims_; }
  /// Full grid box, [0, W_d) per active dimension.
  const Box& grid_box() const { return grid_box_; }
  /// Total iteration count H from the benchmark definition.
  std::int64_t iterations() const { return iterations_; }

  int field_count() const { return static_cast<int>(fields_.size()); }
  const Field& field(int f) const { return fields_.at(static_cast<std::size_t>(f)); }
  int stage_count() const { return static_cast<int>(stages_.size()); }
  const Stage& stage(int s) const { return stages_.at(static_cast<std::size_t>(s)); }
  const std::vector<Stage>& stages() const { return stages_; }

  /// Index of the stage writing field `f`, or -1 if `f` is constant.
  int writing_stage(int f) const { return writing_stage_.at(static_cast<std::size_t>(f)); }
  bool is_constant_field(int f) const { return writing_stage(f) < 0; }

  /// True if stage `s` reads its own output field at a non-zero offset and
  /// therefore must write through a shadow buffer swapped after the stage.
  bool stage_needs_double_buffer(int s) const {
    return double_buffered_.at(static_cast<std::size_t>(s));
  }

  /// Max |offset| of stage `s`'s reads toward each side of each dimension.
  const SideRadii& stage_radii(int s) const {
    return stage_radii_.at(static_cast<std::size_t>(s));
  }

  /// Validity shrinkage of stage `s`'s output within one iteration: how far
  /// the freshly-written field has shrunk relative to the data valid at the
  /// iteration's start. iter_radii() is the max of these over all mutable
  /// fields; the code generator uses the per-stage values to size the
  /// per-stage cone bounds (a stage whose output shrinks less than the
  /// iteration radius must be computed correspondingly wider so later
  /// stages can consume it).
  const SideRadii& stage_shrink(int s) const {
    return stage_shrink_.at(static_cast<std::size_t>(s));
  }

  /// Cone expansion per fused iteration: how far field validity shrinks per
  /// dimension/side when one full iteration executes (validity-propagation
  /// closure over the stage sequence).
  const SideRadii& iter_radii() const { return iter_radii_; }

  /// Max |offset| with which *any* stage reads field `f`, per
  /// dimension/side. Determines how wide a halo of `f` a tile must hold
  /// (and how wide the pipe strips for `f` are). All zero for fields only
  /// read at offset 0.
  const SideRadii& field_read_radii(int f) const {
    return field_read_radii_.at(static_cast<std::size_t>(f));
  }

  /// Component-wise max of all stages' read radii (the widest halo any
  /// field needs).
  const SideRadii& max_stage_radii() const { return max_stage_radii_; }

  /// The paper's Δw_d: total tile growth along dimension d per fused
  /// iteration (low-side + high-side radius).
  std::int64_t delta_w(int d) const {
    return iter_radii_[static_cast<std::size_t>(d)][0] +
           iter_radii_[static_cast<std::size_t>(d)][1];
  }

  /// Max radius over all dimensions and sides.
  std::int64_t max_radius() const;

  /// Region of the grid whose cells are ever written by field `f`'s stage
  /// (the grid box shrunk by that stage's read radii). Cells outside it are
  /// Dirichlet boundary: they keep their initial value forever. For constant
  /// fields this is empty. Computed once when the program is built.
  const Box& updated_box(int f) const {
    return updated_boxes_.at(static_cast<std::size_t>(f));
  }

  /// Total floating-point op counts of one full iteration applied to one
  /// cell (summed over stages).
  OpCounts ops_per_cell() const;

  /// Bytes of one cell of one field (the paper's Δs; all fields are float).
  static constexpr std::int64_t element_bytes() { return 4; }

  /// Bytes a tile of `box` cells must move per field set for a read
  /// (all fields) and write (non-constant fields only).
  std::int64_t fields_total() const { return field_count(); }
  std::int64_t mutable_field_count() const;

 private:
  std::string name_;
  int dims_;
  Box grid_box_;
  std::int64_t iterations_;
  std::vector<Field> fields_;
  std::vector<Stage> stages_;
  std::vector<int> writing_stage_;
  std::vector<bool> double_buffered_;
  std::vector<SideRadii> stage_radii_;
  std::vector<SideRadii> stage_shrink_;
  std::vector<SideRadii> field_read_radii_;
  std::vector<Box> updated_boxes_;
  SideRadii iter_radii_;
  SideRadii max_stage_radii_;
};

}  // namespace scl::stencil
