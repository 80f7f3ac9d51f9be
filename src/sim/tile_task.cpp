#include "sim/tile_task.hpp"

#include <algorithm>
#include <cmath>

#include "stencil/reference.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::sim {

using scl::stencil::Box;
using scl::stencil::Face;
using scl::stencil::FieldSet;
using scl::stencil::Grid;
using scl::stencil::Index;
using scl::stencil::Stage;
using scl::stencil::StencilProgram;

Box extended_tile_box(const StencilProgram& program,
                      const TilePlacement& placement, std::int64_t h,
                      std::int64_t i) {
  Box box = placement.box;
  const std::int64_t remaining = h - i;
  for (int d = 0; d < program.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      if (!placement.exterior[ds][static_cast<std::size_t>(side)]) continue;
      const Face face{d, side == 0 ? -1 : +1};
      box = box.grown(
          face, program.iter_radii()[ds][static_cast<std::size_t>(side)] *
                    remaining);
    }
  }
  return box.intersect(program.grid_box());
}

namespace {

/// The strip of field `f` that crosses `face` into the receiver's halo:
/// the halo of the field's read width, clipped to the sender's extended
/// box (both extended boxes taken at the same fused iteration).
Box strip_box(const StencilProgram& program, const Box& receiver_extended,
              const Box& sender_extended, const Face& face, int f) {
  const std::int64_t width =
      program.field_read_radii(f)[static_cast<std::size_t>(face.dim)]
                                 [face.dir < 0 ? 0 : 1];
  if (width == 0) return Box{};
  return receiver_extended.halo_strip(face, width).intersect(sender_extended);
}

/// True if the strip of `field` written by `stage` in fused iteration
/// `iter` (of `h`) is ever read from a halo on `halo_side` (0 = low,
/// 1 = high) of dimension `d`: always before the last iteration, else only
/// if a later stage reads the field toward that side. Pipes therefore
/// never accumulate strips nobody reads.
bool strip_is_consumed(const StencilProgram& program, int field, int d,
                       int halo_side, int stage, std::int64_t iter,
                       std::int64_t h) {
  if (iter < h) return true;  // next iteration reads it
  for (int s = stage + 1; s < program.stage_count(); ++s) {
    for (const auto& read : program.stage(s).reads) {
      if (read.field != field) continue;
      const int off = read.offset[static_cast<std::size_t>(d)];
      if ((halo_side == 0 && off < 0) || (halo_side == 1 && off > 0)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Box halo_strip_box(const StencilProgram& program,
                   const TilePlacement& receiver, const TilePlacement& sender,
                   const Face& face, int f, std::int64_t h, std::int64_t i) {
  return strip_box(program, extended_tile_box(program, receiver, h, i),
                   extended_tile_box(program, sender, h, i), face, f);
}

std::vector<Box> extended_tile_boxes(const StencilProgram& program,
                                     const TilePlacement& placement,
                                     std::int64_t h) {
  std::vector<Box> boxes;
  boxes.reserve(static_cast<std::size_t>(h + 1));
  for (std::int64_t i = 0; i <= h; ++i) {
    boxes.push_back(extended_tile_box(program, placement, h, i));
  }
  return boxes;
}

std::vector<StripSpec> pipe_strip_schedule(
    const StencilProgram& program, const std::vector<Box>& receiver_extended,
    const std::vector<Box>& sender_extended, const Face& face,
    std::int64_t h) {
  SCL_CHECK(static_cast<std::int64_t>(receiver_extended.size()) == h + 1 &&
                static_cast<std::int64_t>(sender_extended.size()) == h + 1,
            "strip schedule needs both tiles' extended boxes");
  const int halo_side = face.dir < 0 ? 0 : 1;
  std::vector<StripSpec> strips;
  for (std::int64_t i = 1; i <= h; ++i) {
    const auto is = static_cast<std::size_t>(i);
    for (int s = 0; s < program.stage_count(); ++s) {
      const int f = program.stage(s).output_field;
      if (!strip_is_consumed(program, f, face.dim, halo_side, s, i, h)) {
        continue;
      }
      const Box box = strip_box(program, receiver_extended[is],
                                sender_extended[is], face, f);
      if (!box.empty()) strips.push_back(StripSpec{{i, s}, f, box});
    }
  }
  return strips;
}

std::int64_t max_face_strip_elements(const StencilProgram& program,
                                     const TilePlacement& a,
                                     const TilePlacement& b, const Face& face,
                                     std::int64_t h) {
  return max_face_strip_elements(program, extended_tile_box(program, a, h, 1),
                                 extended_tile_box(program, b, h, 1), face);
}

std::int64_t max_face_strip_elements(const StencilProgram& program,
                                     const Box& a_extended,
                                     const Box& b_extended,
                                     const Face& face) {
  // A directed pipe can hold strips of every mutable field of the current
  // iteration plus deferred strips of the previous one while the consumer
  // works ahead of its apply points; the FIFO must hold them all or the
  // producer backpressures every stage.
  std::int64_t per_iteration = 0;
  const Face mirrored{face.dim, -face.dir};
  for (int f = 0; f < program.field_count(); ++f) {
    if (program.is_constant_field(f)) continue;
    per_iteration += std::max(
        strip_box(program, a_extended, b_extended, face, f).volume(),
        strip_box(program, b_extended, a_extended, mirrored, f).volume());
  }
  return 2 * per_iteration;
}

TileTask::TileTask(TileTaskParams params) : params_(std::move(params)) {
  SCL_CHECK(params_.program != nullptr, "tile task needs a program");
  SCL_CHECK(params_.memory != nullptr, "tile task needs a memory channel");
  SCL_CHECK(params_.fused_iterations >= 1, "pass needs >= 1 iterations");
  const TilePlacement& tile = params_.tile;
  if (tile.box.empty()) {
    // Remainder regions can leave trailing tiles without cells; the kernel
    // is still enqueued (and charged its launch slot) but does nothing.
    clock_ = params_.launch_offset;
    phases_.launch = params_.launch_offset;
    state_ = State::kDone;
    return;
  }

  const StencilProgram& prog = program();
  buffer_box_ = tile.box;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      const Face face{d, side == 0 ? -1 : +1};
      const std::int64_t margin =
          face_is_shared(d, side)
              ? prog.max_stage_radii()[ds][static_cast<std::size_t>(side)]
              : prog.iter_radii()[ds][static_cast<std::size_t>(side)] *
                    params_.fused_iterations;
      buffer_box_ = buffer_box_.grown(face, margin);
    }
  }
  buffer_box_ = buffer_box_.intersect(prog.grid_box());
  valid_.assign(static_cast<std::size_t>(prog.field_count()), Box{});
  SCL_CHECK(static_cast<std::int64_t>(params_.extended.size()) ==
                params_.fused_iterations + 1,
            "tile task needs its extended box per fused iteration");

  const bool functional = params_.mode == SimMode::kFunctional;
  if (functional) {
    SCL_CHECK(params_.global_in != nullptr && params_.global_out != nullptr,
              "functional mode needs global field sets");
  }
  // Size every per-step container up front so timing-only steps never
  // allocate.
  dependent_boxes_.reserve(2 * static_cast<std::size_t>(prog.dims()));
  sends_.reserve(2 * static_cast<std::size_t>(prog.dims()));
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (std::size_t side = 0; side < 2; ++side) {
      const PipeChannel* in = params_.in_pipes[ds][side];
      if (in == nullptr) continue;
      Inbox& inbox = inboxes_[ds][side];
      inbox.ready_clock.assign(in->strips.size(), 0);
      if (functional) inbox.data.resize(in->strips.size());
    }
  }
}

const std::string& TileTask::name() const {
  if (name_.empty()) {
    const TilePlacement& tile = params_.tile;
    name_ = str_cat("tile(", tile.coord[0], ",", tile.coord[1], ",",
                    tile.coord[2], ")");
  }
  return name_;
}

Box TileTask::compute_box(int stage, std::int64_t i) const {
  const StencilProgram& prog = program();
  const Stage& st = prog.stage(stage);
  Box c = prog.updated_box(st.output_field);
  const TilePlacement& tile = params_.tile;

  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      if (face_is_shared(d, side)) {
        // Pipes provide the halo: compute exactly up to the tile edge.
        if (side == 0) {
          c.lo[ds] = std::max(c.lo[ds], tile.box.lo[ds]);
        } else {
          c.hi[ds] = std::min(c.hi[ds], tile.box.hi[ds]);
        }
        continue;
      }
      // Region-exterior face: extend as far as every read field's validity
      // allows. Once validity reaches the Dirichlet region (whose cells
      // never change) the margin is pinned and stops shrinking.
      for (const auto& read : st.reads) {
        if (prog.is_constant_field(read.field)) continue;
        const Box& v = valid_[static_cast<std::size_t>(read.field)];
        const Box& ub = prog.updated_box(read.field);
        if (side == 0) {
          const std::int64_t shift =
              std::max<std::int64_t>(0, -read.offset[ds]);
          if (v.lo[ds] > ub.lo[ds]) {
            c.lo[ds] = std::max(c.lo[ds], v.lo[ds] + shift);
          }
        } else {
          const std::int64_t shift =
              std::max<std::int64_t>(0, read.offset[ds]);
          if (v.hi[ds] < ub.hi[ds]) {
            c.hi[ds] = std::min(c.hi[ds], v.hi[ds] - shift);
          }
        }
      }
    }
  }
  // Bound the cone by what the final output can still depend on: the
  // extended box of the previous iteration (this is the loop bound a
  // generated kernel would use; without it, multi-stage programs with
  // lazily-shrinking fields would compute far-out scratch cells that
  // cannot influence the owned result). The baseline design treats every
  // face as exterior (the executor sets the placement flags accordingly),
  // so the extended boxes grow exactly the faces that are not shared.
  return c.intersect(params_.extended[static_cast<std::size_t>(i - 1)]);
}

void TileTask::split_compute_box(int stage, const Box& c, Box* independent,
                                 std::vector<Box>* dependent) const {
  const StencilProgram& prog = program();
  const auto& radii = prog.stage_radii(stage);
  Box rem = c;
  dependent->clear();
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      if (!face_is_shared(d, side)) continue;
      const std::int64_t rho = radii[ds][static_cast<std::size_t>(side)];
      if (rho == 0 || rem.empty()) continue;
      Box strip = rem;
      if (side == 0) {
        const std::int64_t cut =
            std::min(rem.hi[ds], params_.tile.box.lo[ds] + rho);
        if (cut <= rem.lo[ds]) continue;
        strip.hi[ds] = cut;
        rem.lo[ds] = cut;
      } else {
        const std::int64_t cut =
            std::max(rem.lo[ds], params_.tile.box.hi[ds] - rho);
        if (cut >= rem.hi[ds]) continue;
        strip.lo[ds] = cut;
        rem.hi[ds] = cut;
      }
      if (!strip.empty()) dependent->push_back(strip);
    }
  }
  *independent = rem;
}

void TileTask::record(std::string_view phase, std::int64_t begin) {
  if (tracing() && clock_ > begin) {
    params_.trace->push_back(
        TraceEvent{name(), std::string(phase), begin, clock_});
  }
}

std::int64_t TileTask::charge_compute(const Box& box, bool with_depth) {
  const std::int64_t cells = box.volume();
  if (cells == 0) return 0;
  const auto ss = static_cast<std::size_t>(stage_);
  const std::int64_t own = box.intersect(params_.tile.box).volume();
  const std::int64_t cycles =
      static_cast<std::int64_t>(
          std::ceil(static_cast<double>(cells) *
                    params_.stage_cycles_per_element.at(ss))) +
      (with_depth ? params_.stage_depth.at(ss) : 0);
  clock_ += cycles;
  const std::int64_t own_cycles = static_cast<std::int64_t>(
      std::llround(static_cast<double>(cycles) * static_cast<double>(own) /
                   static_cast<double>(cells)));
  phases_.compute_own += own_cycles;
  phases_.compute_redundant += cycles - own_cycles;
  cells_owned_ += own;
  cells_redundant_ += cells - own;
  if (tracing()) {
    record(str_cat("compute s", stage_, " it", iter_), clock_ - cycles);
  }
  return cycles;
}

void TileTask::evaluate_chunk(const Box& chunk) {
  if (params_.mode != SimMode::kFunctional || chunk.empty()) return;
  const StencilProgram& prog = program();
  const Stage& st = prog.stage(stage_);
  FieldSet& fields = *fields_;
  Grid<float>& out = fields[static_cast<std::size_t>(st.output_field)];
  if (prog.stage_needs_double_buffer(stage_)) {
    if (!shadow_.has_value()) shadow_.emplace(buffer_box_);
    Grid<float>& shadow = *shadow_;
    scl::stencil::evaluate_stage(
        prog, stage_, fields, chunk,
        [&](const Index& p, float v) { shadow.at(p) = v; });
  } else {
    scl::stencil::evaluate_stage(
        prog, stage_, fields, chunk,
        [&](const Index& p, float v) { out.at(p) = v; });
  }
}

void TileTask::commit_stage_output() {
  const StencilProgram& prog = program();
  if (params_.mode == SimMode::kFunctional &&
      prog.stage_needs_double_buffer(stage_) && !current_box_.empty()) {
    (*fields_)[static_cast<std::size_t>(prog.stage(stage_).output_field)]
        .copy_box_from(*shadow_, current_box_);
  }
  valid_[static_cast<std::size_t>(prog.stage(stage_).output_field)] =
      current_box_;
}

void TileTask::do_launch() {
  clock_ = params_.launch_offset;
  phases_.launch = params_.launch_offset;
  record("launch", 0);
  state_ = State::kRead;
}

void TileTask::do_read() {
  const StencilProgram& prog = program();
  if (params_.mode == SimMode::kFunctional) {
    FieldSet fields;
    fields.reserve(static_cast<std::size_t>(prog.field_count()));
    for (int f = 0; f < prog.field_count(); ++f) {
      Grid<float> g(buffer_box_);
      g.copy_box_from((*params_.global_in)[static_cast<std::size_t>(f)],
                      buffer_box_);
      fields.push_back(std::move(g));
    }
    fields_ = std::move(fields);
  }
  for (Box& v : valid_) v = buffer_box_;

  const std::int64_t bytes = prog.field_count() * buffer_box_.volume() *
                             StencilProgram::element_bytes();
  const std::int64_t cycles =
      params_.memory->transfer_cycles(bytes, params_.memory_sharers);
  params_.memory->record_transfer(bytes);
  clock_ += cycles;
  phases_.mem_read += cycles;
  record("mem_read", clock_ - cycles);
  state_ = State::kStageIndependent;
}

void TileTask::do_stage_independent() {
  const StencilProgram& prog = program();
  current_box_ = compute_box(stage_, iter_);
  split_compute_box(stage_, current_box_, &independent_box_,
                    &dependent_boxes_);

  // Expect the strips the neighbors send for this (iteration, stage), so
  // FIFO drains have a place to land.
  const StripKey key{iter_, stage_};
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (std::size_t side = 0; side < 2; ++side) {
      const PipeChannel* in = params_.in_pipes[ds][side];
      if (in == nullptr || !face_is_shared(d, static_cast<int>(side))) {
        continue;
      }
      Inbox& inbox = inboxes_[ds][side];
      if (inbox.expected < in->strips.size() &&
          in->strips[inbox.expected].key == key) {
        ++inbox.expected;
      }
    }
  }

  const std::int64_t indep_cycles =
      charge_compute(independent_box_, /*with_depth=*/true);
  overlap_budget_ = params_.latency_hiding ? indep_cycles : 0;
  evaluate_chunk(independent_box_);
  state_ = State::kApplyHalo;
}

void TileTask::drain_face(int d, int side) {
  const auto ds = static_cast<std::size_t>(d);
  const auto ss = static_cast<std::size_t>(side);
  PipeChannel* in = params_.in_pipes[ds][ss];
  if (in == nullptr) return;
  ocl::Pipe& pipe = in->pipe;
  Inbox& inbox = inboxes_[ds][ss];
  while (inbox.drained < inbox.expected && pipe.size() > 0) {
    const std::size_t k = inbox.drained;
    const std::int64_t volume = in->strips[k].box.volume();
    const std::int64_t take = std::min(pipe.size(), volume - inbox.progress);
    // Drain with the current clock but do not advance it: the kernel is
    // not waiting here. The availability time is remembered and charged
    // when the strip is applied.
    if (params_.mode == SimMode::kFunctional) {
      const auto r = pipe.read(take, clock_);
      inbox.ready_clock[k] = std::max(inbox.ready_clock[k], r.reader_clock);
      inbox.data[k].insert(inbox.data[k].end(), r.values.begin(),
                           r.values.end());
    } else {
      const auto r = pipe.read_counted(take, clock_);
      inbox.ready_clock[k] = std::max(inbox.ready_clock[k], r.reader_clock);
    }
    inbox.progress += take;
    if (inbox.progress == volume) {
      ++inbox.drained;
      inbox.progress = 0;
    }
  }
}

std::optional<StripKey> TileTask::needed_key(int d, int side) const {
  const StencilProgram& prog = program();
  const Stage& st = prog.stage(stage_);
  std::optional<StripKey> needed;
  for (const auto& read : st.reads) {
    if (prog.is_constant_field(read.field)) continue;
    const int off = read.offset[static_cast<std::size_t>(d)];
    if ((side == 0 && off >= 0) || (side == 1 && off <= 0)) continue;
    const int writer = prog.writing_stage(read.field);
    StripKey key = writer < stage_ ? StripKey{iter_, writer}
                                   : StripKey{iter_ - 1, writer};
    if (key.iter < 1) continue;  // pre-pass halo came with the global read
    if (!needed.has_value() || *needed < key) needed = key;
  }
  return needed;
}

bool TileTask::do_apply_halo() {
  const StencilProgram& prog = program();
  bool progressed = false;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      const PipeChannel* in = params_.in_pipes[ds][static_cast<std::size_t>(side)];
      if (in == nullptr || !face_is_shared(d, side)) continue;
      const std::optional<StripKey> needed = needed_key(d, side);
      if (!needed.has_value()) continue;
      Inbox& inbox = inboxes_[ds][static_cast<std::size_t>(side)];
      while (inbox.applied < inbox.expected &&
             in->strips[inbox.applied].key <= *needed) {
        if (inbox.applied == inbox.drained) {
          const std::size_t drained = inbox.drained;
          const std::int64_t progress = inbox.progress;
          drain_face(d, side);
          progressed |=
              inbox.drained != drained || inbox.progress != progress;
          if (inbox.applied == inbox.drained) return progressed;
        }
        // Charge the wait: the dependent cells cannot start before the
        // strip's last element arrived.
        const std::int64_t ready = inbox.ready_clock[inbox.applied];
        if (ready > clock_) {
          phases_.pipe_stall += ready - clock_;
          const std::int64_t begin = clock_;
          clock_ = ready;
          record("halo_wait", begin);
        }
        if (params_.mode == SimMode::kFunctional) {
          const StripSpec& strip = in->strips[inbox.applied];
          std::vector<float>& data = inbox.data[inbox.applied];
          (*fields_)[static_cast<std::size_t>(strip.field)].write_box(
              strip.box, data);
          std::vector<float>().swap(data);
        }
        ++inbox.applied;
        progressed = true;
      }
    }
  }
  state_ = State::kStageDependent;
  return true;
}

void TileTask::do_stage_dependent() {
  for (const Box& chunk : dependent_boxes_) {
    charge_compute(chunk, /*with_depth=*/false);
    evaluate_chunk(chunk);
  }
  commit_stage_output();

  // Queue this stage's outgoing boundary strips: the next entry of each
  // out-channel's schedule, when it belongs to this (iteration, stage).
  const StencilProgram& prog = program();
  const StripKey key{iter_, stage_};
  sends_.clear();
  send_cursor_ = 0;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (std::size_t side = 0; side < 2; ++side) {
      if (!face_is_shared(d, static_cast<int>(side))) continue;
      PipeChannel* out = params_.out_pipes[ds][side];
      SCL_CHECK(out != nullptr, "shared face without an outgoing pipe");
      std::size_t& next = send_next_[ds][side];
      if (next >= out->strips.size() || out->strips[next].key != key) {
        continue;
      }
      const StripSpec& strip = out->strips[next++];
      Send send;
      send.channel = out;
      send.volume = strip.box.volume();
      if (params_.mode == SimMode::kFunctional) {
        send.data =
            (*fields_)[static_cast<std::size_t>(strip.field)].read_box(
                strip.box);
      }
      sends_.push_back(std::move(send));
    }
  }
  state_ = State::kSend;
}

bool TileTask::do_send() {
  bool progressed = false;
  while (send_cursor_ < sends_.size()) {
    Send& strip = sends_[send_cursor_];
    ocl::Pipe* pipe = &strip.channel->pipe;
    const auto w =
        params_.mode == SimMode::kFunctional
            ? pipe->write(strip.data, strip.progress, clock_)
            : pipe->write_counted(
                  strip.volume - static_cast<std::int64_t>(strip.progress),
                  clock_);
    if (w.written > 0) {
      progressed = true;
      // Pipe writes interleave with the stage's independent computation
      // (§3.1): the transfer cost is hidden up to that budget, and only
      // the excess — plus any backpressure wait — lands on the clock.
      const std::int64_t charged = w.writer_clock - clock_;
      const std::int64_t ideal = w.written * pipe->cycles_per_element();
      const std::int64_t backpressure =
          std::max<std::int64_t>(0, charged - ideal);
      const std::int64_t hidden = std::min(ideal, overlap_budget_);
      overlap_budget_ -= hidden;
      phases_.pipe_transfer += ideal - hidden;
      phases_.pipe_stall += backpressure;
      clock_ += (ideal - hidden) + backpressure;
      record("pipe_send", clock_ - (ideal - hidden) - backpressure);
      strip.progress += static_cast<std::size_t>(w.written);
    }
    if (static_cast<std::int64_t>(strip.progress) < strip.volume) {
      // FIFO full. Opportunistically drain our own inboxes so the
      // neighbor's symmetric send can complete, then yield.
      const StencilProgram& prog = program();
      for (int d = 0; d < prog.dims(); ++d) {
        for (int side = 0; side < 2; ++side) {
          if (face_is_shared(d, side)) drain_face(d, side);
        }
      }
      return progressed;
    }
    ++send_cursor_;
    progressed = true;
  }
  advance_stage();
  return true;
}

void TileTask::advance_stage() {
  ++stage_;
  if (stage_ >= program().stage_count()) {
    stage_ = 0;
    ++iter_;
    if (iter_ > params_.fused_iterations) {
      state_ = State::kWrite;
      return;
    }
  }
  state_ = State::kStageIndependent;
}

void TileTask::do_write() {
  const StencilProgram& prog = program();
  std::int64_t bytes = 0;
  for (int f = 0; f < prog.field_count(); ++f) {
    if (prog.is_constant_field(f)) continue;
    const Box owned = params_.tile.box.intersect(prog.updated_box(f));
    if (owned.empty()) continue;
    bytes += owned.volume() * StencilProgram::element_bytes();
    if (params_.mode == SimMode::kFunctional) {
      (*params_.global_out)[static_cast<std::size_t>(f)].copy_box_from(
          (*fields_)[static_cast<std::size_t>(f)], owned);
    }
  }
  const std::int64_t cycles =
      params_.memory->transfer_cycles(bytes, params_.memory_sharers);
  params_.memory->record_transfer(bytes);
  clock_ += cycles;
  phases_.mem_write += cycles;
  record("mem_write", clock_ - cycles);
  state_ = State::kDone;
}

TileTask::StepResult TileTask::step() {
  switch (state_) {
    case State::kLaunch:
      do_launch();
      return StepResult::kProgress;
    case State::kRead:
      do_read();
      return StepResult::kProgress;
    case State::kStageIndependent:
      do_stage_independent();
      return StepResult::kProgress;
    case State::kApplyHalo: {
      const bool progressed = do_apply_halo();
      if (state_ != State::kApplyHalo) return StepResult::kProgress;
      return progressed ? StepResult::kProgress : StepResult::kBlocked;
    }
    case State::kStageDependent:
      do_stage_dependent();
      return StepResult::kProgress;
    case State::kSend: {
      const bool progressed = do_send();
      if (state_ != State::kSend) return StepResult::kProgress;
      return progressed ? StepResult::kProgress : StepResult::kBlocked;
    }
    case State::kWrite:
      do_write();
      return StepResult::kProgress;
    case State::kDone:
      return StepResult::kDone;
  }
  return StepResult::kDone;
}

}  // namespace scl::sim
