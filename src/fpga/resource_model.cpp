#include "fpga/resource_model.hpp"

#include "support/error.hpp"
#include "support/math.hpp"

namespace scl::fpga {

using scl::stencil::OpCounts;
using scl::stencil::StencilProgram;

std::int64_t ResourceModel::bram_blocks_for(std::int64_t elements) const {
  SCL_CHECK(elements >= 0, "negative buffer size");
  const std::int64_t bytes = elements * StencilProgram::element_bytes();
  return ceil_div(bytes, DeviceSpec::bram18_bytes);
}

ResourceModel::KernelLogic ResourceModel::kernel_logic(
    const StencilProgram& program) const {
  const OpCounts ops = program.ops_per_cell();
  KernelLogic logic;
  logic.fixed.lut = calib_.lut_kernel_base;
  logic.fixed.ff = calib_.ff_kernel_base;
  logic.per_lane.dsp = ops.adds * calib_.dsp_per_fadd +
                       ops.muls * calib_.dsp_per_fmul +
                       ops.divs * calib_.dsp_per_fdiv;
  logic.per_lane.lut = ops.adds * calib_.lut_per_fadd +
                       ops.muls * calib_.lut_per_fmul +
                       ops.divs * calib_.lut_per_fdiv;
  logic.per_lane.ff = ops.adds * calib_.ff_per_fadd +
                      ops.muls * calib_.ff_per_fmul +
                      ops.divs * calib_.ff_per_fdiv;
  return logic;
}

ResourceVector ResourceModel::per_bram18() const {
  return {calib_.ff_per_bram18, calib_.lut_per_bram18, 0, 1};
}

ResourceVector ResourceModel::estimate_kernel(const StencilProgram& program,
                                              const KernelShape& shape) const {
  SCL_CHECK(shape.unroll >= 1, "unroll must be >= 1");
  SCL_CHECK(shape.pipe_endpoints >= 0, "negative pipe count");
  SCL_CHECK(shape.pipe_fifos >= 0, "negative FIFO count");

  // Local data arrays plus pipe FIFO storage.
  const std::int64_t buffer_brams = bram_blocks_for(shape.local_buffer_elements);
  const std::int64_t pipe_brams =
      shape.pipe_fifos * bram_blocks_for(shape.pipe_depth_elements);

  const KernelLogic logic = kernel_logic(program);
  ResourceVector r = logic.fixed + logic.per_lane * shape.unroll +
                     per_bram18() * (buffer_brams + pipe_brams);
  r.lut += shape.pipe_endpoints * calib_.lut_per_pipe;
  r.ff += shape.pipe_endpoints * calib_.ff_per_pipe;
  return r;
}

}  // namespace scl::fpga
