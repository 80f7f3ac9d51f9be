// Per-kernel FPGA resource estimation, calibrated to Xilinx 7-series.
//
// Reproduces the *relationships* of the paper's Table 3 resource columns:
//   * DSP usage depends only on the datapath (ops-per-element x unroll), so
//     baseline and heterogeneous designs with equal parallelism tie;
//   * BRAM follows the local tile buffers — the baseline stores the whole
//     cone footprint (tile + halo that grows with fused depth h), the
//     heterogeneous design stores only the tile plus small pipe FIFOs;
//   * FF/LUT have a datapath term plus a banking/mux term proportional to
//     BRAM, which is why the paper sees FF/LUT drop alongside BRAM.
#pragma once

#include <cstdint>

#include "fpga/device.hpp"
#include "fpga/resources.hpp"
#include "stencil/program.hpp"

namespace scl::fpga {

/// Everything the estimator needs to size one tile kernel.
struct KernelShape {
  /// Elements of local memory the kernel holds per field set (sum over all
  /// fields, including the shadow copy for double-buffered stages).
  std::int64_t local_buffer_elements = 0;
  /// Loop unroll factor (the paper's N_PE).
  int unroll = 1;
  /// Number of pipe endpoints attached to this kernel (reads + writes);
  /// each costs handshake logic.
  int pipe_endpoints = 0;
  /// FIFOs whose storage is attributed to this kernel (its outgoing
  /// pipes; the consumer side only pays endpoint logic).
  int pipe_fifos = 0;
  /// FIFO depth, in elements, of each attached pipe.
  std::int64_t pipe_depth_elements = 0;
};

/// Calibration constants (defaults fitted so the Virtex-7 utilizations land
/// in the same range as the paper's Table 3).
struct ResourceCalibration {
  // DSP slices per single-precision operator (Xilinx 7-series IP).
  std::int64_t dsp_per_fadd = 2;
  std::int64_t dsp_per_fmul = 3;
  std::int64_t dsp_per_fdiv = 0;  // divides map to LUT logic

  // LUTs per operator instance.
  std::int64_t lut_per_fadd = 120;
  std::int64_t lut_per_fmul = 90;
  std::int64_t lut_per_fdiv = 600;
  // FFs per operator instance.
  std::int64_t ff_per_fadd = 205;
  std::int64_t ff_per_fmul = 150;
  std::int64_t ff_per_fdiv = 750;

  // Fixed control/interface cost of one OpenCL kernel (AXI masters, burst
  // engines, loop control).
  std::int64_t lut_kernel_base = 5200;
  std::int64_t ff_kernel_base = 7400;

  // Banking/multiplexing cost per BRAM18 block bundled into a local array
  // (the coupling behind the paper's observation that FF/LUT savings track
  // the BRAM reduction).
  std::int64_t lut_per_bram18 = 50;
  std::int64_t ff_per_bram18 = 45;

  // Cost per pipe endpoint (FIFO control plus handshake).
  std::int64_t lut_per_pipe = 80;
  std::int64_t ff_per_pipe = 100;
};

class ResourceModel {
 public:
  explicit ResourceModel(DeviceSpec device,
                         ResourceCalibration calib = ResourceCalibration{})
      : device_(std::move(device)), calib_(calib) {}

  const DeviceSpec& device() const { return device_; }

  /// Resources of one tile kernel running `program`'s update datapath with
  /// the given shape.
  ResourceVector estimate_kernel(const scl::stencil::StencilProgram& program,
                                 const KernelShape& shape) const;

  /// BRAM18 blocks needed to hold `elements` floats (plus pipe FIFOs are
  /// estimated separately inside estimate_kernel).
  std::int64_t bram_blocks_for(std::int64_t elements) const;

  /// The part of estimate_kernel() that buffers and pipes do not change:
  /// `fixed` (control and interface) plus `unroll` x `per_lane` (one
  /// datapath lane). Both have bram18 = 0.
  struct KernelLogic {
    ResourceVector fixed;
    ResourceVector per_lane;
  };
  KernelLogic kernel_logic(const scl::stencil::StencilProgram& program) const;

  /// What each BRAM18 block of a kernel costs: the block itself plus its
  /// banking/multiplexing FF and LUT. estimate_kernel() is
  /// fixed + unroll x per_lane + blocks x per_bram18() + pipe endpoints.
  ResourceVector per_bram18() const;

 private:
  DeviceSpec device_;
  ResourceCalibration calib_;
};

}  // namespace scl::fpga
