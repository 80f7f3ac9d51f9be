// OpenCL 2.0 pipe model: a bounded FIFO between two kernels.
//
// On the FPGA a pipe synthesizes to a BRAM/SRL FIFO. The model carries
// virtual-time availability stamps so the discrete-event simulator can
// charge the paper's C_pipe cost per transferred element (Eq. 10),
// propagate producer->consumer availability times, and model backpressure:
// a write into a full FIFO cannot complete before the consumer frees the
// slots it needs.
//
// Contents are stored as *runs*: a contiguous batch written in one call
// shares an affine stamp sequence (first_ready, first_ready + C_pipe, ...),
// so moving a thousand-element boundary strip costs O(1) bookkeeping
// instead of a thousand deque operations. Functional payloads ride along
// per run; timing-only callers use the `*_counted` variants and never
// materialize per-element data.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace scl::ocl {

class Pipe {
 public:
  /// `capacity` is the synthesized FIFO depth in elements;
  /// `cycles_per_element` is the paper's C_pipe.
  Pipe(std::string name, std::int64_t capacity,
       std::int64_t cycles_per_element);

  const std::string& name() const { return name_; }
  std::int64_t capacity() const { return capacity_; }
  std::int64_t cycles_per_element() const { return cycles_per_element_; }
  std::int64_t size() const { return size_; }
  std::int64_t free_slots() const { return capacity_ - size_; }

  struct WriteResult {
    std::int64_t written = 0;
    std::int64_t writer_clock = 0;
  };

  /// Pushes up to values.size()-offset elements starting at producer time
  /// `writer_clock`, limited by free capacity. Each element costs C_pipe
  /// of producer time, and the batch cannot enter the FIFO before the
  /// slots it occupies were freed by the consumer.
  WriteResult write(const std::vector<float>& values, std::size_t offset,
                    std::int64_t writer_clock);

  /// Timing-only write: identical accounting, no payloads.
  WriteResult write_counted(std::int64_t count, std::int64_t writer_clock);

  struct ReadResult {
    std::vector<float> values;  ///< empty for counted reads
    std::int64_t reader_clock = 0;
  };

  /// Pops exactly `count` elements (caller must check size() first). The
  /// consumer cannot proceed before the last popped element's availability
  /// time; freed slots are credited at the returned clock.
  ReadResult read(std::int64_t count, std::int64_t reader_clock);

  /// Timing-only read: identical accounting, no payloads.
  ReadResult read_counted(std::int64_t count, std::int64_t reader_clock);

  // --- statistics for the timeline reports ---
  std::int64_t total_written() const { return total_written_; }
  std::int64_t max_occupancy() const { return max_occupancy_; }
  /// write()/write_counted() calls, including those a full FIFO refused.
  std::int64_t write_calls() const { return write_calls_; }

 private:
  struct Run {
    std::int64_t count;
    std::int64_t first_ready;   ///< availability of the run's first element
    std::vector<float> data;    ///< empty for counted writes
    std::size_t data_offset = 0;  ///< consumed prefix of `data`
  };
  struct Credit {
    std::int64_t freed_at;
    std::int64_t count;
  };

  /// Latest free time among the next `count` slots (consuming credits).
  std::int64_t claim_slots(std::int64_t count);
  ReadResult read_impl(std::int64_t count, std::int64_t reader_clock,
                       bool with_data);
  WriteResult write_impl(const std::vector<float>* values, std::size_t offset,
                         std::int64_t count, std::int64_t writer_clock);

  std::string name_;
  std::int64_t capacity_;
  std::int64_t cycles_per_element_;
  std::deque<Run> runs_;
  std::int64_t size_ = 0;
  std::deque<Credit> freed_;
  std::int64_t never_used_slots_;
  std::int64_t total_written_ = 0;
  std::int64_t max_occupancy_ = 0;
  std::int64_t write_calls_ = 0;
};

}  // namespace scl::ocl
