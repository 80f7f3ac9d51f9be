#include "ocl/pipe.hpp"

#include <algorithm>

namespace scl::ocl {

Pipe::Pipe(std::string name, std::int64_t capacity,
           std::int64_t cycles_per_element)
    : name_(std::move(name)),
      capacity_(capacity),
      cycles_per_element_(cycles_per_element),
      never_used_slots_(capacity) {
  SCL_CHECK(capacity_ > 0, "pipe capacity must be positive");
  SCL_CHECK(cycles_per_element_ >= 0, "C_pipe cannot be negative");
}

std::int64_t Pipe::claim_slots(std::int64_t count) {
  std::int64_t latest = 0;
  const std::int64_t fresh = std::min(count, never_used_slots_);
  never_used_slots_ -= fresh;
  std::int64_t remaining = count - fresh;
  while (remaining > 0) {
    SCL_CHECK(!freed_.empty(), "slot accounting out of sync");
    Credit& credit = freed_.front();
    latest = std::max(latest, credit.freed_at);
    const std::int64_t take = std::min(remaining, credit.count);
    credit.count -= take;
    remaining -= take;
    if (credit.count == 0) freed_.pop_front();
  }
  return latest;
}

Pipe::WriteResult Pipe::write_impl(const std::vector<float>* values,
                                   std::size_t offset, std::int64_t count,
                                   std::int64_t writer_clock) {
  ++write_calls_;
  const std::int64_t n = std::min(count, free_slots());
  if (n <= 0) return WriteResult{0, writer_clock};
  // The batch cannot start entering before the slots it reuses are free;
  // each element then costs C_pipe of producer time.
  const std::int64_t start = std::max(writer_clock, claim_slots(n));
  Run run;
  run.count = n;
  run.first_ready = start + cycles_per_element_;
  if (values != nullptr) {
    run.data.assign(values->begin() + static_cast<std::ptrdiff_t>(offset),
                    values->begin() +
                        static_cast<std::ptrdiff_t>(offset) + n);
  }
  runs_.push_back(std::move(run));
  size_ += n;
  total_written_ += n;
  max_occupancy_ = std::max(max_occupancy_, size_);
  return WriteResult{n, start + n * cycles_per_element_};
}

Pipe::WriteResult Pipe::write(const std::vector<float>& values,
                              std::size_t offset, std::int64_t writer_clock) {
  SCL_CHECK(offset <= values.size(), "write offset beyond data");
  return write_impl(&values, offset,
                    static_cast<std::int64_t>(values.size() - offset),
                    writer_clock);
}

Pipe::WriteResult Pipe::write_counted(std::int64_t count,
                                      std::int64_t writer_clock) {
  SCL_CHECK(count >= 0, "negative write count");
  return write_impl(nullptr, 0, count, writer_clock);
}

Pipe::ReadResult Pipe::read_impl(std::int64_t count,
                                 std::int64_t reader_clock, bool with_data) {
  SCL_CHECK(count >= 0, "negative read count");
  SCL_CHECK(count <= size_, "pipe underflow: read more than available");
  ReadResult out;
  if (with_data) out.values.reserve(static_cast<std::size_t>(count));
  std::int64_t clock = reader_clock;
  std::int64_t remaining = count;
  while (remaining > 0) {
    Run& run = runs_.front();
    const std::int64_t take = std::min(remaining, run.count);
    // Availability of the last element taken from this run.
    clock = std::max(clock,
                     run.first_ready + (take - 1) * cycles_per_element_);
    if (with_data && !run.data.empty()) {
      const auto begin = run.data.begin() +
                         static_cast<std::ptrdiff_t>(run.data_offset);
      out.values.insert(out.values.end(), begin, begin + take);
    }
    run.data_offset += static_cast<std::size_t>(take);
    run.count -= take;
    run.first_ready += take * cycles_per_element_;
    remaining -= take;
    if (run.count == 0) runs_.pop_front();
  }
  size_ -= count;
  if (count > 0) {
    if (!freed_.empty() && freed_.back().freed_at == clock) {
      freed_.back().count += count;
    } else {
      freed_.push_back(Credit{clock, count});
    }
  }
  out.reader_clock = clock;
  return out;
}

Pipe::ReadResult Pipe::read(std::int64_t count, std::int64_t reader_clock) {
  return read_impl(count, reader_clock, /*with_data=*/true);
}

Pipe::ReadResult Pipe::read_counted(std::int64_t count,
                                    std::int64_t reader_clock) {
  return read_impl(count, reader_clock, /*with_data=*/false);
}

}  // namespace scl::ocl
