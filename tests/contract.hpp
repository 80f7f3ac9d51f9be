// The output contract as rows of one golden file (tests/golden/contract.tsv).
//
// One row per case: the 7 paper kernels x {xc7vx690t, xcu280, s10mx} x
// {paper scale, a small grid} x {auto, forced pipe-tiling, forced
// temporal}. Each row records what a synthesis run promises to reproduce
// byte for byte: the request key, a 128-bit digest of the serialized
// artifact, the chosen design per family, predicted and simulated cycles
// (hex floats, so equality is exact), the DSE counters and frontier size,
// and the SCL codes emitted. A search that fits no design is a no-fit row.
//
// contract_test compares fresh rows with the committed file;
// contract_regen rewrites the file when a change means to move an output,
// and the file's diff is the record of what moved.
#pragma once

#include <string>
#include <vector>

namespace scl::contract {

/// The devices the contract covers, in row order.
const std::vector<std::string>& contract_devices();

/// The file's column header (one line, no trailing newline).
std::string contract_header();

/// Every row for `device`, in a fixed order (one line each, no newline).
std::vector<std::string> contract_rows(const std::string& device);

}  // namespace scl::contract
