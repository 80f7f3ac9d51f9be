// Rewrites the golden contract file (tests/contract.hpp).
//
//   contract_regen [output-path]
//
// Without an argument it writes the committed tests/golden/contract.tsv.
// Test-only: not installed, not part of any shipped binary.
#include <fstream>
#include <iostream>
#include <string>

#include "contract.hpp"

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : SCL_CONTRACT_FILE;
  try {
    std::string text = scl::contract::contract_header() + "\n";
    std::size_t rows = 0;
    for (const std::string& device : scl::contract::contract_devices()) {
      for (const std::string& row : scl::contract::contract_rows(device)) {
        text += row + "\n";
        ++rows;
      }
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) {
      std::cerr << "contract_regen: cannot write " << path << "\n";
      return 1;
    }
    std::cout << "wrote " << rows << " rows to " << path << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "contract_regen: " << e.what() << "\n";
    return 1;
  }
}
