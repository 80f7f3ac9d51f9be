// The output contract (tests/contract.hpp): fresh rows must equal the
// committed tests/golden/contract.tsv byte for byte. A change that means
// to move an output rewrites the file with
//
//   build/tests/contract_regen
//
// and commits the diff.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "contract.hpp"

namespace scl::contract {
namespace {

/// The golden rows of `device` (column 2), in file order.
std::vector<std::string> golden_rows(const std::string& device) {
  std::ifstream in(SCL_CONTRACT_FILE);
  EXPECT_TRUE(in.good()) << SCL_CONTRACT_FILE;
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    const std::size_t end = line.find('\t', tab + 1);
    if (line.compare(tab + 1, end - tab - 1, device) == 0) {
      rows.push_back(line);
    }
  }
  return rows;
}

class ContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ContractTest, RowsMatchTheGoldenFile) {
  const std::vector<std::string> expected = golden_rows(GetParam());
  const std::vector<std::string> actual = contract_rows(GetParam());
  ASSERT_EQ(actual.size(), expected.size())
      << "row count moved; regenerate with contract_regen if intended";
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << "row " << i << " moved; regenerate with contract_regen if "
        << "intended";
  }
}

TEST(ContractTest, HeaderIsTheFilesFirstLine) {
  std::ifstream in(SCL_CONTRACT_FILE);
  std::string first;
  ASSERT_TRUE(std::getline(in, first)) << SCL_CONTRACT_FILE;
  EXPECT_EQ(first, contract_header());
}

INSTANTIATE_TEST_SUITE_P(Devices, ContractTest,
                         ::testing::ValuesIn(contract_devices()),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

}  // namespace
}  // namespace scl::contract
