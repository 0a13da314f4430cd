#include "src/graph/mmio.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

#include "src/util/error.hpp"

namespace cagnet {

namespace {

std::string lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

}  // namespace

Coo read_matrix_market(std::istream& in) {
  std::string line;
  CAGNET_CHECK(static_cast<bool>(std::getline(in, line)),
               "matrix market: empty input");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  CAGNET_CHECK(banner == "%%MatrixMarket", "matrix market: bad banner");
  CAGNET_CHECK(lower(object) == "matrix" && lower(format) == "coordinate",
               "matrix market: only `matrix coordinate` is supported");
  field = lower(field);
  symmetry = lower(symmetry);
  CAGNET_CHECK(field == "real" || field == "integer" || field == "pattern",
               "matrix market: unsupported field " + field);
  CAGNET_CHECK(symmetry == "general" || symmetry == "symmetric" ||
                   symmetry == "skew-symmetric",
               "matrix market: unsupported symmetry " + symmetry);

  // Skip comments, read the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  Index rows = 0, cols = 0, nnz = 0;
  size_line >> rows >> cols >> nnz;
  CAGNET_CHECK(!size_line.fail() && rows > 0 && cols > 0 && nnz >= 0,
               "matrix market: bad size line");

  // No reserve from the header's count: a file that lies about it fails
  // at its missing entries, not at an allocation.
  Coo coo(rows, cols);
  for (Index e = 0; e < nnz; ++e) {
    CAGNET_CHECK(static_cast<bool>(std::getline(in, line)),
                 "matrix market: truncated entry list");
    std::istringstream entry(line);
    Index i = 0, j = 0;
    Real v = 1;
    entry >> i >> j;
    CAGNET_CHECK(!entry.fail(), "matrix market: malformed entry");
    if (field != "pattern") {
      entry >> v;
      CAGNET_CHECK(!entry.fail(), "matrix market: missing value");
    }
    CAGNET_CHECK(i >= 1 && i <= rows && j >= 1 && j <= cols,
                 "matrix market: index out of range");
    coo.add(i - 1, j - 1, v);
    if (symmetry != "general" && i != j) {
      coo.add(j - 1, i - 1, symmetry == "skew-symmetric" ? -v : v);
    }
  }
  coo.sort_and_combine();
  return coo;
}

Coo read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  CAGNET_CHECK(in.good(), "cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const Csr& matrix) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by cagnet-cpp\n";
  out << matrix.rows() << " " << matrix.cols() << " " << matrix.nnz() << "\n";
  const auto row_ptr = matrix.row_ptr();
  const auto col_idx = matrix.col_idx();
  const auto vals = matrix.values();
  for (Index r = 0; r < matrix.rows(); ++r) {
    for (Index p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      out << (r + 1) << " " << (col_idx[p] + 1) << " " << vals[p] << "\n";
    }
  }
  CAGNET_CHECK(out.good(), "matrix market: write failure");
}

void write_matrix_market_file(const std::string& path, const Csr& matrix) {
  std::ofstream out(path);
  CAGNET_CHECK(out.good(), "cannot open " + path + " for writing");
  write_matrix_market(out, matrix);
}

}  // namespace cagnet
