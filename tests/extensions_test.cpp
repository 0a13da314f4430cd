// Tests for the paper-called-out extensions: semiring SpMM (Section I),
// Matrix Market I/O, and model checkpointing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "src/gnn/checkpoint.hpp"
#include "src/gnn/serial_trainer.hpp"
#include "src/graph/mmio.hpp"
#include "src/sparse/generate.hpp"
#include "src/sparse/semiring.hpp"

namespace cagnet {
namespace {

/// `name` under the temp directory, prefixed with this process's id so
/// concurrent runs (two builds' test suites, two bench runs) never share
/// a file.
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

// ---------- semirings ----------

TEST(Semiring, PlusTimesMatchesStandardSpmm) {
  Rng rng(1);
  Coo coo(10, 10);
  for (int e = 0; e < 40; ++e) {
    coo.add(static_cast<Index>(rng.next_below(10)),
            static_cast<Index>(rng.next_below(10)), rng.next_double(-1, 1));
  }
  const Csr a = Csr::from_coo(coo);
  Matrix x(10, 4);
  x.fill_uniform(rng, -1, 1);
  const Matrix standard = a.multiply(x);
  Matrix semi(10, 4);
  spmm_semiring<PlusTimes>(a, x, semi);
  EXPECT_LE(Matrix::max_abs_diff(standard, semi), 1e-14);
}

TEST(Semiring, MinPlusPerformsBellmanFordRelaxation) {
  // Path 0 -> 1 -> 2 with weights 2 and 3; distances from vertex 0.
  Coo coo(3, 3);
  coo.add(1, 0, 2.0);  // row i holds in-edges of i: dist(1) <- dist(0) + 2
  coo.add(2, 1, 3.0);
  // Self loops with weight 0 keep already-settled distances.
  coo.add(0, 0, 0.0);
  coo.add(1, 1, 0.0);
  coo.add(2, 2, 0.0);
  const Csr a = Csr::from_coo(coo);

  Matrix dist(3, 1);
  dist(0, 0) = 0;
  dist(1, 0) = std::numeric_limits<Real>::infinity();
  dist(2, 0) = std::numeric_limits<Real>::infinity();
  Matrix next(3, 1);
  spmm_semiring<MinPlus>(a, dist, next);  // one relaxation
  EXPECT_EQ(next(1, 0), 2.0);
  EXPECT_TRUE(std::isinf(next(2, 0)));
  spmm_semiring<MinPlus>(a, next, dist);  // second relaxation
  EXPECT_EQ(dist(2, 0), 5.0);
}

TEST(Semiring, OrAndExpandsBfsFrontier) {
  // Star: 0 -> {1,2,3}; one OrAnd step reaches all leaves.
  Coo coo(4, 4);
  for (Index leaf = 1; leaf < 4; ++leaf) coo.add(leaf, 0, 1.0);
  for (Index v = 0; v < 4; ++v) coo.add(v, v, 1.0);
  const Csr a = Csr::from_coo(coo);
  Matrix frontier(4, 1);
  frontier(0, 0) = 1;
  Matrix reached(4, 1);
  spmm_semiring<OrAnd>(a, frontier, reached);
  for (Index v = 0; v < 4; ++v) EXPECT_EQ(reached(v, 0), 1.0);
}

TEST(Semiring, MaxTimesIsMaxPoolingAggregator) {
  Coo coo(2, 3);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(0, 2, 1.0);
  coo.add(1, 2, 2.0);
  const Csr a = Csr::from_coo(coo);
  Matrix x(3, 2);
  x(0, 0) = 5;
  x(1, 0) = -1;
  x(2, 0) = 3;
  x(0, 1) = 0.5;
  x(1, 1) = 4;
  x(2, 1) = 1;
  Matrix y(2, 2);
  spmm_semiring<MaxTimes>(a, x, y);
  EXPECT_EQ(y(0, 0), 5.0);   // max over all three
  EXPECT_EQ(y(0, 1), 4.0);
  EXPECT_EQ(y(1, 0), 6.0);   // 2 * 3
  EXPECT_EQ(y(1, 1), 2.0);   // 2 * 1
}

TEST(Semiring, EmptyRowsYieldIdentity) {
  const Csr a(2, 2);  // all empty
  Matrix x(2, 1);
  x.fill(7.0);
  Matrix y(2, 1);
  spmm_semiring<MinPlus>(a, x, y);
  EXPECT_TRUE(std::isinf(y(0, 0)));
  spmm_semiring<PlusTimes>(a, x, y);
  EXPECT_EQ(y(0, 0), 0.0);
}

// ---------- Matrix Market I/O ----------

TEST(Mmio, RoundTripPreservesMatrix) {
  Rng rng(2);
  Coo coo = erdos_renyi(30, 4, rng);
  const Csr original = Csr::from_coo(coo);
  std::stringstream buffer;
  write_matrix_market(buffer, original);
  const Csr reloaded = Csr::from_coo(read_matrix_market(buffer));
  EXPECT_TRUE(original == reloaded);
}

TEST(Mmio, ParsesSymmetricPattern) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% a triangle\n"
      "3 3 3\n"
      "2 1\n"
      "3 1\n"
      "3 2\n");
  const Csr a = Csr::from_coo(read_matrix_market(in));
  EXPECT_EQ(a.nnz(), 6);  // both triangles
  const Matrix d = a.to_dense();
  EXPECT_EQ(d(0, 1), 1.0);
  EXPECT_EQ(d(1, 0), 1.0);
  EXPECT_EQ(d(2, 0), 1.0);
}

TEST(Mmio, ParsesIntegerGeneralWithComments) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "% comment one\n"
      "% comment two\n"
      "2 3 2\n"
      "1 3 7\n"
      "2 1 -2\n");
  const Csr a = Csr::from_coo(read_matrix_market(in));
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.to_dense()(0, 2), 7.0);
  EXPECT_EQ(a.to_dense()(1, 0), -2.0);
}

TEST(Mmio, SkewSymmetricNegatesMirror) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.5\n");
  const Matrix d = Csr::from_coo(read_matrix_market(in)).to_dense();
  EXPECT_EQ(d(1, 0), 3.5);
  EXPECT_EQ(d(0, 1), -3.5);
}

TEST(Mmio, RejectsMalformedInput) {
  std::stringstream bad_banner("%%NotMatrixMarket matrix coordinate real general\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(bad_banner), Error);
  std::stringstream bad_format(
      "%%MatrixMarket matrix array real general\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(bad_format), Error);
  std::stringstream out_of_range(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(out_of_range), Error);
  std::stringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(truncated), Error);
  // A count past INT64_MAX fails the size line's read (it once overflowed
  // the symmetric reserve, 2 * nnz).
  std::stringstream count_overflow(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "1 1 99999999999999999999\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(count_overflow), Error);
  // A header that lies about its count fails at the missing entries (it
  // once escaped the reserve as std::length_error).
  std::stringstream count_lies(
      "%%MatrixMarket matrix coordinate real general\n"
      "1 1 4000000000000000000\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(count_lies), Error);
}

TEST(Mmio, FileRoundTrip) {
  const std::string path = temp_path("cagnet_mmio_test.mtx");
  Rng rng(3);
  const Csr original = Csr::from_coo(erdos_renyi(20, 3, rng));
  write_matrix_market_file(path, original);
  const Csr reloaded = Csr::from_coo(read_matrix_market_file(path));
  EXPECT_TRUE(original == reloaded);
  std::remove(path.c_str());
  EXPECT_THROW(read_matrix_market_file(path), Error);
}

// ---------- checkpointing ----------

Graph community_graph(Index n, Index communities, std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.name = "communities";
  Coo coo = planted_partition(n, communities, 10, 1, rng, 0.0);
  g.adjacency = gcn_normalize(std::move(coo), true);
  g.features = Matrix(n, 8);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = communities;
  g.labels.resize(static_cast<std::size_t>(n));
  const Index comm_size = (n + communities - 1) / communities;
  for (Index v = 0; v < n; ++v) {
    g.labels[static_cast<std::size_t>(v)] = v / comm_size;
  }
  return g;
}

TEST(Checkpoint, RoundTripPreservesWeights) {
  const std::string path = temp_path("cagnet_ckpt_test.bin");
  GnnConfig config = GnnConfig::three_layer(12, 5);
  const auto weights = make_weights(config);
  save_weights(path, weights);
  const auto reloaded = load_weights(path);
  ASSERT_EQ(reloaded.size(), weights.size());
  for (std::size_t l = 0; l < weights.size(); ++l) {
    EXPECT_TRUE(Matrix::allclose(weights[l], reloaded[l], 0.0));
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptFiles) {
  const std::string path = temp_path("cagnet_ckpt_bad.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage";
  }
  EXPECT_THROW(load_weights(path), Error);
  std::remove(path.c_str());
  EXPECT_THROW(load_weights(path), Error);
}

TEST(Checkpoint, TrainedModelResumesExactly) {
  const Graph g = community_graph(80, 2, 17);
  GnnConfig config;
  config.dims = {8, 10, 2};
  SerialTrainer a(g, config);
  for (int e = 0; e < 5; ++e) a.train_epoch();

  const std::string path = temp_path("cagnet_ckpt_resume.bin");
  save_weights(path, a.weights());

  SerialTrainer b(g, config);
  b.weights() = load_weights(path);
  // Same weights -> identical forward output.
  EXPECT_TRUE(Matrix::allclose(a.forward(), b.forward(), 0.0));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cagnet
