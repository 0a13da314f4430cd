// Seeded mutation fuzz over the two file parsers that read untrusted
// bytes: Matrix Market text (read_matrix_market) and checkpoint images
// (load_checkpoint). A fixed-seed mutator flips bytes, truncates, inserts
// digit runs past INT64_MAX, overwrites 8-byte fields with extreme
// integers and repeats lines; every mutant must parse or fail with a
// typed cagnet::Error (CheckpointError for images), never another
// exception, a crash or undefined behaviour (the sanitizer builds run
// this suite too). Checkpoint mutants are re-sealed with a valid CRC32
// so they reach the parser instead of stopping at the checksum.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/gnn/checkpoint.hpp"
#include "src/graph/mmio.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace cagnet {
namespace {

constexpr int kFuzzInputs = 12000;

/// Deterministic mutator of valid inputs.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string s) {
    const int ops = 1 + static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < ops; ++i) {
      switch (rng_.next_below(6)) {
        case 0:  // byte flip
          if (!s.empty()) {
            s[pick(s.size())] = static_cast<char>(rng_.next_below(256));
          }
          break;
        case 1:  // truncation
          s.resize(pick(s.size() + 1));
          break;
        case 2:  // a digit run past INT64_MAX (and UINT64_MAX)
          s.insert(pick(s.size() + 1), rng_.next_below(2) == 0
                                           ? "9223372036854775808"
                                           : "99999999999999999999");
          break;
        case 3:  // an 8-byte field overwritten with an extreme integer
          if (s.size() >= 8) {
            const std::int64_t extremes[] = {
                INT64_MAX, INT64_MIN, -1, std::int64_t{1} << 40,
                std::int64_t{1} << 20, 0};
            const std::int64_t v = extremes[rng_.next_below(6)];
            std::memcpy(s.data() + pick(s.size() - 7), &v, sizeof(v));
          }
          break;
        default: {  // a repeated line (the bytes up to a newline)
          const std::size_t at = pick(s.size() + 1);
          std::size_t end = s.find('\n', at);
          end = end == std::string::npos ? s.size() : end + 1;
          s.insert(end, s.substr(at, end - at));
          break;
        }
      }
    }
    return s;
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.next_below(n));
  }

 private:
  Rng rng_;
};

TEST(MmioFuzz, ReadMatrixMarketParsesOrThrowsError) {
  std::vector<std::string> corpus = {
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "3 4 3\n1 1 1.5\n2 4 -2e-3\n3 2 7\n",
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 3\n2 1\n3 1\n3 2\n",
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n2 1 3.5\n",
      "%%MatrixMarket matrix coordinate integer general\n"
      "% one\n% two\n2 3 2\n1 3 7\n2 1 -2\n",
  };
  Rng rng(5);
  std::ostringstream written;
  write_matrix_market(written, Csr::from_coo(erdos_renyi(12, 3, rng)));
  corpus.push_back(written.str());

  Mutator mutator(20261017);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kFuzzInputs; ++i) {
    const std::string text =
        mutator.mutate(corpus[mutator.pick(corpus.size())]);
    std::istringstream in(text);
    try {
      (void)read_matrix_market(in);
      ++accepted;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "input " << i << " threw a non-Error: " << e.what()
                    << "\n" << text;
    }
  }
  EXPECT_GT(accepted, kFuzzInputs / 40);
  EXPECT_GT(rejected, kFuzzInputs / 10);
}

TEST(CheckpointFuzz, LoadCheckpointLoadsOrThrowsCheckpointError) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (std::to_string(::getpid()) + "_cagnet_fuzz.ckpt"))
          .string();
  const auto slurp = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  // Bodies (the bytes between the magic and the CRC) of valid images.
  std::vector<std::string> corpus;
  Rng rng(7);
  std::vector<std::vector<Matrix>> models(4);
  models[1].emplace_back(1, 1);
  models[2].emplace_back(0, 3);
  models[2].emplace_back(3, 2);
  models[3].emplace_back(5, 4);
  models[3].emplace_back(4, 3);
  for (auto& weights : models) {
    for (Matrix& w : weights) w.fill_uniform(rng, -1, 1);
    save_checkpoint(path, weights, corpus.size());
    const std::string image = slurp();
    corpus.push_back(image.substr(4, image.size() - 8));
  }

  Mutator mutator(17);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kFuzzInputs; ++i) {
    const std::string body =
        mutator.mutate(corpus[mutator.pick(corpus.size())]);
    std::string image = "CAGW" + body;
    const std::uint32_t crc = crc32(body.data(), body.size());
    image.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    try {
      (void)load_checkpoint(path);
      ++accepted;
    } catch (const CheckpointError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "input " << i << " threw a non-CheckpointError: "
                    << e.what();
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(accepted, kFuzzInputs / 20);
  EXPECT_GT(rejected, kFuzzInputs / 10);
}

}  // namespace
}  // namespace cagnet
