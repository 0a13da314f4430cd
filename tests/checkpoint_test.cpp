// Checkpoint round-trip: train k epochs, save, reload into a fresh
// trainer, continue — the resumed run must be bitwise identical (losses
// and weights) to training straight through, across all four algebra
// families. SGD is stateless, so the weights ARE the full training state.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/core/algebra_registry.hpp"
#include "src/gnn/checkpoint.hpp"
#include "src/graph/graph.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/error.hpp"

namespace cagnet {
namespace {

/// Weights-only checkpoints capture the complete training state only on
/// an exact wire: under a lossy codec the error-feedback residual is
/// deliberately per-run transient state (never serialized), and under
/// bounded staleness (RunConfig::stale_k) the halo cache is equally
/// transient — a rebuilt world starts invalid and refreshes on its first
/// epoch, so a resumed lossy run legitimately diverges from the
/// uninterrupted one (the StaleRestart drill pins that contract). The
/// resume-bitwise contract here is therefore pinned on the two exact
/// paths: the broadcasts (RunConfig{}) and the halo exchange.
std::vector<RunConfig> exact_modes() {
  RunConfig halo;
  halo.halo = true;
  return {RunConfig{}, halo};
}

Graph small_graph(Index n, Index communities, Index f, Index classes,
                  std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.name = "checkpoint-test";
  Coo coo = planted_partition(n, communities, 8.0, 1.0, rng,
                              /*hub_fraction=*/0.0);
  g.adjacency = gcn_normalize(std::move(coo), /*symmetrize=*/true);
  g.features = Matrix(n, f);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = classes;
  g.labels.resize(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) {
    g.labels[static_cast<std::size_t>(v)] = v % classes;
  }
  return g;
}

struct Trace {
  std::vector<Real> losses;
  std::vector<Matrix> weights;
};

/// `name` under the temp directory, prefixed with this process's id so
/// concurrent runs (two builds' test suites, two bench runs) never share
/// a file.
std::string ckpt_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

/// Train `epochs` epochs; if `load_path` is non-empty the trainer first
/// restores its weights from that checkpoint; if `save_path` is non-empty
/// rank 0 checkpoints the weights after the last epoch.
Trace train(const std::string& algebra, const DistProblem& problem,
            const GnnConfig& config, const RunConfig& mode, int p,
            int epochs, const std::string& load_path,
            const std::string& save_path) {
  Trace trace;
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    auto trainer = make_dist_trainer(algebra, problem, config, world, mode);
    if (!load_path.empty()) {
      trainer->set_weights(load_weights(load_path));
    }
    std::vector<Real> losses;
    for (int e = 0; e < epochs; ++e) {
      losses.push_back(trainer->train_epoch().loss);
    }
    if (world.rank() == 0) {
      if (!save_path.empty()) save_weights(save_path, trainer->weights());
      std::lock_guard<std::mutex> lock(mutex);
      trace.losses = std::move(losses);
      trace.weights = trainer->weights();
    }
  });
  return trace;
}

TEST(CheckpointRoundTrip, ResumeIsBitwiseAcrossAllAlgebras) {
  const Graph g = small_graph(160, 8, 8, 4, 77);
  const DistProblem problem = DistProblem::prepare(g);
  const int pre = 3;   // epochs before the checkpoint
  const int post = 2;  // epochs after the reload

  const struct {
    const char* algebra;
    int p;
  } cases[] = {{"1d", 4}, {"1.5d-c2", 4}, {"2d", 4}, {"3d", 8}};

  // {8, 6, 6, 4} narrows at layer 3; {8, 8, 6, 4} at layers 2 and 3 back
  // to back, whose H W products must not share a buffer.
  for (const std::vector<Index>& dims :
       {std::vector<Index>{8, 6, 6, 4}, std::vector<Index>{8, 8, 6, 4}}) {
    GnnConfig config;
    config.dims = dims;
    config.learning_rate = 0.1;
    for (const RunConfig& mode : exact_modes()) {
      for (const auto& c : cases) {
        SCOPED_TRACE(std::string(c.algebra) + (mode.halo ? " halo" : "") +
                     " dims[1] " + std::to_string(dims[1]));
        const std::string path =
            ckpt_path(std::string("cagnet_ckpt_") + c.algebra + ".bin");

        // Oracle: train straight through, no interruption.
        const Trace oracle =
            train(c.algebra, problem, config, mode, c.p, pre + post, "", "");

        // Interrupted run: train, checkpoint, reload into a fresh world,
        // continue. Bitwise identity of the continuation is the contract.
        train(c.algebra, problem, config, mode, c.p, pre, "", path);
        const Trace resumed =
            train(c.algebra, problem, config, mode, c.p, post, path, "");
        std::remove(path.c_str());

        ASSERT_EQ(oracle.losses.size(),
                  static_cast<std::size_t>(pre + post));
        ASSERT_EQ(resumed.losses.size(), static_cast<std::size_t>(post));
        for (int e = 0; e < post; ++e) {
          EXPECT_EQ(resumed.losses[static_cast<std::size_t>(e)],
                    oracle.losses[static_cast<std::size_t>(pre + e)])
              << "epoch " << pre + e;
        }
        ASSERT_EQ(resumed.weights.size(), oracle.weights.size());
        for (std::size_t l = 0; l < oracle.weights.size(); ++l) {
          EXPECT_LE(
              Matrix::max_abs_diff(resumed.weights[l], oracle.weights[l]),
              Real{0})
              << "layer " << l;
        }
      }
    }
  }
}

TEST(CheckpointRoundTrip, SetWeightsRejectsShapeMismatch) {
  const Graph g = small_graph(64, 4, 8, 4, 79);
  const GnnConfig config = GnnConfig::three_layer(8, 4, 6);
  const DistProblem problem = DistProblem::prepare(g);
  run_world(1, [&](Comm& world) {
    auto trainer =
        make_dist_trainer("1d", problem, config, world, RunConfig{});
    std::vector<Matrix> wrong_count;
    EXPECT_THROW(trainer->set_weights(wrong_count), Error);
    std::vector<Matrix> wrong_shape = trainer->weights();
    wrong_shape[0] = Matrix(1, 1);
    EXPECT_THROW(trainer->set_weights(wrong_shape), Error);
  });
}

// ---- Format hardening: version, CRC32, atomic writes ----

namespace {

std::vector<Matrix> sample_weights() {
  Rng rng(5);
  std::vector<Matrix> weights;
  weights.emplace_back(7, 5);
  weights.back().fill_uniform(rng, -1, 1);
  weights.emplace_back(5, 3);
  weights.back().fill_uniform(rng, -1, 1);
  return weights;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void append(std::string& bytes, T value) {
  bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// A checkpoint image of `body` (everything between the magic and the
/// CRC) sealed with its valid CRC32, so the parser sees the body.
std::string sealed(const std::string& body) {
  std::string image = "CAGW" + body;
  append(image, crc32(body.data(), body.size()));
  return image;
}

}  // namespace

TEST(CheckpointFormat, EpochAndWeightsRoundTripAndNoTmpLeftBehind) {
  const std::string path = ckpt_path("cagnet_fmt_roundtrip.bin");
  const std::vector<Matrix> weights = sample_weights();
  save_checkpoint(path, weights, 42);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const Checkpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.epoch, 42u);
  ASSERT_EQ(loaded.weights.size(), weights.size());
  for (std::size_t l = 0; l < weights.size(); ++l) {
    EXPECT_LE(Matrix::max_abs_diff(loaded.weights[l], weights[l]), Real{0});
  }
  std::remove(path.c_str());
}

TEST(CheckpointFormat, BitFlipAnywhereFailsTheCrc) {
  const std::string path = ckpt_path("cagnet_fmt_bitflip.bin");
  save_checkpoint(path, sample_weights(), 7);
  const std::string good = slurp(path);
  // Flip one bit in each region: header field, payload, and the stored
  // CRC itself — every corruption must be rejected with the typed error.
  for (const std::size_t pos :
       {std::size_t{6}, good.size() / 2, good.size() - 2}) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    spit(path, bad);
    EXPECT_THROW(load_checkpoint(path), CheckpointError) << "byte " << pos;
  }
  std::remove(path.c_str());
}

TEST(CheckpointFormat, TruncationIsRejected) {
  const std::string path = ckpt_path("cagnet_fmt_trunc.bin");
  save_checkpoint(path, sample_weights(), 3);
  const std::string good = slurp(path);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{2}, std::size_t{6}, good.size() / 2,
        good.size() - 1}) {
    spit(path, good.substr(0, keep));
    EXPECT_THROW(load_checkpoint(path), CheckpointError) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST(CheckpointFormat, ForeignAndMissingFilesAreTypedErrors) {
  const std::string path = ckpt_path("cagnet_fmt_foreign.bin");
  spit(path, "PNG\x89 definitely not a checkpoint");
  EXPECT_THROW(load_checkpoint(path), CheckpointError);
  try {
    load_checkpoint(path);
    FAIL() << "bad magic not diagnosed";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
  std::remove(path.c_str());
  EXPECT_THROW(load_checkpoint(path), CheckpointError);  // missing file
  // CheckpointError derives from Error: existing catch sites still work.
  EXPECT_THROW(load_weights(path), Error);
}

TEST(CheckpointFormat, LayerLargerThanItsPayloadIsRejected) {
  // CRC-valid images whose one layer header claims more values than the
  // body holds. 2^40 x 2^40 once loaded as a Matrix of those dimensions
  // with no storage (rows * cols overflowed), and 2^20 x 2^20 threw
  // std::bad_alloc.
  const std::string path = ckpt_path("cagnet_fmt_forged.bin");
  for (const std::int64_t side :
       {std::int64_t{1} << 40, std::int64_t{1} << 20, std::int64_t{3}}) {
    std::string body;
    append(body, std::uint32_t{2});  // version
    append(body, std::uint64_t{0});  // epoch
    append(body, std::uint64_t{1});  // layer count
    append(body, side);              // rows
    append(body, side);              // cols
    body.append(8 * sizeof(Real), '\0');  // 8 of the values claimed
    spit(path, sealed(body));
    EXPECT_THROW(load_checkpoint(path), CheckpointError) << side;
  }
  std::remove(path.c_str());
}

TEST(CheckpointFormat, Crc32MatchesKnownVector) {
  // IEEE 802.3 check value for "123456789" — pins the polynomial and
  // reflection so checkpoints stay portable across platforms.
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(CheckpointFormat, SaveOverwritesAtomically) {
  const std::string path = ckpt_path("cagnet_fmt_overwrite.bin");
  save_checkpoint(path, sample_weights(), 1);
  std::vector<Matrix> second = sample_weights();
  second[0].data()[0] = Real{123.5};
  save_checkpoint(path, second, 2);
  const Checkpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.epoch, 2u);
  EXPECT_EQ(loaded.weights[0].data()[0], Real{123.5});
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cagnet
