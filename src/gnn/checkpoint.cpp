#include "src/gnn/checkpoint.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace cagnet {

namespace {

constexpr char kMagic[4] = {'C', 'A', 'G', 'W'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint64_t kMaxLayers = 1u << 20;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void append_bytes(std::string& buf, const void* data, std::size_t len) {
  buf.append(static_cast<const char*>(data), len);
}

template <typename T>
void append_value(std::string& buf, T value) {
  append_bytes(buf, &value, sizeof(value));
}

/// Sequential reader over the in-memory image with typed truncation
/// errors; keeping the parse off the stream means the CRC can be checked
/// against the whole file before any field is trusted.
struct Reader {
  const std::string& buf;
  const std::string& path;
  std::size_t pos = 0;

  void read(void* out, std::size_t len, const char* what) {
    if (buf.size() - pos < len) {
      throw CheckpointError("truncated checkpoint (short " +
                            std::string(what) + "): " + path);
    }
    if (len == 0) return;  // an empty layer has no storage to copy into
    std::memcpy(out, buf.data() + pos, len);
    pos += len;
  }

  template <typename T>
  T value(const char* what) {
    T v{};
    read(&v, sizeof(v), what);
    return v;
  }
};

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void save_checkpoint(const std::string& path,
                     const std::vector<Matrix>& weights,
                     std::uint64_t epoch) {
  // Serialize the full image first so the write is a single pass and the
  // CRC covers exactly what lands on disk.
  std::string body;
  append_value(body, kVersion);
  append_value(body, epoch);
  append_value(body, static_cast<std::uint64_t>(weights.size()));
  for (const Matrix& w : weights) {
    append_value(body, static_cast<std::int64_t>(w.rows()));
    append_value(body, static_cast<std::int64_t>(w.cols()));
    append_bytes(body, w.data(), sizeof(Real) * w.flat().size());
  }
  const std::uint32_t crc = crc32(body.data(), body.size());

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw CheckpointError("cannot open " + tmp + " for writing");
    }
    out.write(kMagic, sizeof(kMagic));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.flush();
    if (!out.good()) {
      std::remove(tmp.c_str());
      throw CheckpointError("checkpoint write failure: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("cannot rename " + tmp + " to " + path);
  }
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw CheckpointError("cannot open checkpoint: " + path);
  }
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (file.size() < sizeof(kMagic) ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError("not a cagnet checkpoint (bad magic): " + path);
  }
  if (file.size() < sizeof(kMagic) + sizeof(std::uint32_t)) {
    throw CheckpointError("truncated checkpoint (no checksum): " + path);
  }
  // Verify integrity over the whole body before parsing any field.
  const std::size_t body_len =
      file.size() - sizeof(kMagic) - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, file.data() + sizeof(kMagic) + body_len,
              sizeof(stored));
  const std::uint32_t actual = crc32(file.data() + sizeof(kMagic), body_len);
  if (stored != actual) {
    throw CheckpointError("checkpoint failed CRC32 check (corrupt): " + path);
  }

  const std::string body = file.substr(sizeof(kMagic), body_len);
  Reader r{body, path};
  const auto version = r.value<std::uint32_t>("version");
  if (version != kVersion) {
    throw CheckpointError("unsupported checkpoint version " +
                          std::to_string(version) + " (expected " +
                          std::to_string(kVersion) + "): " + path);
  }
  Checkpoint ckpt;
  ckpt.epoch = r.value<std::uint64_t>("epoch");
  const auto count = r.value<std::uint64_t>("layer count");
  if (count > kMaxLayers) {
    throw CheckpointError("implausible checkpoint layer count " +
                          std::to_string(count) + ": " + path);
  }
  ckpt.weights.reserve(count);
  for (std::uint64_t l = 0; l < count; ++l) {
    const auto rows = r.value<std::int64_t>("layer rows");
    const auto cols = r.value<std::int64_t>("layer cols");
    if (rows < 0 || cols < 0) {
      throw CheckpointError("corrupt checkpoint layer header: " + path);
    }
    // rows * cols * sizeof(Real) must fit the bytes left, checked without
    // forming the product (a forged header could overflow it).
    const std::size_t left_values = (body.size() - r.pos) / sizeof(Real);
    if (cols > 0 && static_cast<std::uint64_t>(rows) >
                        left_values / static_cast<std::uint64_t>(cols)) {
      throw CheckpointError("truncated checkpoint (layer " +
                            std::to_string(rows) + " x " +
                            std::to_string(cols) +
                            " exceeds the payload left): " + path);
    }
    Matrix w(rows, cols);
    r.read(w.data(), sizeof(Real) * w.flat().size(), "layer payload");
    ckpt.weights.push_back(std::move(w));
  }
  if (r.pos != body.size()) {
    throw CheckpointError("trailing garbage after checkpoint payload: " +
                          path);
  }
  return ckpt;
}

void save_weights(const std::string& path,
                  const std::vector<Matrix>& weights) {
  save_checkpoint(path, weights, 0);
}

std::vector<Matrix> load_weights(const std::string& path) {
  return load_checkpoint(path).weights;
}

}  // namespace cagnet
