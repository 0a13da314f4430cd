#include "src/comm/compress.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "src/util/error.hpp"
#include "src/util/knob.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {

namespace {

// ---------------------------------------------------------------------
// Chunk layout helpers. Chunk c covers values [c*256, min(n, c*256+256)).

std::size_t num_chunks(std::size_t n) {
  return (n + kCompressChunk - 1) / kCompressChunk;
}

/// Byte offset of chunk c in the encoded stream (all earlier chunks are
/// full, so offsets are closed-form).
std::size_t chunk_byte_offset(CompressMode mode, std::size_t c) {
  const std::size_t lo = c * kCompressChunk;
  switch (mode) {
    case CompressMode::kInt8:
      return lo + 4 * c;
    case CompressMode::kOff:
      return sizeof(Real) * lo;
  }
  CAGNET_CHECK(false, "chunk_byte_offset: bad mode");
  return 0;
}

void store_f32(std::uint8_t* dst, float v) {
  std::memcpy(dst, &v, sizeof(v));
}

float load_f32(const std::uint8_t* src) {
  float v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

void encode_chunk(CompressMode mode, const Real* v, std::size_t len,
                  std::uint8_t* out) {
  switch (mode) {
    case CompressMode::kInt8: {
      Real amax = 0;
      for (std::size_t i = 0; i < len; ++i) {
        amax = std::max(amax, std::abs(v[i]));
      }
      const float scale = amax > 0 ? static_cast<float>(amax / 127.0) : 0.f;
      store_f32(out, scale);
      auto* q = reinterpret_cast<std::int8_t*>(out + 4);
      if (scale == 0.f) {
        std::memset(q, 0, len);
        return;
      }
      const Real s = static_cast<Real>(scale);
      for (std::size_t i = 0; i < len; ++i) {
        const auto level = static_cast<long long>(std::llround(v[i] / s));
        q[i] = static_cast<std::int8_t>(
            std::clamp<long long>(level, -127, 127));
      }
      return;
    }
    case CompressMode::kOff:
      break;
  }
  CAGNET_CHECK(false, "encode_chunk: bad mode");
}

void decode_chunk(CompressMode mode, const std::uint8_t* in, std::size_t len,
                  Real* out) {
  switch (mode) {
    case CompressMode::kInt8: {
      const Real s = static_cast<Real>(load_f32(in));
      const auto* q = reinterpret_cast<const std::int8_t*>(in + 4);
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = s * static_cast<Real>(q[i]);
      }
      return;
    }
    case CompressMode::kOff:
      break;
  }
  CAGNET_CHECK(false, "decode_chunk: bad mode");
}

}  // namespace

const char* compress_mode_name(CompressMode mode) {
  switch (mode) {
    case CompressMode::kOff:
      return "off";
    case CompressMode::kInt8:
      return "int8";
  }
  return "?";
}

CompressMode parse_compress_mode(const std::string& name) {
  if (name == "off") return CompressMode::kOff;
  if (name == "int8") return CompressMode::kInt8;
  knob::reject("CAGNET_COMPRESS", name, "off, int8");
}

bool reduce_scatter_compression_pays(CompressMode mode, std::size_t n,
                                     int p) {
  if (mode == CompressMode::kOff || p <= 1) return false;
  const double compressed =
      static_cast<double>(p) *
      (sizeof(std::uint64_t) +
       static_cast<double>(encoded_size_bytes(mode, n)));
  const double exact = static_cast<double>(sizeof(Real) * n) *
                       static_cast<double>(p - 1) / static_cast<double>(p);
  return compressed < exact;
}

std::size_t encoded_size_bytes(CompressMode mode, std::size_t n) {
  switch (mode) {
    case CompressMode::kOff:
      return sizeof(Real) * n;
    case CompressMode::kInt8:
      return n + 4 * num_chunks(n);
  }
  CAGNET_CHECK(false, "encoded_size_bytes: bad mode");
  return 0;
}

void compress_encode(CompressMode mode, std::span<const Real> src,
                     std::uint8_t* dst, std::vector<Real>* residual) {
  CAGNET_CHECK(mode != CompressMode::kOff,
               "compress_encode: kOff has no encoded form");
  const std::size_t n = src.size();
  if (residual != nullptr && residual->size() != n) {
    residual->assign(n, 0);
  }
  if (n == 0) return;
  const auto chunks = static_cast<Index>(num_chunks(n));
  parallel_for(
      chunks,
      plan_chunks(static_cast<double>(n), kMinElemsPerChunk, chunks),
      [&](Index c0, Index c1) {
        std::array<Real, kCompressChunk> v;
        std::array<Real, kCompressChunk> dec;
        for (Index c = c0; c < c1; ++c) {
          const std::size_t lo = static_cast<std::size_t>(c) * kCompressChunk;
          const std::size_t len = std::min(kCompressChunk, n - lo);
          const Real* values = src.data() + lo;
          if (residual != nullptr) {
            Real* r = residual->data() + lo;
            for (std::size_t i = 0; i < len; ++i) v[i] = values[i] + r[i];
            values = v.data();
          }
          std::uint8_t* out = dst + chunk_byte_offset(mode, c);
          encode_chunk(mode, values, len, out);
          if (residual != nullptr) {
            decode_chunk(mode, out, len, dec.data());
            Real* r = residual->data() + lo;
            for (std::size_t i = 0; i < len; ++i) r[i] = v[i] - dec[i];
          }
        }
      });
}

void compress_decode_range(CompressMode mode, const std::uint8_t* src,
                           std::size_t n, std::size_t lo, std::size_t hi,
                           Real* dst) {
  CAGNET_CHECK(mode != CompressMode::kOff,
               "compress_decode_range: kOff has no encoded form");
  CAGNET_CHECK(lo <= hi && hi <= n,
               "compress_decode_range: range out of bounds");
  if (lo == hi) return;
  const auto c_lo = static_cast<Index>(lo / kCompressChunk);
  const auto c_hi = static_cast<Index>((hi - 1) / kCompressChunk) + 1;
  parallel_for(
      c_hi - c_lo,
      plan_chunks(static_cast<double>(hi - lo), kMinElemsPerChunk,
                  c_hi - c_lo),
      [&](Index i0, Index i1) {
        std::array<Real, kCompressChunk> tmp;
        for (Index i = i0; i < i1; ++i) {
          const Index c = c_lo + i;
          const std::size_t chunk_lo =
              static_cast<std::size_t>(c) * kCompressChunk;
          const std::size_t len = std::min(kCompressChunk, n - chunk_lo);
          const std::uint8_t* in = src + chunk_byte_offset(mode, c);
          const std::size_t want_lo = std::max(lo, chunk_lo);
          const std::size_t want_hi = std::min(hi, chunk_lo + len);
          if (want_lo == chunk_lo && want_hi == chunk_lo + len) {
            decode_chunk(mode, in, len, dst + (chunk_lo - lo));
          } else {
            decode_chunk(mode, in, len, tmp.data());
            std::memcpy(dst + (want_lo - lo), tmp.data() + (want_lo - chunk_lo),
                        sizeof(Real) * (want_hi - want_lo));
          }
        }
      });
}

}  // namespace cagnet
