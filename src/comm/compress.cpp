#include "src/comm/compress.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "src/util/error.hpp"
#include "src/util/knob.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {

namespace {

// ---------------------------------------------------------------------
// fp16 scalar conversions (portable bit manipulation, RN-even).

std::uint16_t encode_half(Real value) {
  const float f = static_cast<float>(value);
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const auto sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  const std::uint32_t mag = x & 0x7fffffffu;
  if (mag >= 0x7f800000u) {  // inf / nan
    return sign | (mag > 0x7f800000u ? 0x7e00u : 0x7c00u);
  }
  if (mag >= 0x38800000u) {  // normal half range
    // Round-to-nearest-even on the 13 dropped mantissa bits.
    const std::uint32_t rounded = mag + 0xfffu + ((mag >> 13) & 1u);
    if (rounded >= 0x47800000u) return sign | 0x7c00u;  // rounds to inf
    return sign |
           static_cast<std::uint16_t>((rounded - 0x38000000u) >> 13);
  }
  if (mag < 0x33000000u) return sign;  // underflows half subnormals
  // Subnormal half: value = mant * 2^(exp-150); the half subnormal unit
  // is 2^-24, so the quotient is mant >> (126 - exp), RN-even.
  const std::uint32_t exp = mag >> 23;
  const std::uint32_t mant = (mag & 0x7fffffu) | 0x800000u;
  const std::uint32_t shift = 126u - exp;  // in [14, 24]
  const std::uint32_t q = mant >> shift;
  const std::uint32_t rem = mant & ((1u << shift) - 1u);
  const std::uint32_t half_bit = 1u << (shift - 1);
  std::uint32_t h = q;
  if (rem > half_bit || (rem == half_bit && (q & 1u))) ++h;
  return sign | static_cast<std::uint16_t>(h);  // may carry into normals
}

Real decode_half(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  std::uint32_t x;
  if (exp == 0) {
    if (mant == 0) {
      x = sign;
    } else {
      // Normalize the subnormal into a float with an explicit exponent.
      std::uint32_t m = mant;
      std::uint32_t e = 113;
      while (!(m & 0x400u)) {
        m <<= 1;
        --e;
      }
      x = sign | (e << 23) | ((m & 0x3ffu) << 13);
    }
  } else if (exp == 31) {
    x = sign | 0x7f800000u | (mant << 13);
  } else {
    x = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  return static_cast<Real>(std::bit_cast<float>(x));
}

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
    case CompressMode::kFp16:
      return 2 * lo;
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
    case CompressMode::kFp16: {
      for (std::size_t i = 0; i < len; ++i) {
        const std::uint16_t h = encode_half(v[i]);
        std::memcpy(out + 2 * i, &h, 2);
      }
      return;
    }
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
    case CompressMode::kFp16: {
      for (std::size_t i = 0; i < len; ++i) {
        std::uint16_t h;
        std::memcpy(&h, in + 2 * i, 2);
        out[i] = decode_half(h);
      }
      return;
    }
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
    case CompressMode::kFp16:
      return "fp16";
    case CompressMode::kInt8:
      return "int8";
  }
  return "?";
}

CompressMode parse_compress_mode(const std::string& name) {
  if (name == "off") return CompressMode::kOff;
  if (name == "fp16") return CompressMode::kFp16;
  if (name == "int8") return CompressMode::kInt8;
  knob::reject("CAGNET_COMPRESS", name, "off, fp16, int8");
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
    case CompressMode::kFp16:
      return 2 * n;
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
