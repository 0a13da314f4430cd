// Lossy codecs for compressed communication (the PR's words-to-bits
// multiplier on top of the overlap/halo word reductions).
//
// Two codecs, both operating on fixed 256-element chunks so the encoded
// layout — and therefore the decoded values — never depend on the thread
// budget used to pack them:
//
//   fp16  2 bytes/value. IEEE half with round-to-nearest-even; values
//         beyond half range saturate to +-inf (never happens for the
//         gradients this repo moves). 4x over Real.
//   int8  per chunk: [float scale = max|v|/127][int8 q_i], 4 + len bytes.
//         q_i = round(v_i / scale) clamped to [-127, 127]. ~7.9x.
//
// Error feedback: pass a residual store to compress_encode and it encodes
// v = src + residual, then leaves residual = v - decode(encode(v)), so
// the quantization error of one reduction round is re-injected into the
// next. The residual is computed entirely at encode time — no decode
// round-trip is needed on the receive side.
//
// Encode and decode parallelize over codec chunks on the persistent pool
// (src/util/parallel.hpp); chunk outputs are disjoint, so results are
// bitwise deterministic for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/types.hpp"

namespace cagnet {

/// Wire codecs (RunConfig::compress, the CAGNET_COMPRESS knob).
enum class CompressMode : std::uint8_t {
  kOff = 0,  ///< exact Real payloads (today's paths, bitwise unchanged)
  kFp16,     ///< IEEE half precision, 4x
  kInt8,     ///< per-chunk max-scaled int8, ~7.9x
};

/// Display/parse name: "off", "fp16", "int8".
const char* compress_mode_name(CompressMode mode);

/// Parse a CAGNET_COMPRESS value; throws Error on an unknown string.
CompressMode parse_compress_mode(const std::string& name);

/// Values per codec chunk. Fixed so the encoded layout is independent of
/// the thread budget (bitwise-deterministic pack/unpack).
constexpr std::size_t kCompressChunk = 256;

/// True when the compressed reduce-scatter actually undercuts the exact
/// op's wire bytes. Its transport is an all-gather of every rank's full
/// encoded contribution (plus a u64 length header each), so the byte win
/// is roughly (8/P) x the codec ratio: int8 pays up to P ~ 7, fp16
/// never. Callers fall back to the exact reduce-scatter when
/// compression would inflate the wire; the gate is a pure function of
/// (mode, n, p), so it is rank-uniform.
bool reduce_scatter_compression_pays(CompressMode mode, std::size_t n, int p);

/// Encoded byte count for n values. kOff reports the uncompressed
/// n * sizeof(Real) so callers can form compression ratios.
std::size_t encoded_size_bytes(CompressMode mode, std::size_t n);

/// Encode src into dst (which must hold encoded_size_bytes(mode, n)
/// bytes). With a non-null residual the codec applies error feedback:
/// it encodes v = src + residual and stores v - decode(encode(v)) back
/// into residual (resized and zeroed on first use or length change).
void compress_encode(CompressMode mode, std::span<const Real> src,
                     std::uint8_t* dst, std::vector<Real>* residual);

/// Decode elements [lo, hi) of an n-value encoded buffer into
/// dst[0 .. hi-lo). Ranges may start mid-chunk (used by the compressed
/// reduce-scatter, where each rank decodes only its own output slice).
void compress_decode_range(CompressMode mode, const std::uint8_t* src,
                           std::size_t n, std::size_t lo, std::size_t hi,
                           Real* dst);

/// Decode all n values.
inline void compress_decode(CompressMode mode, const std::uint8_t* src,
                            std::size_t n, Real* dst) {
  compress_decode_range(mode, src, n, 0, n, dst);
}

}  // namespace cagnet
