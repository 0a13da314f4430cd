// The per-run modes of a distributed trainer, as one explicit value.
//
// make_dist_trainer passes a RunConfig to the algebra, which validates and
// keeps it; the engine and the sampled runner read theirs there. Modes are
// trainer state, so trainers with different modes can share a process or
// a world. Binaries start from RunConfig::from_env() and apply their flags
// on top; tests start from RunConfig{} (the exact broadcast path). See
// DESIGN.md, "Run configuration", and README.md, "Knobs".
#pragma once

#include <string>
#include <vector>

#include "src/comm/compress.hpp"
#include "src/util/knob.hpp"
#include "src/util/types.hpp"

namespace cagnet {

/// RunConfig::stale_k value selecting the adaptive per-peer refresh policy.
inline constexpr int kStaleAdaptive = -1;

struct RunConfig {
  /// Sparsity-aware halo exchange of the 1D / 1.5D forward (and, when the
  /// halo_backward_profitable gate passes, backward) instead of Algorithm
  /// 1's broadcasts (CAGNET_HALO). Bitwise identical results; fewer
  /// words. 2D / 3D ignore it.
  bool halo = false;
  /// Wire codec (CAGNET_COMPRESS): the gradient all-reduce takes every
  /// codec, row payloads take row_compress().
  CompressMode compress = CompressMode::kOff;
  /// Bounded-staleness refresh interval of the halo forward
  /// (CAGNET_STALE): 0 off, k >= 1 (1 is the exact path bitwise), or
  /// kStaleAdaptive, whose per-peer intervals stay in [stale_min,
  /// stale_max] (CAGNET_STALE_MIN / CAGNET_STALE_MAX). Needs `halo`.
  int stale_k = 0;
  int stale_min = 1;
  int stale_max = 8;
  /// Aggregation before communication on the halo forward
  /// (CAGNET_PREAGG); moves only the summation order. Needs `halo`.
  bool preagg = false;
  /// Sampled minibatch epochs (CAGNET_SAMPLE); 1D only, any other
  /// algebra throws Error at construction.
  bool sample = false;
  /// Per-hop fanouts, outermost hop first, one per layer; kSampleAll is
  /// uncapped (CAGNET_SAMPLE_FANOUT, "inf" or "all").
  std::vector<Index> sample_fanouts = {15, 10, 5};
  /// Minibatch size over the labeled vertices (CAGNET_SAMPLE_BATCH).
  Index sample_batch = 64;
  /// Epoch-invariant adjacency caches of the 2D / 3D families. Test-only
  /// (no knob): off re-runs the epoch-1 communication every epoch.
  bool epoch_cache = true;

  /// Codec of row payloads (halo rows, feature reduce-scatters): fp16 and
  /// int8 only. 1-bit collapses activations to two values per chunk,
  /// which the aggregation cannot absorb the way the error-feedback
  /// gradient loop can, so k1Bit leaves row traffic exact.
  CompressMode row_compress() const {
    return compress == CompressMode::k1Bit ? CompressMode::kOff : compress;
  }

  /// Throws Error on an out-of-range field.
  void validate() const;

  /// Every knob's env spelling ("CAGNET_HALO=1 CAGNET_COMPRESS=int8 ..."):
  /// parse() of it returns this value (epoch_cache has no knob).
  std::string to_string() const;

  /// The knobs from `lookup`, validated; unset or empty knobs keep their
  /// defaults, and a value outside the grammar (src/util/knob.hpp) throws
  /// an Error naming the knob, the value and the accepted spellings.
  static RunConfig parse(const knob::Lookup& lookup);

  /// parse() of the process environment.
  static RunConfig from_env();

  bool operator==(const RunConfig&) const = default;
};

}  // namespace cagnet
