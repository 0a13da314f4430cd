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

struct RunConfig {
  /// Sparsity-aware halo exchange of the 1D / 1.5D forward (and, when the
  /// halo_backward_profitable gate passes, backward) instead of Algorithm
  /// 1's broadcasts (CAGNET_HALO). Bitwise identical results; fewer
  /// words. 2D / 3D ignore it.
  bool halo = false;
  /// Wire codec (CAGNET_COMPRESS) of the gradient all-reduce and the row
  /// payloads (halo rows, feature reduce-scatters).
  CompressMode compress = CompressMode::kOff;
  /// Bounded-staleness refresh interval of the halo forward
  /// (CAGNET_STALE): 0 off, k >= 1 (1 is the exact path bitwise). Needs
  /// `halo`.
  int stale_k = 0;
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

  /// Throws Error on an out-of-range field.
  void validate() const;

  /// Every knob's env spelling ("CAGNET_HALO=1 CAGNET_COMPRESS=int8 ..."):
  /// parse() of it returns this value.
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
