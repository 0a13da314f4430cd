// Analytical per-epoch communication costs of Section IV.
//
// These closed forms are the paper's primary contribution; the benches
// cross-check them against the metered traffic of the actual distributed
// trainers and regenerate the 1D vs 2D vs 3D comparisons of Section VI-d
// (e.g. "the 2D algorithm moves (5/sqrt(P))-th of the data moved by 1D" and
// the sqrt(P) >= 5 crossover).
#pragma once

#include <string>

#include "src/comm/machine.hpp"
#include "src/graph/partition.hpp"
#include "src/util/types.hpp"

namespace cagnet {

/// Problem shape entering the closed forms.
struct CostInputs {
  double n = 0;        ///< vertices
  double nnz = 0;      ///< nonzeros of A (edges + self loops)
  double f = 0;        ///< average feature-vector length across layers
  double edgecut = 0;  ///< edgecut_P(A); n(P-1)/P for random partitioning
  int p = 1;           ///< processes
  int layers = 1;      ///< L

  /// Inputs with the random-partitioning edgecut bound n(P-1)/P (what
  /// Algorithm 1's dense broadcasts realize).
  static CostInputs from_random(double n, double nnz, double f, int p,
                                int layers);

  /// Inputs with a *measured* edgecut_P(A) — the max distinct remote rows
  /// any process receives under an actual partition (Section IV-A.8) —
  /// so predicted and metered volumes agree for partitioned halo runs.
  static CostInputs from_partition(const EdgeCutStats& cut, double n,
                                   double nnz, double f, int p, int layers);
};

/// A latency/bandwidth pair in alpha-units and words.
struct CommCost {
  double latency_units = 0;  ///< multiply by alpha
  double words = 0;          ///< multiply by beta

  double seconds(const MachineModel& m) const {
    return m.alpha * latency_units + m.beta * words;
  }
};

/// 1D block row (Section IV-A.5): per epoch,
///   lat = 3 L lg P,   words = L (edgecut*f + n*f + f^2).
CommCost cost_1d(const CostInputs& in);

/// 1D symmetric case (Eq. 2): words = L (2*edgecut*f + f^2).
CommCost cost_1d_symmetric(const CostInputs& in);

/// Forward-halo traffic alone under a bounded-staleness refresh every
/// `stale_k` epochs (CAGNET_STALE; stale_k = 1 is the exact per-epoch
/// exchange). Amortized per epoch: the exact forward halo moves
/// L * edgecut * f words and L (P-1) messages, and a refresh interval of
/// k ships 1/k of both — the predicted counterpart of the metered kHalo
/// drop and of CostMeter::stale_saved_words (predicted savings = exact
/// minus this).
CommCost cost_1d_halo_stale(const CostInputs& in, int stale_k);

/// 1D transposing variant (Section IV-A.7): symmetric cost plus
/// 2 alpha p^2 + 2 beta nnz/P per epoch for the two transposes.
CommCost cost_1d_transposing(const CostInputs& in);

/// 1.5D with replication factor c (Section IV-B discusses the family
/// without formulas; this matches our Dist15D implementation, which
/// replicates the dense matrices c-fold):
///   lat = L (3 lg P + 4),  words = L (2 n f / c + 3 n f c / P + f^2).
CommCost cost_15d(const CostInputs& in, int c);

/// 2D SUMMA on a sqrt(P) x sqrt(P) grid (Section IV-C.5):
///   lat = L (5 sqrt(P) + 3 lg P),
///   words = L (8 n f / sqrt(P) + 2 nnz / sqrt(P) + f^2).
CommCost cost_2d(const CostInputs& in);

/// 2D on a rectangular Pr x Pc grid, forward-propagation term only
/// (Section IV-C.6): lat = gcf(Pr, Pc), words = nnz/Pr + nf/Pc + nf/Pr.
CommCost cost_2d_rectangular_forward(const CostInputs& in, int pr, int pc);

/// 3D split on a cbrt(P)^3 mesh (Section IV-D.5):
///   lat = 4 L P^(1/3),
///   words = L (2 nnz / P^(2/3) + 12 n f / P^(2/3)).
CommCost cost_3d(const CostInputs& in);

/// Per-process memory words for storing A, H (all layers), and W under each
/// distribution, used for the 3D replication-cost discussion and the 1.5D
/// ablation. Includes the P^(1/3) (3D) and c (1.5D) replication factors on
/// intermediate/dense storage.
double memory_words_1d(const CostInputs& in);
double memory_words_15d(const CostInputs& in, int c);
double memory_words_2d(const CostInputs& in);
double memory_words_3d(const CostInputs& in);

const char* algorithm_name(int which);  ///< 0=1D,1=1.5D,2=2D,3=3D (display)

}  // namespace cagnet
