#include "src/core/costmodel.hpp"

#include <cmath>
#include <numeric>

#include "src/util/error.hpp"

namespace cagnet {

namespace {
double lg(double p) { return p <= 1 ? 0.0 : std::log2(p); }
}  // namespace

CostInputs CostInputs::from_random(double n, double nnz, double f, int p,
                                   int layers) {
  CostInputs in;
  in.n = n;
  in.nnz = nnz;
  in.f = f;
  in.p = p;
  in.layers = layers;
  in.edgecut = p > 0 ? n * (p - 1) / p : 0.0;
  return in;
}

CostInputs CostInputs::from_partition(const EdgeCutStats& cut, double n,
                                      double nnz, double f, int p,
                                      int layers) {
  CostInputs in = from_random(n, nnz, f, p, layers);
  in.edgecut = static_cast<double>(cut.max_remote_rows_per_part);
  return in;
}

CommCost cost_1d(const CostInputs& in) {
  const double L = in.layers;
  return {L * 3.0 * lg(in.p),
          L * (in.edgecut * in.f + in.n * in.f + in.f * in.f)};
}

CommCost cost_1d_symmetric(const CostInputs& in) {
  const double L = in.layers;
  return {L * 3.0 * lg(in.p), L * (2.0 * in.edgecut * in.f + in.f * in.f)};
}

CommCost cost_1d_halo_stale(const CostInputs& in, int stale_k) {
  CAGNET_CHECK(stale_k >= 1,
               "cost_1d_halo_stale: refresh interval must be >= 1");
  const double L = in.layers;
  const double k = stale_k;
  return {L * static_cast<double>(in.p - 1) / k, L * in.edgecut * in.f / k};
}

CommCost cost_1d_transposing(const CostInputs& in) {
  CommCost c = cost_1d_symmetric(in);
  c.latency_units += 2.0 * static_cast<double>(in.p) * in.p;
  c.words += 2.0 * in.nnz / in.p;
  return c;
}

CommCost cost_15d(const CostInputs& in, int c) {
  CAGNET_CHECK(c >= 1 && in.p % c == 0,
               "replication factor must divide process count");
  const double L = in.layers;
  const double cc = c;
  return {L * (3.0 * lg(in.p) + 4.0),
          L * (2.0 * in.n * in.f / cc + 3.0 * in.n * in.f * cc / in.p +
               in.f * in.f)};
}

CommCost cost_2d(const CostInputs& in) {
  const double L = in.layers;
  const double rp = std::sqrt(static_cast<double>(in.p));
  return {L * (5.0 * rp + 3.0 * lg(in.p)),
          L * (8.0 * in.n * in.f / rp + 2.0 * in.nnz / rp + in.f * in.f)};
}

CommCost cost_2d_rectangular_forward(const CostInputs& in, int pr, int pc) {
  CAGNET_CHECK(pr >= 1 && pc >= 1 && pr * pc == in.p,
               "grid must multiply to P");
  return {static_cast<double>(std::gcd(pr, pc)),
          in.nnz / pr + in.n * in.f / pc + in.n * in.f / pr};
}

CommCost cost_3d(const CostInputs& in) {
  const double L = in.layers;
  const double p13 = std::cbrt(static_cast<double>(in.p));
  const double p23 = p13 * p13;
  return {L * 4.0 * p13,
          L * (2.0 * in.nnz / p23 + 12.0 * in.n * in.f / p23)};
}

// Memory accounting (words per process). Dense layer state is H^l for all
// L layers plus gradients of comparable size; we count the dominant terms:
// adjacency share + L dense activation shares (replicated per the scheme) +
// replicated weights L f^2.
double memory_words_1d(const CostInputs& in) {
  const double L = in.layers;
  return in.nnz / in.p + L * in.n * in.f / in.p + L * in.f * in.f;
}

double memory_words_15d(const CostInputs& in, int c) {
  const double L = in.layers;
  return in.nnz / in.p + L * c * in.n * in.f / in.p + L * in.f * in.f;
}

double memory_words_2d(const CostInputs& in) {
  const double L = in.layers;
  return in.nnz / in.p + L * in.n * in.f / in.p + L * in.f * in.f;
}

double memory_words_3d(const CostInputs& in) {
  const double L = in.layers;
  const double p13 = std::cbrt(static_cast<double>(in.p));
  // Inputs are unreplicated (1/P each); the intermediate stage carries the
  // well-known P^(1/3) dense replication factor (Section IV-D.1).
  return in.nnz / in.p + L * p13 * in.n * in.f / in.p + L * in.f * in.f;
}

const char* algorithm_name(int which) {
  switch (which) {
    case 0:
      return "1D";
    case 1:
      return "1.5D";
    case 2:
      return "2D";
    case 3:
      return "3D";
    default:
      return "?";
  }
}

}  // namespace cagnet
