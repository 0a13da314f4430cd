#include "src/comm/grid.hpp"

namespace cagnet {

int exact_sqrt(int p) {
  for (int r = 0; r * r <= p; ++r) {
    if (r * r == p) return r;
  }
  return 0;
}

int exact_cbrt(int p) {
  for (int r = 0; r * r * r <= p; ++r) {
    if (r * r * r == p) return r;
  }
  return 0;
}

Grid3D Grid3D::create(const Comm& world, int q, int l) {
  CAGNET_CHECK(world.valid(), "invalid world communicator");
  CAGNET_CHECK(q >= 1 && l >= 1 && q * q * l == world.size(),
               "grid dims q x q x l must multiply to world size");
  Grid3D g;
  g.world = world;
  g.q = q;
  g.l = l;
  const int rank = world.rank();
  g.k = rank / (q * q);
  g.i = (rank / q) % q;
  g.j = rank % q;
  g.row = world.split(/*color=*/g.k * q + g.i, /*key=*/g.j);
  g.col = world.split(/*color=*/g.k * q + g.j, /*key=*/g.i);
  if (l > 1) g.fiber = world.split(/*color=*/g.i * q + g.j, /*key=*/g.k);
  return g;
}

}  // namespace cagnet
