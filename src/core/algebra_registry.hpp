// Registry of the distributed SpMM algebras the shared engine can drive.
//
// Each paper algorithm registers a name, a validity predicate on the world
// size, a representative list of valid world sizes (for parameterized
// parity tests and shoot-out tools), and a factory. Adding a new
// partitioning (e.g. an ABC-style aggregation-before-communication scheme)
// is one DistSpmmAlgebra subclass plus one AlgebraSpec entry here — the
// engine, the parity tests, and the benches pick it up automatically.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dist_engine.hpp"

namespace cagnet {

struct AlgebraSpec {
  /// Unique registry key ("1d", "1.5d-c2", "2d", ...).
  std::string name;

  /// Which simulated world sizes this algebra accepts.
  std::function<bool(int world_size)> accepts;

  /// Representative valid world sizes exercised by the parity tests.
  std::vector<int> world_sizes;

  /// Collective factory: call on every rank of `world`.
  std::function<std::unique_ptr<DistSpmmAlgebra>(
      const DistProblem& problem, Comm& world, const RunConfig& run,
      MachineModel machine)>
      make;
};

/// All registered algebras (1D, which is the 1.5D family at c = 1; 1.5D
/// at c = 2 and 4; 2D, which is the 3D family at l = 1; 3D).
const std::vector<AlgebraSpec>& algebra_registry();

/// Lookup by name; nullptr when unknown.
const AlgebraSpec* find_algebra(const std::string& name);

/// Build the shared engine over the named algebra with the modes of
/// `run`. Collective: call on every rank of `world` with the same `run`.
/// Throws on an unknown name, an invalid world size for that algebra, or
/// modes the algebra cannot run (RunConfig::validate, sampling off 1D).
std::unique_ptr<DistTrainer> make_dist_trainer(
    const std::string& name, const DistProblem& problem, GnnConfig config,
    Comm& world, const RunConfig& run,
    MachineModel machine = MachineModel::summit());

/// make_dist_trainer with RunConfig::from_env(): the process
/// environment's modes, for programs that take them from CAGNET_* knobs
/// alone.
std::unique_ptr<DistTrainer> make_dist_trainer(const std::string& name,
                                               const DistProblem& problem,
                                               GnnConfig config, Comm& world);

/// Run `build` — a collective trainer construction, typically
/// make_dist_trainer — and leave this rank's set-up traffic, the world
/// meter's charges across it (a MeterWindow), in `setup`; returns what
/// `build` returns. The set-up moves layer 1's aggregate T^1 = A^T X
/// once (DESIGN.md "Substitutions") plus one-time kControl plan traffic,
/// neither of which any epoch's meter holds. Max-reduce `setup` for
/// world-wide figures.
template <typename Build>
auto build_metered(Comm& world, CostMeter& setup, Build build) {
  const MeterWindow window(world.meter());
  auto trainer = build();
  setup = window.charges();
  return trainer;
}

}  // namespace cagnet
