#include "src/core/algebra_registry.hpp"

#include "src/comm/grid.hpp"
#include "src/core/dist15d.hpp"
#include "src/core/dist3d.hpp"
#include "src/util/error.hpp"

namespace cagnet {

const std::vector<AlgebraSpec>& algebra_registry() {
  static const std::vector<AlgebraSpec> registry = [] {
    std::vector<AlgebraSpec> specs;
    specs.push_back(
        {"1d", [](int p) { return p >= 1; }, {1, 2, 3, 4, 7, 8},
         [](const DistProblem& problem, Comm& world, const RunConfig& run,
            MachineModel machine) {
           return std::make_unique<Algebra15D>(problem, world, 1, run, machine);
         }});
    specs.push_back(
        {"1.5d-c2", [](int p) { return p >= 2 && p % 2 == 0; }, {2, 4, 6, 8},
         [](const DistProblem& problem, Comm& world, const RunConfig& run,
            MachineModel machine) {
           return std::make_unique<Algebra15D>(problem, world, 2, run, machine);
         }});
    specs.push_back(
        {"1.5d-c4", [](int p) { return p >= 4 && p % 4 == 0; }, {4, 8, 16},
         [](const DistProblem& problem, Comm& world, const RunConfig& run,
            MachineModel machine) {
           return std::make_unique<Algebra15D>(problem, world, 4, run, machine);
         }});
    specs.push_back(
        {"2d", [](int p) { return exact_sqrt(p) > 0; }, {1, 4, 9, 16},
         [](const DistProblem& problem, Comm& world, const RunConfig& run,
            MachineModel machine) {
           return std::make_unique<Algebra3D>(problem, world, 1, run, machine);
         }});
    specs.push_back(
        {"3d", [](int p) { return exact_cbrt(p) > 0; }, {1, 8, 27},
         [](const DistProblem& problem, Comm& world, const RunConfig& run,
            MachineModel machine) {
           return std::make_unique<Algebra3D>(
               problem, world, exact_cbrt(world.size()), run, machine);
         }});
    return specs;
  }();
  return registry;
}

const AlgebraSpec* find_algebra(const std::string& name) {
  for (const AlgebraSpec& spec : algebra_registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<DistTrainer> make_dist_trainer(const std::string& name,
                                               const DistProblem& problem,
                                               GnnConfig config, Comm& world,
                                               const RunConfig& run,
                                               MachineModel machine) {
  const AlgebraSpec* spec = find_algebra(name);
  CAGNET_CHECK(spec != nullptr, "unknown algebra: " + name);
  return std::make_unique<DistEngine>(
      problem, std::move(config), spec->make(problem, world, run, machine));
}

std::unique_ptr<DistTrainer> make_dist_trainer(const std::string& name,
                                               const DistProblem& problem,
                                               GnnConfig config,
                                               Comm& world) {
  return make_dist_trainer(name, problem, std::move(config), world,
                           RunConfig::from_env());
}

}  // namespace cagnet
