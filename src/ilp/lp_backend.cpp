#include "ilp/lp_backend.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

#include "ilp/dual_simplex.h"
#include "ilp/revised_simplex.h"

namespace pdw::ilp {

namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, LpBackendFactory> factories;

  Registry() {
    factories["dense"] = [](const Model& model, const SolveParams& params) {
      return std::make_unique<SimplexEngine>(model, params);
    };
    factories["revised"] = [](const Model& model, const SolveParams& params) {
      return std::make_unique<RevisedSimplex>(model, params);
    };
  }

  static Registry& instance() {
    static Registry registry;
    return registry;
  }
};

}  // namespace

void registerLpBackend(const std::string& name, LpBackendFactory factory) {
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.factories[name] = std::move(factory);
}

const std::string& defaultLpBackendName() {
  static const std::string name = "revised";
  return name;
}

std::unique_ptr<LpBackend> makeLpBackend(const std::string& name,
                                         const Model& model,
                                         const SolveParams& params) {
  Registry& reg = Registry::instance();
  const std::string& resolved = name.empty() ? defaultLpBackendName() : name;
  LpBackendFactory factory;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.factories.find(resolved);
    if (it == reg.factories.end())
      throw std::invalid_argument("unknown LP backend '" + resolved + "'");
    factory = it->second;
  }
  return factory(model, params);
}

bool isLpBackendName(const std::string& name) {
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.factories.contains(name);
}

std::vector<std::string> lpBackendNames() {
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.factories.size());
  for (const auto& [name, factory] : reg.factories) names.push_back(name);
  return names;
}

}  // namespace pdw::ilp
