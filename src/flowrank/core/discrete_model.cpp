#include "flowrank/core/discrete_model.hpp"

#include <stdexcept>

#include "flowrank/core/discrete_context.hpp"

namespace flowrank::core {

DiscreteModelResult evaluate_discrete_ranking_model(const DiscreteModelConfig& config) {
  // Validation order preserved from the pre-context implementation
  // (size_pmf, then the t range, then everything the context checks).
  if (!config.size_pmf) {
    throw std::invalid_argument("discrete model: size_pmf is required");
  }
  if (config.t < 1 || config.t > config.n) {
    throw std::invalid_argument("discrete model: requires 1 <= t <= N");
  }
  DiscreteContextConfig ctx_config;
  ctx_config.p = config.p;
  ctx_config.size_pmf = config.size_pmf;
  ctx_config.max_size = config.max_size;
  ctx_config.tail_tolerance = config.tail_tolerance;
  ctx_config.gaussian_pairwise = config.gaussian_pairwise;
  ctx_config.num_threads = config.num_threads;
  return DiscreteModelContext(ctx_config).evaluate(config.n, config.t);
}

}  // namespace flowrank::core
