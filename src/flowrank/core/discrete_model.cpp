#include "flowrank/core/discrete_model.hpp"

#include "flowrank/core/discrete_context.hpp"

namespace flowrank::core {

DiscreteModelResult evaluate_discrete_ranking_model(const DiscreteModelConfig& config) {
  return DiscreteModelContext(discrete_context_config(config)).evaluate(config.n, config.t);
}

}  // namespace flowrank::core
