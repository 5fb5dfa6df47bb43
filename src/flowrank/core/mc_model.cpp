#include "flowrank/core/mc_model.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "flowrank/exec/task_pool.hpp"
#include "flowrank/metrics/rank_metrics.hpp"
#include "flowrank/util/binomial_sample.hpp"

namespace flowrank::core {

double McModelResult::ranking_stderr() const {
  return ranking_metric.count() < 2
             ? 0.0
             : ranking_metric.stddev() /
                   std::sqrt(static_cast<double>(ranking_metric.count()));
}

double McModelResult::detection_stderr() const {
  return detection_metric.count() < 2
             ? 0.0
             : detection_metric.stddev() /
                   std::sqrt(static_cast<double>(detection_metric.count()));
}

McModelResult run_mc_model(const RankingModelConfig& config, int runs,
                           std::uint64_t seed, std::size_t num_threads) {
  if (!config.size_dist) {
    throw std::invalid_argument("run_mc_model: size_dist is required");
  }
  if (config.t < 1 || config.t > config.n) {
    throw std::invalid_argument("run_mc_model: requires 1 <= t <= N");
  }
  if (!(config.p > 0.0 && config.p <= 1.0)) {
    throw std::invalid_argument("run_mc_model: requires p in (0,1]");
  }
  if (runs < 1) throw std::invalid_argument("run_mc_model: runs >= 1");

  const auto n = static_cast<std::size_t>(config.n);

  // One slot per run; runs execute in any order on the pool (each derives
  // its own engine stream), and the slots are folded below in run order so
  // the Welford accumulation sequence — and therefore every output bit —
  // matches the sequential path at any thread count.
  struct RunOutput {
    double ranking = 0.0;
    double detection = 0.0;
    double recall = 0.0;
  };
  std::vector<RunOutput> outputs(static_cast<std::size_t>(runs));

  const auto run_one = [&](std::size_t run) {
    // Reused per worker thread across runs (hoisted out of the per-flow
    // loop, where the seed path also constructed a fresh
    // std::binomial_distribution per flow).
    thread_local std::vector<std::uint64_t> true_sizes;
    thread_local std::vector<std::uint64_t> sampled_sizes;
    true_sizes.resize(n);
    sampled_sizes.resize(n);

    // The thinner draws exactly binomial_sample's stream (p = 1 included:
    // it returns n without drawing), with the inversion tables built once
    // per run instead of the setup per flow.
    util::BinomialThinner thin(config.p);
    auto engine = util::make_engine(seed, static_cast<std::uint64_t>(run));
    for (std::size_t i = 0; i < n; ++i) {
      const double s = config.size_dist->sample(engine);
      true_sizes[i] = static_cast<std::uint64_t>(std::llround(std::max(1.0, s)));
      sampled_sizes[i] = thin(true_sizes[i], engine);
    }
    const auto m = metrics::compute_rank_metrics(
        true_sizes, sampled_sizes, static_cast<std::size_t>(config.t));
    outputs[run] = RunOutput{m.ranking_swapped, m.detection_swapped,
                             m.top_set_recall};
  };

  const std::size_t threads = exec::TaskPool::resolve_parallelism(num_threads);
  exec::TaskPool& pool = exec::TaskPool::shared();
  pool.ensure_workers(threads - 1);
  pool.parallel_for(outputs.size(), run_one, threads);

  McModelResult result;
  for (const RunOutput& out : outputs) {
    result.ranking_metric.add(out.ranking);
    result.detection_metric.add(out.detection);
    result.top_set_recall.add(out.recall);
  }
  return result;
}

}  // namespace flowrank::core
