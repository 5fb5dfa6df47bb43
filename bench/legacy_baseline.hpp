// Frozen copies of the pre-batching ingest path, kept verbatim so the
// seed-path-vs-batch benchmark pair in micro_throughput.cpp keeps
// measuring against the same baseline as the library evolves:
//
//  * LegacyFlowTable   — std::unordered_map-backed classifier (one node
//                        allocation + pointer chase per new flow, hash
//                        probe per packet);
//  * LegacyBernoulli   — per-packet coin flip, constructing a fresh
//                        std::bernoulli_distribution on every offer();
//  * legacy_run_binned_simulation — the PR 2 sequential Monte-Carlo
//                        sweep (per-flow std::binomial_distribution
//                        construction, per-run true-ranking sort);
//  * legacy_misranking_gaussian — Eq. (2) as the continuous ranking model
//                        evaluated it pair by pair before it cached pair
//                        spreads (validate, divide, square root and the
//                        platform libm's erfc per call), with
//                        legacy_ranking_pair_terms listing the pairs one
//                        evaluation called it on;
//  * legacy_pareto_tail_quantile — Pareto::tail_quantile as it was before
//                        the in-repo log and exp kernels: one std::pow per
//                        size, called once per value.
//
// Bench-only: nothing in the library links this header.
#pragma once

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "flowrank/core/model_common.hpp"
#include "flowrank/core/ranking_model.hpp"
#include "flowrank/flowtable/flow_table.hpp"
#include "flowrank/metrics/rank_metrics.hpp"
#include "flowrank/numeric/binomial.hpp"
#include "flowrank/numeric/quadrature.hpp"
#include "flowrank/packet/flow_key.hpp"
#include "flowrank/packet/records.hpp"
#include "flowrank/sim/binned_sim.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/util/rng.hpp"

namespace bench {

class LegacyFlowTable {
 public:
  explicit LegacyFlowTable(flowrank::flowtable::FlowTable::Options options)
      : options_(options) {}

  void add(const flowrank::packet::PacketRecord& pkt) {
    const auto key = flowrank::packet::make_flow_key(pkt.tuple, options_.definition);
    auto [it, inserted] = table_.try_emplace(key);
    flowrank::flowtable::FlowCounter& counter = it->second;

    if (!inserted && options_.idle_timeout_ns > 0 &&
        pkt.timestamp_ns - counter.last_ns > options_.idle_timeout_ns) {
      completed_.push_back(counter);
      counter = flowrank::flowtable::FlowCounter{};
    }

    counter.key = key;
    ++counter.packets;
    counter.bytes += pkt.size_bytes;
    counter.first_ns = std::min(counter.first_ns, pkt.timestamp_ns);
    counter.last_ns = std::max(counter.last_ns, pkt.timestamp_ns);
    if (pkt.tuple.protocol == flowrank::packet::Protocol::kTcp) {
      counter.min_tcp_seq = std::min(counter.min_tcp_seq, pkt.tcp_seq);
      counter.max_tcp_seq = std::max(counter.max_tcp_seq, pkt.tcp_seq);
      counter.has_tcp_seq = true;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }

  void clear() {
    table_.clear();
    completed_.clear();
  }

 private:
  flowrank::flowtable::FlowTable::Options options_;
  std::unordered_map<flowrank::packet::FlowKey, flowrank::flowtable::FlowCounter,
                     flowrank::packet::FlowKeyHash>
      table_;
  std::vector<flowrank::flowtable::FlowCounter> completed_;
};

/// The seed implementation of the exact two-flow misranking probability
/// (Eq. 1): one independently evaluated binomial pmf and one
/// incomplete-beta cdf per term of the sum. The library version now runs
/// on memoized recurrence sweeps; this copy is the "hours" baseline of
/// the paper's hours-vs-seconds ablation.
inline double legacy_misranking_exact(std::int64_t s1, std::int64_t s2, double p) {
  if (p == 0.0) return 1.0;
  if (s1 == s2) {
    double agree = 0.0;
    for (std::int64_t i = 1; i <= s1; ++i) {
      const double b = flowrank::numeric::binomial_pmf(i, s1, p);
      agree += b * b;
      if (b < 1e-18 && i > static_cast<std::int64_t>(p * s1) + 1) break;
    }
    return 1.0 - agree;
  }
  const std::int64_t small = std::min(s1, s2);
  const std::int64_t big = std::max(s1, s2);
  double acc = 0.0;
  for (std::int64_t i = 0; i <= small; ++i) {
    const double b = flowrank::numeric::binomial_pmf(i, small, p);
    if (b == 0.0) continue;
    acc += b * flowrank::numeric::binomial_cdf(i, big, p);
  }
  return std::min(acc, 1.0);
}

class LegacyBernoulli {
 public:
  LegacyBernoulli(double p, std::uint64_t seed)
      : p_(p), engine_(flowrank::util::make_engine(seed, 0xBE44u)) {}

  [[nodiscard]] bool offer(const flowrank::packet::PacketRecord&) {
    std::bernoulli_distribution coin(p_);
    return coin(engine_);
  }

 private:
  double p_;
  flowrank::util::Engine engine_;
};

/// The PR 2 count-path sweep, frozen verbatim: sequential walk of the
/// rates x bins x runs grid, a fresh std::binomial_distribution per flow
/// per run for the thinning, and one full compute_rank_metrics call per
/// run (re-sorting the run-invariant true ranking every time). This is
/// the single-threaded baseline the TaskPool + RankMetricsContext +
/// util::binomial_sample path in sim::run_binned_simulation is measured
/// against (BM_BinnedSimSweep vs BM_BinnedSimSweepSeedPath).
inline flowrank::sim::SimResult legacy_run_binned_simulation(
    const flowrank::trace::FlowTrace& trace,
    const flowrank::sim::SimConfig& config) {
  namespace sim = flowrank::sim;
  const flowrank::trace::BinnedCounts counts = flowrank::trace::bin_flow_counts(
      trace, config.bin_seconds, config.definition, /*placement_seed=*/config.seed);

  sim::SimResult result;
  result.config = config;
  result.series.resize(config.sampling_rates.size());

  std::vector<std::uint64_t> true_sizes;
  std::vector<std::uint64_t> sampled_sizes;

  for (std::size_t rate_idx = 0; rate_idx < config.sampling_rates.size(); ++rate_idx) {
    const double p = config.sampling_rates[rate_idx];
    sim::RateSeries& series = result.series[rate_idx];
    series.sampling_rate = p;
    series.bins.resize(counts.bins.size());

    for (std::size_t b = 0; b < counts.bins.size(); ++b) {
      const auto& bin = counts.bins[b];
      series.bins[b].flows_in_bin = bin.size();
      if (bin.size() < config.top_t) continue;  // not enough flows to rank

      true_sizes.resize(bin.size());
      sampled_sizes.resize(bin.size());
      for (std::size_t i = 0; i < bin.size(); ++i) true_sizes[i] = bin[i].packets;

      for (int run = 0; run < config.runs; ++run) {
        auto engine = flowrank::util::make_engine(
            config.seed,
            flowrank::util::mix_streams(rate_idx, static_cast<std::uint64_t>(run), b));
        for (std::size_t i = 0; i < bin.size(); ++i) {
          if (true_sizes[i] == 0 || p == 0.0) {
            sampled_sizes[i] = 0;
          } else if (p == 1.0) {
            sampled_sizes[i] = true_sizes[i];
          } else {
            std::binomial_distribution<std::uint64_t> thin(true_sizes[i], p);
            sampled_sizes[i] = thin(engine);
          }
        }
        const auto m = flowrank::metrics::compute_rank_metrics(
            true_sizes, sampled_sizes, config.top_t, config.tie_policy);
        series.bins[b].ranking.add(m.ranking_swapped);
        series.bins[b].detection.add(m.detection_swapped);
        series.bins[b].recall.add(m.top_set_recall);
      }
    }
  }
  return result;
}

inline double legacy_pareto_tail_quantile(double min, double beta, double y) {
  if (!(y > 0.0 && y <= 1.0)) {
    throw std::domain_error("tail_quantile: y must be in (0, 1]");
  }
  return min * std::pow(y, -1.0 / beta);
}

inline double legacy_misranking_gaussian(double s1, double s2, double p) {
  if (!(s1 > 0.0) || !(s2 > 0.0)) {
    throw std::invalid_argument("misranking_gaussian: sizes must be > 0");
  }
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("misranking_gaussian: p in (0,1]");
  }
  const double variance_scale = 2.0 * (1.0 / p - 1.0) * (s1 + s2);
  if (variance_scale == 0.0) return s1 == s2 ? 0.5 : 0.0;
  return 0.5 * std::erfc(std::abs(s2 - s1) / std::sqrt(variance_scale));
}

/// The (first, second) size arguments of every Eq. (2) call one
/// evaluation of `config`'s quadrature grid makes, in order: per outer
/// node, its A integral (companion smaller) then its B integral, each
/// laid out by core::TowardLayout as core/ranking_model.cpp does.
struct LegacyPairTerms {
  std::vector<double> first, second;
};

inline LegacyPairTerms legacy_ranking_pair_terms(
    const flowrank::core::RankingModelConfig& config) {
  namespace fc = flowrank::core;
  const auto& dist = *config.size_dist;
  const auto& quad = config.quad;
  const double y_max =
      std::min(1.0, fc::outer_z_max(config.t, quad) / static_cast<double>(config.n));
  const double width = y_max / quad.outer_panels;
  LegacyPairTerms terms;
  const fc::TowardLayout layout(quad);
  const auto append = [&](double lo, double hi, bool focus_on_lo, double x) {
    layout.for_each(lo, hi, focus_on_lo, [&](double a, double b, int order) {
      const double mid = 0.5 * (a + b);
      const double half = 0.5 * (b - a);
      for (const double node : flowrank::numeric::gauss_legendre(order).nodes) {
        const double size = dist.tail_quantile(mid + half * node);
        terms.first.push_back(focus_on_lo ? size : x);
        terms.second.push_back(focus_on_lo ? x : size);
      }
    });
  };
  for (int i = 0; i < quad.outer_panels; ++i) {
    const double lo = width * i;
    const double hi = i + 1 == quad.outer_panels ? y_max : width * (i + 1);
    for (const double node : flowrank::numeric::gauss_legendre(quad.outer_order).nodes) {
      const double y = 0.5 * (lo + hi) + 0.5 * (hi - lo) * node;
      const double x = dist.tail_quantile(y);
      if (fc::top_probability(y, config.t, config.n - 1, quad) > 0.0 && 1.0 > y) {
        append(y, 1.0, /*focus_on_lo=*/true, x);
      }
      if (config.counting == fc::PairCounting::kPaper && config.t >= 2 &&
          fc::top_probability(y, config.t - 1, config.n - 1, quad) > 0.0 && y > 0.0) {
        append(0.0, y, /*focus_on_lo=*/false, x);
      }
    }
  }
  return terms;
}

}  // namespace bench
