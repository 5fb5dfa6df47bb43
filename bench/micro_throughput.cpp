// Microbenchmarks: throughput of the hot paths and the ablation the paper
// reports qualitatively — exact discrete model ("hours") vs the
// Gaussian/continuous evaluation ("few seconds"), here measured directly.
//
// The BM_Ingest* group is the headline pair for the batching work: the
// seed per-packet path (virtual sampler call constructing a distribution
// per packet + unordered_map probe per packet, frozen in
// legacy_baseline.hpp) against the batched path (skip-based sampler
// select() + flat open-addressing FlowTable::add_batch()). Run via
// `cmake --build build --target bench-json` to refresh BENCH_micro.json.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "legacy_baseline.hpp"

#include "flowrank/agg/flow_summary.hpp"
#include "flowrank/core/discrete_context.hpp"
#include "flowrank/core/discrete_model.hpp"
#include "flowrank/core/misranking.hpp"
#include "flowrank/core/ranking_model.hpp"
#include "flowrank/core/sampling_planner.hpp"
#include "flowrank/dist/pareto.hpp"
#include "flowrank/estimators/heavy_hitter_trackers.hpp"
#include "flowrank/exec/task_pool.hpp"
#include "flowrank/flowtable/flow_table.hpp"
#include "flowrank/flowtable/hash_batch.hpp"
#include "flowrank/ingest/sharded_pipeline.hpp"
#include "flowrank/metrics/rank_metrics.hpp"
#include "flowrank/monitor/monitor_loop.hpp"
#include "flowrank/numeric/binomial.hpp"
#include "flowrank/numeric/incbeta.hpp"
#include "flowrank/numeric/quadrature.hpp"
#include "flowrank/numeric/special.hpp"
#include "flowrank/sampler/packet_sampler.hpp"
#include "flowrank/sim/binned_sim.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/fault_injection.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/trace/trace_source.hpp"
#include "flowrank/util/binomial_sample.hpp"

namespace {

// --- numeric substrate ------------------------------------------------------

void BM_BinomialCdfLargeN(benchmark::State& state) {
  const std::int64_t n = 1000000;
  double k = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flowrank::numeric::binomial_cdf(static_cast<std::int64_t>(k), n, 1e-5));
    k = k < 40 ? k + 1 : 1;
  }
}
BENCHMARK(BM_BinomialCdfLargeN);

void BM_IncBeta(benchmark::State& state) {
  double x = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowrank::numeric::incbeta(250.0, 12.0, x));
    x = x < 0.99 ? x + 0.01 : 0.01;
  }
}
BENCHMARK(BM_IncBeta);

void BM_GaussLegendre64(benchmark::State& state) {
  const auto f = [](double x) { return x * x * 0.5 + x; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowrank::numeric::integrate_gl(f, 0.0, 1.0, 64));
  }
}
BENCHMARK(BM_GaussLegendre64);

// --- pairwise misranking: exact vs Gaussian vs hybrid ------------------------

void BM_MisrankingExact(benchmark::State& state) {
  const auto size = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowrank::core::misranking_exact(size, size + 50, 0.01));
  }
}
BENCHMARK(BM_MisrankingExact)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MisrankingExactSeedPath(benchmark::State& state) {
  const auto size = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::legacy_misranking_exact(size, size + 50, 0.01));
  }
}
BENCHMARK(BM_MisrankingExactSeedPath)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MisrankingGaussian(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowrank::core::misranking_gaussian(5000.0, 5050.0, 0.01));
  }
}
BENCHMARK(BM_MisrankingGaussian);

void BM_MisrankingHybrid(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowrank::core::misranking_hybrid(5000.0, 5050.0, 0.001));
  }
}
BENCHMARK(BM_MisrankingHybrid);

// --- model evaluation: the paper's "hours vs seconds" ablation ---------------

// The continuous model's two halves on perfbench plan_exact's first
// continuous shape (beta = 1.5, N = 200 000, t = 10) at p = 0.708, close
// to that query's answer: the p-free build (size quantiles, and the
// pairs' spreads) and one evaluate(p). Items are pairwise terms, so the
// rows read per term. BM_RankingPerCallEvaluate is the path evaluate(p)
// replaced, on the same pairs: one call of the frozen per-call Eq. (2)
// through a function pointer per term.
constexpr double kPlanRate = 0.708;

flowrank::core::RankingModelConfig plan_continuous_config() {
  flowrank::core::RankingModelConfig cfg;
  cfg.n = 200000;
  cfg.t = 10;
  cfg.size_dist = std::make_shared<flowrank::dist::Pareto>(
      flowrank::dist::Pareto::from_mean(9.6, 1.5));
  return cfg;
}

void BM_RankingContextBuild(benchmark::State& state) {
  const auto cfg = plan_continuous_config();
  std::size_t terms = 0;
  for (auto _ : state) {
    const flowrank::core::RankingModelContext context(cfg);
    terms = context.pairwise_terms();
    benchmark::DoNotOptimize(terms);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * terms));
  state.counters["terms"] = static_cast<double>(terms);
}
BENCHMARK(BM_RankingContextBuild)->Unit(benchmark::kMillisecond);

void BM_RankingContextEvaluate(benchmark::State& state) {
  const flowrank::core::RankingModelContext context(plan_continuous_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.evaluate(kPlanRate));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * context.pairwise_terms()));
  state.counters["terms"] = static_cast<double>(context.pairwise_terms());
}
BENCHMARK(BM_RankingContextEvaluate)->Unit(benchmark::kMillisecond);

void BM_RankingPerCallEvaluate(benchmark::State& state) {
  const auto cfg = plan_continuous_config();
  const auto terms = bench::legacy_ranking_pair_terms(cfg);
  if (terms.first.size() != flowrank::core::RankingModelContext(cfg).pairwise_terms()) {
    state.SkipWithError("per-call pairs differ from the context's terms");
    return;
  }
  double (*pm)(double, double, double) = bench::legacy_misranking_gaussian;
  benchmark::DoNotOptimize(pm);
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t i = 0; i < terms.first.size(); ++i) {
      sum += pm(terms.first[i], terms.second[i], kPlanRate);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * terms.first.size()));
  state.counters["terms"] = static_cast<double>(terms.first.size());
}
BENCHMARK(BM_RankingPerCallEvaluate)->Unit(benchmark::kMillisecond);

// One inner integral's worth of erfc values (the default layout's 292
// nodes) at plan_exact's rate: ascending spreads whose arguments c * r
// straddle erfc's 0.46875 and 4 regime edges, so the batch walks three
// runs. Items are erfc values.
void BM_ErfcScaled(benchmark::State& state) {
  std::vector<double> spreads(292);
  for (std::size_t i = 0; i < spreads.size(); ++i) {
    const double u = static_cast<double>(i) / static_cast<double>(spreads.size());
    spreads[i] = 6.0 * u * u;
  }
  std::vector<double> out(spreads.size());
  const double r = flowrank::core::gaussian_rate_factor(kPlanRate);
  for (auto _ : state) {
    flowrank::numeric::erfc_scaled(spreads, r, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * spreads.size()));
  state.SetLabel(std::string("isa=") +
                 flowrank::numeric::isa_name(flowrank::numeric::dispatched_isa()));
}
BENCHMARK(BM_ErfcScaled);

// One inner integral's worth of Pareto tail quantiles (the default
// layout's 292 nodes), in place as the context build computes them, at
// plan_exact's beta 1.5: nodes from 1 down to 1e-9, spaced as the
// integral's geometric panels space them. Items are quantiles.
// BM_ParetoTailQuantilesPow is the path it replaced: the frozen
// one-std::pow scalar per value.
std::vector<double> quantile_nodes() {
  std::vector<double> y(292);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = std::pow(1e-9, static_cast<double>(i) / static_cast<double>(y.size()));
  }
  return y;
}

void BM_ParetoTailQuantiles(benchmark::State& state) {
  const auto nodes = quantile_nodes();
  const flowrank::dist::Pareto pareto = flowrank::dist::Pareto::from_mean(9.6, 1.5);
  const flowrank::dist::FlowSizeDistribution& dist = pareto;
  std::vector<double> values(nodes.size());
  for (auto _ : state) {
    std::copy(nodes.begin(), nodes.end(), values.begin());
    dist.tail_quantiles(values, values);
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * nodes.size()));
  state.SetLabel(std::string("isa=") +
                 flowrank::numeric::isa_name(flowrank::numeric::dispatched_isa()));
}
BENCHMARK(BM_ParetoTailQuantiles);

void BM_ParetoTailQuantilesPow(benchmark::State& state) {
  const auto nodes = quantile_nodes();
  const flowrank::dist::Pareto pareto = flowrank::dist::Pareto::from_mean(9.6, 1.5);
  std::vector<double> values(nodes.size());
  for (auto _ : state) {
    std::copy(nodes.begin(), nodes.end(), values.begin());
    for (double& v : values) {
      v = bench::legacy_pareto_tail_quantile(pareto.min_size(), pareto.beta(), v);
    }
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * nodes.size()));
}
BENCHMARK(BM_ParetoTailQuantilesPow);

/// The paper-scale discrete config the compute-layer acceptance numbers
/// are quoted against (S = 3000 support). Arg(0) selects the support cap.
flowrank::core::DiscreteModelConfig discrete_bench_config(std::int64_t max_size) {
  flowrank::core::DiscreteModelConfig cfg;
  cfg.n = 2000;
  cfg.t = 5;
  cfg.p = 0.2;
  cfg.max_size = max_size;
  cfg.tail_tolerance = 1e-4;
  cfg.size_pmf = std::make_shared<flowrank::dist::Discretized>(
      std::make_unique<flowrank::dist::Pareto>(
          flowrank::dist::Pareto::from_mean(9.6, 2.5)));
  return cfg;
}

// Iterations(1) dates from the pairwise-table build, which took seconds
// at max_size = 3000; the prefix-sum build takes tens of milliseconds,
// and the pin stays so the row keeps its name across refreshes. The
// small companion (max_size = 600, the figure-spec scale) runs
// free-iteration.
void BM_RankingModelDiscreteExact(benchmark::State& state) {
  const auto cfg = discrete_bench_config(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowrank::core::evaluate_discrete_ranking_model(cfg));
  }
  state.counters["max_size"] = static_cast<double>(cfg.max_size);
}
BENCHMARK(BM_RankingModelDiscreteExact)
    ->Arg(3000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RankingModelDiscreteExact)
    ->Arg(600)
    ->Unit(benchmark::kMillisecond);

// The two halves the context API splits evaluation into: the one-off
// build (everything that depends only on pmf/p/max-size) and the
// near-free per-(n, t) fold a sweep pays per marginal cell.
void BM_DiscreteModelTableBuild(benchmark::State& state) {
  const auto model_cfg = discrete_bench_config(state.range(0));
  flowrank::core::DiscreteContextConfig cfg;
  cfg.p = model_cfg.p;
  cfg.size_pmf = model_cfg.size_pmf;
  cfg.max_size = model_cfg.max_size;
  cfg.tail_tolerance = model_cfg.tail_tolerance;
  for (auto _ : state) {
    flowrank::core::DiscreteModelContext context(cfg);
    benchmark::DoNotOptimize(context.larger_pair_sums().data());
  }
  state.counters["max_size"] = static_cast<double>(cfg.max_size);
}
BENCHMARK(BM_DiscreteModelTableBuild)
    ->Arg(600)
    ->Unit(benchmark::kMillisecond);

// Sweep-level reuse: one shared context scoring a 3-cell t-sweep per
// iteration (items/iter = 3). Compare 3x the per-cell time against
// BM_RankingModelDiscreteExact/600, which rebuilds the context for every
// cell — the amortized ratio is the acceptance number for context reuse.
void BM_DiscreteModelSweepReuse(benchmark::State& state) {
  const auto model_cfg = discrete_bench_config(600);
  flowrank::core::DiscreteContextConfig cfg;
  cfg.p = model_cfg.p;
  cfg.size_pmf = model_cfg.size_pmf;
  cfg.max_size = model_cfg.max_size;
  cfg.tail_tolerance = model_cfg.tail_tolerance;
  const flowrank::core::DiscreteModelContext context(cfg);
  const std::int64_t t_sweep[] = {5, 10, 25};
  for (auto _ : state) {
    for (const std::int64_t t : t_sweep) {
      benchmark::DoNotOptimize(context.evaluate(model_cfg.n, t));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 3);
  state.counters["cells"] = 3.0;
}
BENCHMARK(BM_DiscreteModelSweepReuse)->Unit(benchmark::kMillisecond);

// One sampling-rate planner query per iteration (items = queries): the
// exact-discrete overload (max_size = 600) or the continuous quadrature
// one, on perfbench plan_exact's first two shapes. The `evaluations`
// counter is the query's model-evaluation count, the cost a faster search
// cuts; the plain bisection spent 19.
void BM_PlanSamplingRate(benchmark::State& state, bool discrete) {
  const auto pareto = [](double beta) {
    return std::make_shared<flowrank::dist::Pareto>(
        flowrank::dist::Pareto::from_mean(9.6, beta));
  };
  flowrank::core::DiscreteModelConfig discrete_cfg;
  discrete_cfg.n = 2000;
  discrete_cfg.t = 10;
  discrete_cfg.max_size = 600;
  discrete_cfg.tail_tolerance = 1e-4;
  discrete_cfg.size_pmf = std::make_shared<flowrank::dist::Discretized>(pareto(2.0));
  flowrank::core::RankingModelConfig continuous_cfg;
  continuous_cfg.n = 200000;
  continuous_cfg.t = 10;
  continuous_cfg.size_dist = pareto(1.5);
  flowrank::core::PlannerResult plan;
  for (auto _ : state) {
    plan = discrete ? flowrank::core::plan_sampling_rate(discrete_cfg, 1.0, 1e-4, 0.999)
                    : flowrank::core::plan_sampling_rate(
                          continuous_cfg, flowrank::core::PlannerGoal::kRankTopT, 1.0);
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["evaluations"] = static_cast<double>(plan.evaluations);
}
BENCHMARK_CAPTURE(BM_PlanSamplingRate, discrete, true)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlanSamplingRate, continuous, false)->Unit(benchmark::kMillisecond);

// --- packet path -------------------------------------------------------------

void BM_BernoulliSampler(benchmark::State& state) {
  flowrank::sampler::BernoulliSampler sampler(0.01, 1);
  flowrank::packet::PacketRecord pkt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.offer(pkt));
  }
}
BENCHMARK(BM_BernoulliSampler);

void BM_FlowTableAdd(benchmark::State& state) {
  flowrank::flowtable::FlowTable table({flowrank::packet::FlowDefinition::kFiveTuple, 0});
  flowrank::packet::PacketRecord pkt;
  std::uint32_t i = 0;
  for (auto _ : state) {
    pkt.tuple.src_ip = i++ % 65536;  // 64K concurrent flows
    table.add(pkt);
  }
  state.counters["flows"] = static_cast<double>(table.size());
}
BENCHMARK(BM_FlowTableAdd);

void BM_FlowTableAddLegacy(benchmark::State& state) {
  bench::LegacyFlowTable table({flowrank::packet::FlowDefinition::kFiveTuple, 0});
  flowrank::packet::PacketRecord pkt;
  std::uint32_t i = 0;
  for (auto _ : state) {
    pkt.tuple.src_ip = i++ % 65536;  // 64K concurrent flows
    table.add(pkt);
  }
  state.counters["flows"] = static_cast<double>(table.size());
}
BENCHMARK(BM_FlowTableAddLegacy);

// --- multi-vantage aggregation: parse + invert + union fold ------------------

/// The aggregator's per-window merge path: parse each agent's serialized
/// FlowSummary (framing + FNV-1a checksum validation), invert it at its
/// own sampling rate and left-fold the mergeable Space-Saving union.
/// Arg = union slot budget (0 keeps every key — exact for table kind).
void BM_SummaryMergeUnion(benchmark::State& state) {
  namespace fa = flowrank::agg;
  constexpr std::size_t kAgents = 4;
  constexpr std::size_t kEntries = 4096;
  // Overlapping halves: consecutive agents share kEntries/2 keys, so the
  // fold exercises both the merge-existing and insert-new paths.
  std::vector<std::vector<std::uint8_t>> wire;
  for (std::size_t a = 0; a < kAgents; ++a) {
    fa::FlowSummary summary;
    summary.agent_id = static_cast<std::uint32_t>(a);
    summary.epoch = 0;
    summary.effective_rate = 0.25;
    for (std::size_t i = 0; i < kEntries; ++i) {
      fa::SummaryEntry entry;
      entry.key.hi = 0;
      entry.key.lo = a * (kEntries / 2) + i;
      entry.packets = 1 + (kEntries - i) * (kEntries - i) / kEntries;
      entry.bytes = entry.packets * 500;
      entry.first_ns = static_cast<std::int64_t>(i);
      entry.last_ns = static_cast<std::int64_t>(i + 1);
      summary.entries.push_back(entry);
      summary.packets_sampled += entry.packets;
    }
    summary.packets_offered = summary.packets_sampled * 4;
    wire.push_back(fa::serialize(summary));
  }
  const auto capacity = static_cast<std::size_t>(state.range(0));
  std::size_t merged_flows = 0;
  for (auto _ : state) {
    flowrank::estimators::MergedSketch merged;
    for (const auto& bytes : wire) {
      const fa::FlowSummary summary = fa::parse_summary(bytes);
      const flowrank::estimators::MergedSketch view = fa::inverted_view(summary);
      merged = flowrank::estimators::space_saving_union(merged.view(),
                                                        view.view(), capacity);
    }
    merged_flows = merged.flows.size();
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAgents * kEntries));
  state.counters["merged_flows"] = static_cast<double>(merged_flows);
}
BENCHMARK(BM_SummaryMergeUnion)->Arg(0)->Arg(256)->Unit(benchmark::kMillisecond);

// --- ingest pipeline: seed per-packet path vs batched path -------------------

/// Synthesizes a measurement interval of packets with a realistic
/// flow-popularity skew (a few heavy hitters over a long tail of small
/// flows). ~190K concurrent flows: Sprint-scale per-bin population.
std::vector<flowrank::packet::PacketRecord> make_ingest_batch(std::size_t count) {
  std::vector<flowrank::packet::PacketRecord> packets(count);
  auto engine = flowrank::util::make_engine(42);
  std::uniform_int_distribution<std::uint32_t> tail_flow(0, (1 << 18) - 1);
  std::uniform_int_distribution<std::uint32_t> coin(0, 9);
  for (std::size_t i = 0; i < count; ++i) {
    auto& pkt = packets[i];
    pkt.timestamp_ns = static_cast<std::int64_t>(i) * 1000;
    // ~30% of packets hit one of 16 heavy flows, the rest the 256K tail.
    pkt.tuple.src_ip = coin(engine) < 3 ? tail_flow(engine) % 16 : tail_flow(engine);
    pkt.tuple.dst_ip = 0x0A000001;
    pkt.tuple.src_port = 1234;
    pkt.tuple.dst_port = 80;
    pkt.tuple.protocol = flowrank::packet::Protocol::kTcp;
    pkt.size_bytes = 500;
  }
  return packets;
}

constexpr double kIngestRate = 0.01;
constexpr std::size_t kIngestPackets = 1 << 19;

// Both ingest benchmarks measure the steady state of a long-running
// monitor: tables are built once and clear()ed at each measurement
// interval (the paper's "memory is cleared"), so the timed region is
// classification work, not allocator churn for the table shell itself.

void BM_IngestSeedPath(benchmark::State& state) {
  const auto packets = make_ingest_batch(kIngestPackets);
  bench::LegacyBernoulli sampler(kIngestRate, 1);
  bench::LegacyFlowTable truth({flowrank::packet::FlowDefinition::kFiveTuple, 0});
  bench::LegacyFlowTable sampled({flowrank::packet::FlowDefinition::kFiveTuple, 0});
  for (auto _ : state) {
    truth.clear();
    sampled.clear();
    for (const auto& pkt : packets) {
      truth.add(pkt);
      if (sampler.offer(pkt)) sampled.add(pkt);
    }
    benchmark::DoNotOptimize(truth.size() + sampled.size());
  }
  state.counters["flows"] = static_cast<double>(truth.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_IngestSeedPath)->Unit(benchmark::kMillisecond);

void BM_IngestBatchPath(benchmark::State& state) {
  const auto packets = make_ingest_batch(kIngestPackets);
  const std::size_t batch_size = 4096;
  std::vector<flowrank::packet::PacketRecord> selected;
  selected.reserve(batch_size);
  flowrank::sampler::BernoulliSampler sampler(kIngestRate, 1);
  // Pre-sized for the expected concurrent-flow population, as a production
  // monitor would be (Options::initial_capacity exists for exactly this;
  // the node-based seed path has no equivalent lever).
  flowrank::flowtable::FlowTable truth(
      {flowrank::packet::FlowDefinition::kFiveTuple, 0, 1 << 19});
  flowrank::flowtable::FlowTable sampled(
      {flowrank::packet::FlowDefinition::kFiveTuple, 0});
  for (auto _ : state) {
    truth.clear();
    sampled.clear();
    const std::span<const flowrank::packet::PacketRecord> all(packets);
    for (std::size_t start = 0; start < all.size(); start += batch_size) {
      const auto batch = all.subspan(start, std::min(batch_size, all.size() - start));
      truth.add_batch(batch);
      sampler.select_into(batch, selected);
      sampled.add_batch(selected);
    }
    benchmark::DoNotOptimize(truth.size() + sampled.size());
  }
  state.counters["flows"] = static_cast<double>(truth.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_IngestBatchPath)->Unit(benchmark::kMillisecond);

// Sharded ingest scaling: the same truth + sampled workload as
// BM_Ingest{Seed,Batch}Path pushed through ingest::ShardedPipeline at 1,
// 2 and 4 shards, in steady state: one long-lived pipeline, one
// measurement interval per benchmark iteration (timestamps advance one
// bin per iteration, so every shard table is flushed and clear()ed
// between intervals, exactly like the inline benchmarks), results
// consumed by a streaming on_shard_bin callback so memory stays bounded.
// Rewriting the interval's timestamps is packet-source work the inline
// benchmarks don't pay, so it sits outside the timed region. On a
// single-vCPU runner the shard counts time-slice one core, so the column
// to compare against is the per-packet seed path (BM_IngestSeedPath); on
// a multi-core host the shard sweep shows the parallel speedup directly.
void BM_ShardedIngest(benchmark::State& state) {
  const auto packets = make_ingest_batch(kIngestPackets);
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::size_t batch_size = 4096;
  const std::int64_t interval_ns =
      static_cast<std::int64_t>(kIngestPackets) * 1000;  // one bin per interval

  flowrank::ingest::ShardedPipelineConfig cfg;
  cfg.num_shards = shards;
  cfg.num_streams = 2;  // stream 0 = truth, stream 1 = sampled
  cfg.bin_ns = interval_ns;
  cfg.table_options = {flowrank::packet::FlowDefinition::kFiveTuple, 0,
                       (std::size_t{1} << 19) / shards};
  std::atomic<std::uint64_t> flows_flushed{0};
  cfg.on_shard_bin = [&flows_flushed](std::size_t, std::size_t, std::size_t,
                                      const flowrank::flowtable::FlowTable& table) {
    flows_flushed.fetch_add(table.size(), std::memory_order_relaxed);
  };
  flowrank::ingest::ShardedPipeline pipeline(cfg);
  flowrank::sampler::BernoulliSampler sampler(kIngestRate, 1);
  std::vector<flowrank::packet::PacketRecord> interval(packets);
  std::vector<flowrank::packet::PacketRecord> selected;
  selected.reserve(batch_size);
  std::int64_t bin_base_ns = 0;

  for (auto _ : state) {
    state.PauseTiming();  // packet source: shift this interval's timestamps
    for (std::size_t i = 0; i < interval.size(); ++i) {
      interval[i].timestamp_ns = packets[i].timestamp_ns + bin_base_ns;
    }
    bin_base_ns += interval_ns;
    state.ResumeTiming();

    const std::span<const flowrank::packet::PacketRecord> all(interval);
    for (std::size_t start = 0; start < all.size(); start += batch_size) {
      const auto batch = all.subspan(start, std::min(batch_size, all.size() - start));
      pipeline.add_batch(0, batch);
      sampler.select_into(batch, selected);
      pipeline.add_batch(1, selected);
    }
  }
  pipeline.finish();
  benchmark::DoNotOptimize(flows_flushed.load());
  state.counters["shards"] = static_cast<double>(shards);
  // Overload accounting in the JSON: a queue-bound configuration must be
  // visible as shed/blocked work, not read as silently faster. Zero under
  // the default kBlock policy — nothing is ever dropped here.
  const flowrank::ingest::OverloadStats overload = pipeline.overload_stats();
  state.counters["queue_full_events"] =
      static_cast<double>(overload.queue_full_events);
  state.counters["shed_chunks"] = static_cast<double>(overload.shed_chunks);
  state.counters["shed_packets"] = static_cast<double>(overload.shed_packets);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets.size()));
}
// UseRealTime: throughput must reflect end-to-end wall time (workers run
// off the main thread, which Benchmark's CPU clock doesn't see).
BENCHMARK(BM_ShardedIngest)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Repeated short pipelines: the cost model the TaskPool rewrite targets.
// A monitor that opens a fresh ShardedPipeline per measurement job (one
// small interval each) used to pay a thread spawn/join per shard per
// pipeline; on the shared pool the workers are parked once and reused.
// BM_ShortPipelinesPooled runs 64 back-to-back pipelines per iteration on
// the shared pool; BM_ShortPipelinesSpawn forces the old cost model by
// giving every pipeline its own throwaway TaskPool (fresh threads per
// run). Identical classification work; only the startup amortization
// differs, so the pipelines are deliberately short.
constexpr std::size_t kShortPipelines = 64;
constexpr std::size_t kShortPipelinePackets = 2048;

void run_short_pipeline(std::span<const flowrank::packet::PacketRecord> packets,
                        flowrank::exec::TaskPool* pool,
                        std::uint64_t& flows_flushed) {
  flowrank::ingest::ShardedPipelineConfig cfg;
  cfg.num_shards = 2;
  cfg.bin_ns = static_cast<std::int64_t>(kShortPipelinePackets) * 1000;
  cfg.table_options = {flowrank::packet::FlowDefinition::kFiveTuple, 0};
  cfg.pool = pool;
  std::atomic<std::uint64_t> flushed{0};
  cfg.on_shard_bin = [&flushed](std::size_t, std::size_t, std::size_t,
                                const flowrank::flowtable::FlowTable& table) {
    flushed.fetch_add(table.size(), std::memory_order_relaxed);
  };
  flowrank::ingest::ShardedPipeline pipeline(cfg);
  for (std::size_t start = 0; start < packets.size(); start += 4096) {
    pipeline.add_batch(0, packets.subspan(start, std::min<std::size_t>(
                                                     4096, packets.size() - start)));
  }
  pipeline.finish();
  flows_flushed += flushed.load();
}

void BM_ShortPipelinesPooled(benchmark::State& state) {
  const auto packets = make_ingest_batch(kShortPipelinePackets);
  std::uint64_t flows_flushed = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kShortPipelines; ++i) {
      run_short_pipeline(packets, /*pool=*/nullptr, flows_flushed);  // shared pool
    }
  }
  benchmark::DoNotOptimize(flows_flushed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kShortPipelines * packets.size()));
}
BENCHMARK(BM_ShortPipelinesPooled)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ShortPipelinesSpawn(benchmark::State& state) {
  const auto packets = make_ingest_batch(kShortPipelinePackets);
  std::uint64_t flows_flushed = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kShortPipelines; ++i) {
      flowrank::exec::TaskPool fresh(2);  // per-run thread spawn, as pre-rewrite
      run_short_pipeline(packets, &fresh, flows_flushed);
    }
  }
  benchmark::DoNotOptimize(flows_flushed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kShortPipelines * packets.size()));
}
BENCHMARK(BM_ShortPipelinesSpawn)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- partition-at-source batch hashing --------------------------------------

// The hash-once kernel behind the ring pipeline: one FlowKeyHash per
// packet, reused for shard selection and table probing. The row keeps
// its /scalar name so it lines up with the BM_HashBatch/scalar row
// already recorded in BENCH_micro.json.
void BM_HashBatch(benchmark::State& state) {
  constexpr std::size_t kKeys = 1 << 16;
  std::vector<flowrank::packet::FlowKey> keys(kKeys);
  auto engine = flowrank::util::make_engine(11);
  std::uniform_int_distribution<std::uint64_t> rand64;
  for (auto& key : keys) {
    key.hi = rand64(engine);
    key.lo = rand64(engine);
  }
  std::vector<std::uint64_t> hashes(kKeys);
  for (auto _ : state) {
    flowrank::flowtable::hash_batch(keys, hashes);
    benchmark::DoNotOptimize(hashes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_HashBatch)->Name("BM_HashBatch/scalar");

void BM_SamplerSelectBatch(benchmark::State& state) {
  const auto packets = make_ingest_batch(1 << 16);
  flowrank::sampler::BernoulliSampler sampler(kIngestRate, 1);
  std::vector<std::uint32_t> indices;
  for (auto _ : state) {
    indices.clear();
    sampler.select(packets, indices);
    benchmark::DoNotOptimize(indices.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_SamplerSelectBatch);

void BM_PacketStreamExpansion(benchmark::State& state) {
  auto cfg = flowrank::trace::FlowTraceConfig::sprint_5tuple(1.5, 3);
  cfg.duration_s = 5.0;
  cfg.flow_rate_per_s = 500.0;
  const auto trace = flowrank::trace::generate_flow_trace(cfg);
  for (auto _ : state) {
    flowrank::trace::PacketStream stream(trace);
    std::uint64_t n = 0;
    while (stream.next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.total_packets()));
}
BENCHMARK(BM_PacketStreamExpansion)->Unit(benchmark::kMillisecond);

void BM_RankMetrics(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto engine = flowrank::util::make_engine(9);
  const auto pareto = flowrank::dist::Pareto::from_mean(9.6, 1.5);
  std::vector<std::uint64_t> true_sizes(n), sampled(n);
  for (std::size_t i = 0; i < n; ++i) {
    true_sizes[i] = static_cast<std::uint64_t>(pareto.sample(engine));
    sampled[i] = true_sizes[i] / 10;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flowrank::metrics::compute_rank_metrics(true_sizes, sampled, 10));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RankMetrics)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

// Context reuse: the same population scored repeatedly (the Monte-Carlo
// sweep shape — one context per bin, one evaluate per run). Compare
// against BM_RankMetrics at the same n, which rebuilds the context
// (true-ranking sort included) on every call.
void BM_RankMetricsContext(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto engine = flowrank::util::make_engine(9);
  const auto pareto = flowrank::dist::Pareto::from_mean(9.6, 1.5);
  std::vector<std::uint64_t> true_sizes(n), sampled(n);
  for (std::size_t i = 0; i < n; ++i) {
    true_sizes[i] = static_cast<std::uint64_t>(pareto.sample(engine));
    sampled[i] = true_sizes[i] / 10;
  }
  flowrank::metrics::RankMetricsContext context(true_sizes, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.evaluate(sampled));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RankMetricsContext)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// --- Monte-Carlo sweep: binomial sampling + the parallel sweep engine -------

// Thinning kernel head-to-head: the portable sampler vs a per-call
// std::binomial_distribution (what thin_count and run_mc_model used
// through PR 2). Small mean hits the BINV branch, large mean BTPE.
void BM_BinomialSample(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  auto engine = flowrank::util::make_engine(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowrank::util::binomial_sample(n, 0.01, engine));
  }
}
BENCHMARK(BM_BinomialSample)->Arg(100)->Arg(1000000);

void BM_BinomialSampleStdSeedPath(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  auto engine = flowrank::util::make_engine(17);
  for (auto _ : state) {
    std::binomial_distribution<std::uint64_t> thin(n, 0.01);
    benchmark::DoNotOptimize(thin(engine));
  }
}
BENCHMARK(BM_BinomialSampleStdSeedPath)->Arg(100)->Arg(1000000);

// The count path's per-flow kernel: one bin's heavy-tailed true sizes
// thinned at one rate, run after run, through one BinomialThinner (a
// tabled CDF entered through a guide table for small n·p', BTPE for the
// largest flows). Arg is the rate in thousandths; items are draws.
void BM_BinomialThinner(benchmark::State& state) {
  const double p = static_cast<double>(state.range(0)) / 1000.0;
  auto engine = flowrank::util::make_engine(23);
  const auto pareto = flowrank::dist::Pareto::from_mean(9.6, 1.5);
  std::vector<std::uint64_t> sizes(4096), sampled(sizes.size());
  for (auto& size : sizes) size = static_cast<std::uint64_t>(pareto.sample(engine));
  flowrank::util::BinomialThinner thin(p);
  for (auto _ : state) {
    for (std::size_t i = 0; i < sizes.size(); ++i) sampled[i] = thin(sizes[i], engine);
    benchmark::DoNotOptimize(sampled.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sizes.size()));
}
BENCHMARK(BM_BinomialThinner)->Arg(1)->Arg(10)->Arg(100)->Arg(500);

/// Shared workload for the sweep benchmarks: a generated trace and a
/// figure-shaped SimConfig (4 rates x 15 bins x 20 runs, top-10).
const flowrank::trace::FlowTrace& sweep_trace() {
  static const flowrank::trace::FlowTrace trace = [] {
    auto cfg = flowrank::trace::FlowTraceConfig::sprint_5tuple(1.5, 21);
    cfg.duration_s = 150.0;
    cfg.flow_rate_per_s = 250.0;
    return flowrank::trace::generate_flow_trace(cfg);
  }();
  return trace;
}

flowrank::sim::SimConfig sweep_config() {
  flowrank::sim::SimConfig cfg;
  cfg.bin_seconds = 10.0;
  cfg.top_t = 10;
  cfg.sampling_rates = {0.001, 0.01, 0.1, 0.5};
  cfg.runs = 20;
  cfg.seed = 7;
  return cfg;
}

// The whole count-path Monte-Carlo sweep on the shared TaskPool at 1, 2
// and 4 threads. Results are bit-identical at every thread count
// (asserted in tests/test_parallel_sweeps.cpp); only wall time changes.
// On a single-vCPU runner the thread counts time-slice one core, so the
// honest column to compare there is the frozen PR 2 path below; on a
// multi-core host the sweep shows the parallel speedup directly.
// UseRealTime for the same reason as BM_ShardedIngest: workers run off
// the benchmark's CPU clock.
void BM_BinnedSimSweep(benchmark::State& state) {
  const auto& trace = sweep_trace();
  auto cfg = sweep_config();
  cfg.num_threads = static_cast<std::size_t>(state.range(0));
  double cells = 0.0;
  for (auto _ : state) {
    const auto result = flowrank::sim::run_binned_simulation(trace, cfg);
    benchmark::DoNotOptimize(result.series.front().bins.front().ranking.mean());
    cells = static_cast<double>(result.series.size() *
                                result.series.front().bins.size());
  }
  state.counters["threads"] = static_cast<double>(cfg.num_threads);
  state.counters["grid_cells"] = cells;
}
BENCHMARK(BM_BinnedSimSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Per-bin flow counts over the sweep trace (37.5 k flows, 15 bins of
// 10 s): flat append, then a bucketed sort and merge by key; flows
// spanning a bin edge take the binomial split. Items are flow records.
void BM_BinFlowCounts(benchmark::State& state) {
  const auto& trace = sweep_trace();
  for (auto _ : state) {
    const auto counts = flowrank::trace::bin_flow_counts(
        trace, 10.0, flowrank::packet::FlowDefinition::kFiveTuple, 7);
    benchmark::DoNotOptimize(counts.bins.front().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.flows.size()));
}
BENCHMARK(BM_BinFlowCounts)->Unit(benchmark::kMillisecond);

// The frozen PR 2 sweep on the identical workload: sequential grid walk,
// per-flow std::binomial_distribution construction, full
// compute_rank_metrics (true-ranking sort included) per run.
void BM_BinnedSimSweepSeedPath(benchmark::State& state) {
  const auto& trace = sweep_trace();
  const auto cfg = sweep_config();
  for (auto _ : state) {
    const auto result = bench::legacy_run_binned_simulation(trace, cfg);
    benchmark::DoNotOptimize(result.series.front().bins.front().ranking.mean());
  }
}
BENCHMARK(BM_BinnedSimSweepSeedPath)->Unit(benchmark::kMillisecond)->UseRealTime();

// The continuous monitor loop end to end: rolling 2 s windows over a 20 s
// fault-injected trace (1% corrupt/truncated records, flash-crowd bursts
// tripping the shed budget). Counters land in the JSON so a perf entry
// records whether the measured run degraded — a benchmark that silently
// shed half its packets is not comparable to one that kept up.
void BM_MonitorLoop(benchmark::State& state) {
  const auto trace = [] {
    auto cfg = flowrank::trace::FlowTraceConfig::sprint_5tuple(1.5, 31);
    cfg.duration_s = 20.0;
    cfg.flow_rate_per_s = 200.0;
    return flowrank::trace::generate_flow_trace(cfg);
  }();
  flowrank::trace::FaultSpec faults;
  faults.corrupt_fraction = 0.01;
  faults.truncate_fraction = 0.01;
  faults.burst_flows = 500;
  faults.burst_every_s = 5.0;
  const auto source = std::make_shared<flowrank::trace::FaultInjectingTraceSource>(
      std::make_shared<flowrank::trace::FixedTraceSource>(trace, "bench"), faults);

  flowrank::monitor::MonitorConfig cfg;
  cfg.window_s = 2.0;
  cfg.sampling_rate = 0.1;
  cfg.top_t = 10;
  cfg.overload = flowrank::ingest::OverloadPolicy::kShed;
  cfg.window_packet_budget = 300;
  cfg.max_queue_chunks = 1024;

  flowrank::monitor::MonitorCounters counters;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    flowrank::monitor::MonitorLoop loop(source, cfg);  // run() is once-only
    const auto report = loop.run();
    counters = report.counters;
    packets = report.counters.packets_offered;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets));
  state.counters["windows"] = static_cast<double>(counters.windows);
  state.counters["shed_packets"] = static_cast<double>(counters.shed_packets);
  state.counters["pipeline_shed_packets"] =
      static_cast<double>(counters.pipeline_shed_packets);
  state.counters["degradations"] = static_cast<double>(counters.degradations);
  state.counters["corrupt_records"] =
      static_cast<double>(counters.corrupt_records);
  state.counters["truncated_records"] =
      static_cast<double>(counters.truncated_records);
  state.counters["stall_events"] = static_cast<double>(counters.stall_events);
  state.counters["watchdog_rotations"] =
      static_cast<double>(counters.watchdog_rotations);
}
BENCHMARK(BM_MonitorLoop)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Hand-rolled main (vs BENCHMARK_MAIN) so the JSON context carries OUR
// binary's build type. Google Benchmark's own `library_build_type` field
// describes how the *system libbenchmark* was compiled (debug on some
// boxes) and says nothing about this binary's optimization level —
// keying a perf baseline on it produced a "debug" BENCH_micro.json from
// a perfectly good Release build. bench/run_bench.sh and
// scripts/check_bench_counters.py gate on flowrank_build_type instead.
#ifndef FLOWRANK_BUILD_TYPE
#define FLOWRANK_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  benchmark::AddCustomContext("flowrank_build_type", FLOWRANK_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
