#include "flowrank/dist/pareto.hpp"

#include <cmath>
#include <random>
#include <sstream>
#include <stdexcept>

#include "flowrank/numeric/special.hpp"

namespace flowrank::dist {

Pareto::Pareto(double min, double beta) : min_(min), beta_(beta) {
  if (!(min > 0.0)) throw std::invalid_argument("Pareto: min > 0");
  if (!(beta > 0.0)) throw std::invalid_argument("Pareto: beta > 0");
}

Pareto Pareto::from_mean(double mean, double beta) {
  if (!(beta > 1.0)) {
    throw std::invalid_argument("Pareto::from_mean: beta > 1 (finite mean)");
  }
  if (!(mean > 0.0)) throw std::invalid_argument("Pareto::from_mean: mean > 0");
  return Pareto(mean * (beta - 1.0) / beta, beta);
}

std::string Pareto::name() const {
  std::ostringstream os;
  os << "pareto(min=" << min_ << ", beta=" << beta_ << ")";
  return os.str();
}

double Pareto::mean() const {
  if (!(beta_ > 1.0)) {
    throw std::logic_error("Pareto::mean: diverges for beta <= 1");
  }
  return min_ * beta_ / (beta_ - 1.0);
}

double Pareto::ccdf(double x) const {
  if (x <= min_) return 1.0;
  return std::pow(x / min_, -beta_);
}

double Pareto::tail_quantile(double y) const {
  check_tail_quantile_arg(y);
  return min_ * numeric::unit_power(y, -1.0 / beta_);
}

void Pareto::tail_quantiles(std::span<const double> y, std::span<double> out) const {
  for (const double v : y) check_tail_quantile_arg(v);
  numeric::scaled_unit_powers(y, -1.0 / beta_, min_, out);
}

double Pareto::sample(util::Engine& engine) const {
  return min_ * std::pow(util::uniform_unit_open(engine), -1.0 / beta_);
}

std::shared_ptr<FlowSizeDistribution> Pareto::clone() const {
  return std::make_shared<Pareto>(*this);
}

BoundedPareto::BoundedPareto(double min, double beta, double max)
    : min_(min), beta_(beta), max_(max) {
  if (!(min > 0.0)) throw std::invalid_argument("BoundedPareto: min > 0");
  if (!(beta > 0.0)) throw std::invalid_argument("BoundedPareto: beta > 0");
  if (!(max > min)) throw std::invalid_argument("BoundedPareto: max > min");
  tail_at_max_ = std::pow(min_ / max_, beta_);
}

std::string BoundedPareto::name() const {
  std::ostringstream os;
  os << "bounded-pareto(min=" << min_ << ", beta=" << beta_ << ", max=" << max_
     << ")";
  return os.str();
}

double BoundedPareto::mean() const {
  // E[X | X <= max] of Pareto(min, beta).
  if (beta_ == 1.0) {
    return std::log(max_ / min_) * min_ / (1.0 - tail_at_max_);
  }
  const double num = beta_ / (beta_ - 1.0) *
                     (min_ - max_ * tail_at_max_);  // min (1 - (min/max)^{beta-1}) form
  return num / (1.0 - tail_at_max_);
}

double BoundedPareto::ccdf(double x) const {
  if (x <= min_) return 1.0;
  if (x >= max_) return 0.0;
  return (std::pow(x / min_, -beta_) - tail_at_max_) / (1.0 - tail_at_max_);
}

double BoundedPareto::tail_quantile(double y) const {
  check_tail_quantile_arg(y);
  const double u = y * (1.0 - tail_at_max_) + tail_at_max_;
  return min_ * std::pow(u, -1.0 / beta_);
}

double BoundedPareto::sample(util::Engine& engine) const {
  return tail_quantile(util::uniform_unit_open(engine));
}

std::shared_ptr<FlowSizeDistribution> BoundedPareto::clone() const {
  return std::make_shared<BoundedPareto>(*this);
}

}  // namespace flowrank::dist
