#include "flowrank/util/binomial_sample.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace flowrank::util {

namespace {

/// Uniform on [0, 1) from the top 53 bits of one engine() output. Built
/// by hand so the variate stream is pinned to the engine's bit stream,
/// not to a standard-library distribution's unspecified algorithm.
template <class Urbg>
double next_unit(Urbg& engine) {
  return static_cast<double>(engine() >> 11) * 0x1.0p-53;
}

/// Restart bound of the BINV walk: past ~10 sigma the remaining tail
/// mass is far below one ulp of the consumed uniform; restart with a
/// fresh uniform instead of walking to n (the guard numpy and GSL use
/// against u landing in rounding dust).
inline double binv_bound(double nd, double p, double q) {
  const double np = nd * p;
  return std::min(nd, np + 10.0 * std::sqrt(np * q + 1.0));
}

/// BINV walk given its precomputed setup (qn = q^n = pmf(0)): inversion
/// by cumulative comparison, X = min{k <= bound : u <= F(k)}, where
/// F(k) = F(k-1) + pmf(k) accumulates left to right and pmf follows the
/// recurrence pmf(k+1)/pmf(k) = (n-k)/(k+1)·p/q. One uniform per
/// variate, expected n·p + 1 recurrence steps.
template <class Urbg>
std::uint64_t binv_walk(double nd, double p, double q, double qn, double bound,
                        Urbg& engine) {
  double x = 0.0;
  double px = qn;
  double cdf = qn;
  double u = next_unit(engine);
  while (u > cdf) {
    x += 1.0;
    if (x > bound) {
      x = 0.0;
      px = qn;
      cdf = qn;
      u = next_unit(engine);
      continue;
    }
    px *= ((nd - x + 1.0) * p) / (x * q);
    cdf += px;
  }
  return static_cast<std::uint64_t>(x);
}

/// One-shot BINV. Requires p <= 0.5 and n·p <= kBinomialInversionMaxMean,
/// which keeps q^n well above the smallest normal double
/// (q^n >= exp(-30·ln4) ~ 1e-19).
template <class Urbg>
std::uint64_t sample_binv(std::uint64_t n, double p, Urbg& engine) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double qn = std::exp(nd * std::log(q));  // pmf(0)
  return binv_walk(nd, p, q, qn, binv_bound(nd, p, q), engine);
}

/// Stirling-series tail of ln k!: ln k! - [(k+1/2)·ln k - k + ln√(2π)],
/// evaluated at x = k+1 via the standard 4-term expansion (exact enough
/// for the BTPE final test for all k >= 0 reached here).
inline double stirling_tail(double x) {
  const double x2 = x * x;
  return (13860.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) /
         x / 166320.0;
}

/// BTPE (Kachitvichyanukul & Schmeiser, "Binomial random variate
/// generation", CACM 31(2), 1988): a triangle + parallelogram + two
/// exponential tails majorizing hat over the scaled pmf, with the
/// published squeeze tests so most variates cost one (u, v) pair and a
/// handful of multiplies. Requires p <= 0.5 and n·p above the inversion
/// threshold. Step numbering follows the paper.
template <class Urbg>
std::uint64_t sample_btpe(std::uint64_t n, double p, Urbg& engine) {
  const double nd = static_cast<double>(n);
  const double r = p;
  const double q = 1.0 - r;
  const double fm = nd * r + r;
  const double m = std::floor(fm);  // mode
  const double nrq = nd * r * q;
  const double p1 = std::floor(2.195 * std::sqrt(nrq) - 4.6 * q) + 0.5;
  const double xm = m + 0.5;
  const double xl = xm - p1;
  const double xr = xm + p1;
  const double c = 0.134 + 20.5 / (15.3 + m);
  double a = (fm - xl) / (fm - xl * r);
  const double laml = a * (1.0 + 0.5 * a);
  a = (xr - fm) / (xr * q);
  const double lamr = a * (1.0 + 0.5 * a);
  const double p2 = p1 * (1.0 + 2.0 * c);
  const double p3 = p2 + c / laml;
  const double p4 = p3 + c / lamr;

  for (;;) {
    // Step 1: region selection.
    const double u = next_unit(engine) * p4;
    double v = next_unit(engine);
    double y;
    bool need_accept_test = true;
    if (u <= p1) {
      // Triangular central region: accept immediately.
      y = std::floor(xm - p1 * v + u);
      need_accept_test = false;
    } else if (u <= p2) {
      // Step 2: parallelogram.
      const double x = xl + (u - p1) / c;
      v = v * c + 1.0 - std::abs(m - x + 0.5) / p1;
      if (v > 1.0) continue;
      y = std::floor(x);
    } else if (u <= p3) {
      // Step 3: left exponential tail.
      const double x = xl + std::log(v) / laml;
      if (x < 0.0) continue;
      y = std::floor(x);
      v = v * (u - p2) * laml;
    } else {
      // Step 4: right exponential tail.
      const double x = xr - std::log(v) / lamr;
      if (x > nd) continue;
      y = std::floor(x);
      v = v * (u - p3) * lamr;
    }

    if (need_accept_test) {
      // Step 5: accept v <= f(y)/f(m).
      const double k = std::abs(y - m);
      if (k <= 20.0 || k >= nrq / 2.0 - 1.0) {
        // 5.1: evaluate the ratio by the pmf recurrence.
        const double s = r / q;
        a = s * (nd + 1.0);
        double big_f = 1.0;
        if (m < y) {
          for (double i = m + 1.0; i <= y; i += 1.0) big_f *= (a / i - s);
        } else if (m > y) {
          for (double i = y + 1.0; i <= m; i += 1.0) big_f /= (a / i - s);
        }
        if (v > big_f) continue;
      } else {
        // 5.2: squeeze on ln v, then 5.3: the exact Stirling test.
        const double rho =
            (k / nrq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / nrq + 0.5);
        const double t = -k * k / (2.0 * nrq);
        const double log_v = std::log(v);
        if (log_v < t - rho) {
          // accepted by the lower squeeze
        } else if (log_v > t + rho) {
          continue;
        } else {
          const double x1 = y + 1.0;
          const double f1 = m + 1.0;
          const double z = nd + 1.0 - m;
          const double w = nd - y + 1.0;
          const double bound = xm * std::log(f1 / x1) +
                               (nd - m + 0.5) * std::log(z / w) +
                               (y - m) * std::log(w * r / (x1 * q)) +
                               stirling_tail(f1) + stirling_tail(z) +
                               stirling_tail(x1) + stirling_tail(w);
          if (log_v > bound) continue;
        }
      }
    }
    // Step 6: y is a Bin(n, p) variate for p <= 0.5.
    return static_cast<std::uint64_t>(y);
  }
}

template <class Urbg>
std::uint64_t sample_binomial(std::uint64_t n, double p, Urbg& engine) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("binomial_sample: p in [0,1]");
  }
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  const bool flip = p > 0.5;
  const double pp = flip ? 1.0 - p : p;
  const std::uint64_t k =
      static_cast<double>(n) * pp <= kBinomialInversionMaxMean
          ? sample_binv(n, pp, engine)
          : sample_btpe(n, pp, engine);
  return flip ? n - k : k;
}

}  // namespace

std::uint64_t binomial_sample(std::uint64_t n, double p, Engine& engine) {
  return sample_binomial(n, p, engine);
}

std::uint64_t binomial_sample(std::uint64_t n, double p, CounterEngine& engine) {
  return sample_binomial(n, p, engine);
}

namespace {
/// Largest n whose inversion CDF is tabled by BinomialThinner. The
/// sweeps' flow-size distributions are heavy-tailed: nearly all flows are
/// small and repeat, the rare huge ones take the BTPE branch anyway
/// (n·p' > 30) or walk untabled.
constexpr std::size_t kThinnerCacheMax = 4096;
}  // namespace

BinomialThinner::BinomialThinner(double p) : p_(p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("BinomialThinner: p in [0,1]");
  }
  flip_ = p > 0.5;
  pp_ = flip_ ? 1.0 - p : p;
  log_q_ = std::log(1.0 - pp_);
}

BinomialThinner::CdfTable BinomialThinner::build_table(std::uint64_t n) {
  if (n >= tables_.size()) tables_.resize(n + 1);
  // The exact doubles sample_binv and binv_walk compute: the same exp/log
  // setup, then the walk's recurrence and running sum step by step, in
  // order.
  const double nd = static_cast<double>(n);
  const double q = 1.0 - pp_;
  const double bound = binv_bound(nd, pp_, q);
  CdfTable& table = tables_[n];
  table.cdf = static_cast<std::uint32_t>(cdf_.size());
  double px = std::exp(nd * log_q_);
  double cdf = px;
  cdf_.push_back(cdf);
  for (double x = 1.0; x <= bound; x += 1.0) {
    px *= ((nd - x + 1.0) * pp_) / (x * q);
    cdf += px;
    cdf_.push_back(cdf);
  }
  const std::size_t length = cdf_.size() - table.cdf;
  cdf_.push_back(1.0);  // sentinel: no uniform exceeds it

  // Guide over 2^bits equal slots of [0, 1), 2^bits >= 4·length: slot j
  // holds min{k : F(k) >= j/2^bits}, or length when no F(k) reaches it.
  // Four slots per entry rather than one keep most slots free of any
  // boundary, so the search mostly ends at the guide's own entry.
  const int bits = static_cast<int>(std::bit_width(4 * length - 1));
  table.guide = static_cast<std::uint32_t>(guide_.size());
  table.length = static_cast<std::uint16_t>(length);
  table.shift = static_cast<std::uint8_t>(53 - bits);
  const double* f = cdf_.data() + table.cdf;
  const std::size_t slots = std::size_t{1} << bits;
  const double slot_width = 1.0 / static_cast<double>(slots);  // exact
  guide_.resize(table.guide + slots);
  std::uint16_t* guide = guide_.data() + table.guide;
  std::size_t j = 0;
  for (std::size_t k = 0; k < length; ++k) {
    for (; j < slots && static_cast<double>(j) * slot_width <= f[k]; ++j) {
      guide[j] = static_cast<std::uint16_t>(k);
    }
  }
  for (; j < slots; ++j) guide[j] = static_cast<std::uint16_t>(length);
  return table;
}

std::uint64_t BinomialThinner::untabled(std::uint64_t n, Engine& engine) {
  if (n == 0 || p_ == 0.0) return 0;
  if (p_ == 1.0) return n;

  const double nd = static_cast<double>(n);
  std::uint64_t k;
  if (nd * pp_ <= kBinomialInversionMaxMean) {
    if (n < kThinnerCacheMax) {
      k = guided_search(build_table(n), engine);
    } else {
      const double q = 1.0 - pp_;
      k = binv_walk(nd, pp_, q, std::exp(nd * log_q_), binv_bound(nd, pp_, q),
                    engine);
    }
  } else {
    k = sample_btpe(n, pp_, engine);
  }
  return flip_ ? n - k : k;
}

}  // namespace flowrank::util
