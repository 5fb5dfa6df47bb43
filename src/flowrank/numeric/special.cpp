#include "flowrank/numeric/special.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

// AVX2 clones of the batch kernels: x86-64 under GCC or clang, whose
// `target` attribute and __builtin_cpu_supports they use.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLOWRANK_KERNELS_AVX2 1
#else
#define FLOWRANK_KERNELS_AVX2 0
#endif

// std::lgamma is not thread-safe: C99 requires it to store the sign of
// Γ(x) in the global `signgam`, so two pool workers evaluating pmf terms
// concurrently race on that write (caught by the full-suite TSan job).
// POSIX's lgamma_r returns the sign through an out-parameter instead and
// touches no globals; glibc's lgamma is lgamma_r plus the signgam store,
// so switching changes no returned bits. Under -std=c++20 (strict ANSI)
// glibc hides the declaration, so declare it ourselves; `noexcept`
// matches glibc's __THROW.
#if defined(__GLIBC__)
#if defined(__STRICT_ANSI__)
extern "C" double lgamma_r(double, int*) noexcept;
#endif
#define FLOWRANK_HAVE_LGAMMA_R 1
#elif defined(__APPLE__) || (defined(_POSIX_C_SOURCE) && _POSIX_C_SOURCE >= 200112L)
#define FLOWRANK_HAVE_LGAMMA_R 1
#endif

namespace flowrank::numeric {

bool isa_supported(Isa isa) noexcept {
  switch (isa) {
    case Isa::kBaseline: return true;
    case Isa::kAvx2:
#if FLOWRANK_KERNELS_AVX2
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const char* isa_name(Isa isa) noexcept {
  return isa == Isa::kAvx2 ? "avx2" : "baseline";
}

namespace {
// The only lgamma spelling allowed in this repo (the linter bans the
// rest); x > 0 everywhere we call it, so the sign is discarded.
double lgamma_threadsafe(double x) {
#if defined(FLOWRANK_HAVE_LGAMMA_R)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);  // single-threaded fallback platforms only
#endif
}

// ln n! values are memoized in a lazily grown table: the exact models
// sweep binomial coefficients with n in the tens of thousands (flow sizes)
// and the table means each ln n! is computed once per thread rather than
// via lgamma on every pmf term. Beyond the cap (512 KiB per thread) a
// query costs one lgamma, same as the pre-memo path — growth doubles up
// to the requested index, so the cap also bounds the eager fill a single
// large-n query can trigger.
constexpr std::size_t kFactorialCacheCap = 1 << 16;
// Below this index entries come from the exact cumulative recurrence (the
// error of ~1e3 rounded additions is negligible); above it each entry is
// an independent lgamma call so the cumulative rounding never compounds
// across a million terms.
constexpr std::size_t kCumulativeLimit = 1024;

double cached_log_factorial(std::size_t n) {
  thread_local std::vector<double> table{0.0, 0.0};  // 0! and 1!
  if (n >= table.size()) {
    std::size_t new_size = table.size();
    while (new_size <= n) new_size *= 2;
    table.reserve(new_size);
    for (std::size_t i = table.size(); i < new_size; ++i) {
      table.push_back(i < kCumulativeLimit
                          ? table[i - 1] + std::log(static_cast<double>(i))
                          : lgamma_threadsafe(static_cast<double>(i) + 1.0));
    }
  }
  return table[n];
}
}  // namespace

double log_gamma(double x) {
  if (!(x > 0.0)) {
    throw std::domain_error("log_gamma: requires x > 0");
  }
  return lgamma_threadsafe(x);
}

double log_factorial(std::int64_t n) {
  if (n < 0) throw std::domain_error("log_factorial: requires n >= 0");
  if (static_cast<std::size_t>(n) < kFactorialCacheCap) {
    return cached_log_factorial(static_cast<std::size_t>(n));
  }
  return lgamma_threadsafe(static_cast<double>(n) + 1.0);
}

double log_choose(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n) return -std::numeric_limits<double>::infinity();
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

double log_sum_exp(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) return b;
  if (b == -std::numeric_limits<double>::infinity()) return a;
  const double m = a > b ? a : b;
  return m + std::log1p(std::exp(-(std::abs(a - b))));
}

double log1m_exp(double x) {
  if (x > 0.0) throw std::domain_error("log1m_exp: requires x <= 0");
  if (x == 0.0) return -std::numeric_limits<double>::infinity();
  // Mächler (2012): switch at ln 2 for accuracy.
  if (x > -0.6931471805599453) return std::log(-std::expm1(x));
  return std::log1p(-std::exp(x));
}

namespace {

// --- erfc ---------------------------------------------------------------
//
// Cody's three rational forms (the coefficients of netlib specfun's
// CALERF). Every kernel below is straight-line double arithmetic, so one
// kernel applied to a run of inputs is a loop the compiler vectorizes,
// and the scalar and batch forms share the kernels bit for bit. The
// CMake build compiles this file with -ffp-contract=off: a fused
// multiply-add would round differently on targets that have one.

// erf(x) ~ x P(x^2) / Q(x^2) on |x| <= 0.46875.
constexpr double kErfP[5] = {3.16112374387056560e00, 1.13864154151050156e02,
                             3.77485237685302021e02, 3.20937758913846947e03,
                             1.85777706184603153e-1};
constexpr double kErfQ[4] = {2.36012909523441209e01, 2.44024637934444173e02,
                             1.28261652607737228e03, 2.84423683343917062e03};
// erfc(x) ~ exp(-x^2) P(x) / Q(x) on 0.46875 < x <= 4.
constexpr double kMidP[9] = {5.64188496988670089e-1, 8.88314979438837594e00,
                             6.61191906371416295e01, 2.98635138197400131e02,
                             8.81952221241769090e02, 1.71204761263407058e03,
                             2.05107837782607147e03, 1.23033935479799725e03,
                             2.15311535474403846e-8};
constexpr double kMidQ[8] = {1.57449261107098347e01, 1.17693950891312499e02,
                             5.37181101862009858e02, 1.62138957456669019e03,
                             3.29079923573345963e03, 4.36261909014324716e03,
                             3.43936767414372164e03, 1.23033935480374942e03};
// erfc(x) ~ exp(-x^2) / x (1/sqrt(pi) - z P(z) / Q(z)), z = 1/x^2, on
// 4 < x < kErfcCutoff.
constexpr double kTailP[6] = {3.05326634961232344e-1, 3.60344899949804439e-1,
                              1.25781726111229246e-1, 1.60837851487422766e-2,
                              6.58749161529837803e-4, 1.63153871373020978e-2};
constexpr double kTailQ[5] = {2.56852019228982242e00, 1.87295284992346725e00,
                              5.27905102951428412e-1, 6.05183413124413191e-2,
                              2.33520497626869185e-3};
constexpr double kInvSqrtPi = 5.6418958354775628695e-1;

constexpr double kSmallLimit = 0.46875;
constexpr double kMidLimit = 4.0;
// erfc drops under DBL_MIN at x ~ 26.5433 (erfc(26.55) ~ 1.6e-308);
// exp(-x^2) is a normal number for every x below the cutoff, and beyond
// it erfc is reported as 0.
constexpr double kErfcCutoff = 26.55;

// exp kernel (fdlibm's e_exp.c): x = k ln2 + r, |r| <= ln2/2, and
// exp(r) = 1 + r + r c / (2 - c) with c = r - r^2 R(r^2).
constexpr double kLn2Hi = 0x1.62e42feep-1;  // 32 bits: k ln2Hi is exact
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kInvLn2 = 0x1.71547652b82fep+0;
constexpr double kExpP1 = 1.66666666666666019037e-01;
constexpr double kExpP2 = -2.77777777770155933842e-03;
constexpr double kExpP3 = 6.61375632143793436117e-05;
constexpr double kExpP4 = -1.65339022054652515390e-06;
constexpr double kExpP5 = 4.13813679705723846039e-08;
// Adding 1.5 * 2^52 rounds to an integer (1.5 * 2^48: to a multiple of
// 1/16) and leaves the integer in the low mantissa bits.
constexpr double kRoundInt = 0x1.8p52;
constexpr double kRoundSixteenth = 0x1.8p48;

/// exp(-y^2) for 0.46875 < y < kErfcCutoff. y^2 = h^2 + d exactly up to
/// the rounding of d, where h is y rounded to a multiple of 1/16 (h^2
/// and y - h are exact) and d = (y - h)(y + h); the reduction subtracts
/// k ln2 from the exact -h^2 before d enters, as Cody's exp(-h^2)
/// exp(-d) product does with one exp instead of two.
inline double exp_neg_square(double y) {
  const double h = (y + kRoundSixteenth) - kRoundSixteenth;
  const double h2 = h * h;
  const double d = (y - h) * (y + h);
  const double shifted = -(h2 + d) * kInvLn2 + kRoundInt;
  const double k = shifted - kRoundInt;
  const double hi = -h2 - k * kLn2Hi;  // exact: both are multiples of 2^-32
  const double lo = d + k * kLn2Lo;
  const double r = hi - lo;
  const double t = r * r;
  const double c = r - t * (kExpP1 + t * (kExpP2 + t * (kExpP3 + t * (kExpP4 + t * kExpP5))));
  const double e = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  // 2^k from the integer in `shifted`'s low bits: k in [-1018, 0], so
  // the biased exponent k + 1023 is that of a normal number.
  const double scale = std::bit_cast<double>((std::bit_cast<std::uint64_t>(shifted) << 52) +
                                             (std::uint64_t{1023} << 52));
  return e * scale;
}

/// |x| <= 0.46875: 1 - erf(x).
inline double erfc_small(double x) {
  const double z = x * x;
  double num = kErfP[4] * z;
  double den = z;
  for (int i = 0; i < 3; ++i) {
    num = (num + kErfP[i]) * z;
    den = (den + kErfQ[i]) * z;
  }
  return 1.0 - x * (num + kErfP[3]) / (den + kErfQ[3]);
}

/// 0.46875 < y <= 4.
inline double erfc_mid(double y) {
  double num = kMidP[8] * y;
  double den = y;
  for (int i = 0; i < 7; ++i) {
    num = (num + kMidP[i]) * y;
    den = (den + kMidQ[i]) * y;
  }
  return exp_neg_square(y) * ((num + kMidP[7]) / (den + kMidQ[7]));
}

/// 4 < y < kErfcCutoff.
inline double erfc_tail(double y) {
  const double z = 1.0 / (y * y);
  double num = kTailP[5] * z;
  double den = z;
  for (int i = 0; i < 4; ++i) {
    num = (num + kTailP[i]) * z;
    den = (den + kTailQ[i]) * z;
  }
  const double ratio = z * (num + kTailP[4]) / (den + kTailQ[4]);
  return exp_neg_square(y) * ((kInvSqrtPi - ratio) / y);
}

// Negative x: erfc(x) = 2 - erfc(-x). Regimes of their own, so that no
// kernel selects on the sign (a conditional subtraction keeps the
// compiler from vectorizing the run).
inline double erfc_mid_neg(double x) { return 2.0 - erfc_mid(-x); }
inline double erfc_tail_neg(double x) { return 2.0 - erfc_tail(-x); }

/// |x| >= kErfcCutoff, infinities and NaN.
inline double erfc_far(double x) { return x > 0.0 ? 0.0 : (x < 0.0 ? 2.0 : x); }

enum Regime { kSmall, kMid, kMidNeg, kTail, kTailNeg, kFar };

inline Regime erfc_regime(double x) {
  const double y = std::abs(x);
  if (y <= kSmallLimit) return kSmall;
  if (y <= kMidLimit) return x > 0.0 ? kMid : kMidNeg;
  if (y < kErfcCutoff) return x > 0.0 ? kTail : kTailNeg;
  return kFar;  // NaN too
}

/// erfc_regime(x) == regime, as one or two comparisons: the run scan's
/// test, cheaper than classifying every input.
inline bool in_regime(Regime regime, double x) {
  switch (regime) {
    case kSmall: return std::abs(x) <= kSmallLimit;
    case kMid: return x > kSmallLimit && x <= kMidLimit;
    case kMidNeg: return x < -kSmallLimit && x >= -kMidLimit;
    case kTail: return x > kMidLimit && x < kErfcCutoff;
    case kTailNeg: return x < -kMidLimit && x > -kErfcCutoff;
    case kFar: break;
  }
  return !(std::abs(x) < kErfcCutoff);
}

/// Values the run scan tests at once.
constexpr std::size_t kScanBlock = 8;

/// The maximal run of regime R that starts at `begin` (c[begin] * r is in
/// it): out[i] = kernel(c[i] * r) over it. Returns its end. The scan
/// tests whole blocks branch-free first, then finds the run's last
/// value one by one.
template <Regime R, double (*Kernel)(double)>
std::size_t apply_run(const double* c, double r, double* out, std::size_t begin,
                      std::size_t n) {
  std::size_t end = begin + 1;
  while (n - end >= kScanBlock) {
    bool all = true;
    for (std::size_t k = 0; k < kScanBlock; ++k) all &= in_regime(R, c[end + k] * r);
    if (!all) break;
    end += kScanBlock;
  }
  while (end < n && in_regime(R, c[end] * r)) ++end;
  for (std::size_t i = begin; i < end; ++i) out[i] = Kernel(c[i] * r);
  return end;
}

// --- unit power ---------------------------------------------------------
//
// y^e = exp(e log y) for y in (0, 1] and e <= 0. A plain exp(e log y)
// would scale log y's rounding by |e log y| (~35 ulp at y ~ 1e-15), so
// log y is carried as hi + lo and the product e log y is formed exactly
// before the exp kernel above reduces it.

// log kernel (fdlibm's e_log.c): y = 2^k z with z in [0.7, 1.4), f = z - 1
// (exact), s = f / (2 + f) and log(1 + f) = f - (f^2/2 - s (f^2/2 + R)),
// R = Lg1 s^2 + ... + Lg7 s^14.
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;
// Bits of ~0.7: subtracting them before taking the exponent field puts z
// in [0.7, 1.4) (musl's log reduction), with integer operations only.
constexpr std::uint64_t kLogOffset = 0x3fe6955500000000;
constexpr std::uint64_t kExponentOne = std::uint64_t{1023} << 52;
// 2^52 + 1023 + 54: the biased exponent of y 2^54 in the low mantissa
// bits of 2^52 reads y's exponent after subtracting it.
constexpr double kUnbias = 0x1p52 + 1077.0;
// Veltkamp's splitter: a * (2^27 + 1) splits a double into two halves
// whose products are exact.
constexpr double kSplitter = 0x1p27 + 1.0;
// e log y above this overflows any double (exp(709.79) does already).
// Raising log y to kMaxExpArg / e, the log floor, keeps the exponent
// arithmetic in range and the result infinite. The floor is an argument
// of the kernel, computed once per call: a clamp at a compile-time
// constant gets specialized into a branch, and the loop would not
// vectorize.
constexpr double kMaxExpArg = 746.0;

/// a = hi + lo with hi holding a's upper 26 bits.
inline void split(double a, double& hi, double& lo) {
  const double t = kSplitter * a;
  hi = t - (t - a);
  lo = a - hi;
}

/// y^e for y in (0, 1] and e <= 0 with |e| < 2^969; 1 at y = 1.
/// `log_floor` is kMaxExpArg / e.
inline double unit_power_kernel(double y, double e, double log_floor) {
  // y 2^54 is exact and normal for every y in (0, 1], subnormal y too,
  // so no input needs a branch of its own.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(y * 0x1p54);
  const std::uint64_t biased = (bits - kLogOffset + kExponentOne) >> 52;  // k + 54 + 1023
  const double z = std::bit_cast<double>(bits - (biased << 52) + kExponentOne);
  const double k = std::bit_cast<double>(biased | std::bit_cast<std::uint64_t>(0x1p52)) - kUnbias;
  // log(1 + f) = f - c.
  const double f = z - 1.0;
  const double s = f / (2.0 + f);
  const double s2 = s * s;
  const double s4 = s2 * s2;
  const double r = s2 * (kLg1 + s4 * (kLg3 + s4 * (kLg5 + s4 * kLg7))) +
                   s4 * (kLg2 + s4 * (kLg4 + s4 * kLg6));
  const double hfsq = 0.5 * f * f;
  const double c = hfsq - s * (hfsq + r);
  // log y = k ln2 + f - c as hi + lo: |c| < |f|, and k ln2Hi is exact and
  // either 0 or larger than |f - c|, so both sums below are exact
  // two-sums in their fast form.
  const double m_hi = f - c;
  const double m_lo = (f - m_hi) - c;
  const double a = k * kLn2Hi;
  const double sum = a + m_hi;
  const double l_lo = ((a - sum) + m_hi) + (m_lo + k * kLn2Lo);
  const double l_hi = sum < log_floor ? log_floor : sum;
  // x = e log y, with e * l_hi's rounding error recovered exactly.
  double e_hi, e_lo, l_hi_hi, l_hi_lo;
  split(e, e_hi, e_lo);
  split(l_hi, l_hi_hi, l_hi_lo);
  const double p = e * l_hi;
  const double p_err = ((e_hi * l_hi_hi - p) + e_hi * l_hi_lo + e_lo * l_hi_hi) + e_lo * l_hi_lo;
  const double x_lo = p_err + e * l_lo;
  // exp(p + x_lo), p in [0, ~746]: x = n ln2 + (hi - lo) as in
  // exp_neg_square, and 2^n as two factors so that every partial
  // exponent is a normal one (n reaches 1077).
  const double shifted = p * kInvLn2 + kRoundInt;
  const double n = shifted - kRoundInt;
  const double hi = p - n * kLn2Hi;  // exact
  const double lo = n * kLn2Lo - x_lo;
  const double rr = hi - lo;
  const double t = rr * rr;
  const double cc = rr - t * (kExpP1 + t * (kExpP2 + t * (kExpP3 + t * (kExpP4 + t * kExpP5))));
  const double ex = 1.0 - ((lo - (rr * cc) / (2.0 - cc)) - hi);
  const double half = 0.5 * n + kRoundInt;  // round(n / 2) in the low bits
  const double rest = (n - (half - kRoundInt)) + kRoundInt;
  const double scale_a =
      std::bit_cast<double>((std::bit_cast<std::uint64_t>(half) << 52) + kExponentOne);
  const double scale_b =
      std::bit_cast<double>((std::bit_cast<std::uint64_t>(rest) << 52) + kExponentOne);
  return ex * scale_a * scale_b;
}

/// The largest |e| unit_power_kernel takes: Veltkamp's split of e must
/// not overflow.
constexpr double kMaxExponent = 0x1p969;

/// Checks e and returns its log floor (none for e = 0: y^0 = 1).
double unit_power_log_floor(double e) {
  if (!(e <= 0.0 && e > -kMaxExponent)) {
    throw std::domain_error("unit_power: requires e in (-2^969, 0]");
  }
  return e < 0.0 ? kMaxExpArg / e : -std::numeric_limits<double>::infinity();
}

/// erfc_scaled's walk: maximal runs of one regime, one kernel loop each.
inline void erfc_runs(const double* c, double r, double* out, std::size_t n) {
  std::size_t begin = 0;
  while (begin < n) {
    switch (erfc_regime(c[begin] * r)) {
      case kSmall: begin = apply_run<kSmall, erfc_small>(c, r, out, begin, n); break;
      case kMid: begin = apply_run<kMid, erfc_mid>(c, r, out, begin, n); break;
      case kMidNeg: begin = apply_run<kMidNeg, erfc_mid_neg>(c, r, out, begin, n); break;
      case kTail: begin = apply_run<kTail, erfc_tail>(c, r, out, begin, n); break;
      case kTailNeg: begin = apply_run<kTailNeg, erfc_tail_neg>(c, r, out, begin, n); break;
      case kFar: begin = apply_run<kFar, erfc_far>(c, r, out, begin, n); break;
    }
  }
}

/// dst[i] = scale * y[i]^e over validated inputs.
inline void unit_powers(const double* y, double* dst, std::size_t n, double e, double scale,
                        double log_floor) {
  if (y == dst) {
    // In place: one pointer, so the loop vectorizes without the overlap
    // check that would send it down its scalar version.
    for (std::size_t i = 0; i < n; ++i) dst[i] = scale * unit_power_kernel(dst[i], e, log_floor);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) dst[i] = scale * unit_power_kernel(y[i], e, log_floor);
}

// --- instruction-set clones ----------------------------------------------
//
// Each batch kernel is compiled twice from the one source above: for
// baseline x86-64 (SSE2) and for AVX2. `flatten` inlines the whole call
// tree into each clone, so every loop in it is vectorized for that
// instruction set. AVX2 brings no FMA, and this file builds with
// -ffp-contract=off, so both clones make the same IEEE operations in the
// same order: the same bits. Other targets compile the baseline only.

[[gnu::flatten]] void erfc_runs_baseline(const double* c, double r, double* out,
                                         std::size_t n) {
  erfc_runs(c, r, out, n);
}

[[gnu::flatten]] void unit_powers_baseline(const double* y, double* dst, std::size_t n,
                                           double e, double scale, double log_floor) {
  unit_powers(y, dst, n, e, scale, log_floor);
}

#if FLOWRANK_KERNELS_AVX2
[[gnu::flatten, gnu::target("avx2")]] void erfc_runs_avx2(const double* c, double r,
                                                          double* out, std::size_t n) {
  erfc_runs(c, r, out, n);
}

[[gnu::flatten, gnu::target("avx2")]] void unit_powers_avx2(const double* y, double* dst,
                                                            std::size_t n, double e,
                                                            double scale, double log_floor) {
  unit_powers(y, dst, n, e, scale, log_floor);
}
#endif

void check_isa(Isa isa) {
  if (!isa_supported(isa)) {
    throw std::invalid_argument(std::string("numeric kernels: this CPU cannot run the ") +
                                isa_name(isa) + " clones");
  }
}

/// erfc_scaled on `isa`'s clone, which this CPU can run.
void erfc_scaled_on(Isa isa, std::span<const double> c, double r, std::span<double> out) {
  if (c.size() != out.size()) {
    throw std::invalid_argument("erfc_scaled: c and out differ in size");
  }
#if FLOWRANK_KERNELS_AVX2
  if (isa == Isa::kAvx2) return erfc_runs_avx2(c.data(), r, out.data(), c.size());
#endif
  erfc_runs_baseline(c.data(), r, out.data(), c.size());
}

/// scaled_unit_powers on `isa`'s clone, which this CPU can run.
void scaled_unit_powers_on(Isa isa, std::span<const double> y, double e, double scale,
                           std::span<double> out) {
  if (y.size() != out.size()) {
    throw std::invalid_argument("scaled_unit_powers: y and out differ in size");
  }
  const double log_floor = unit_power_log_floor(e);
  for (const double v : y) {
    if (!(v > 0.0 && v <= 1.0)) {
      throw std::domain_error("scaled_unit_powers: requires y in (0, 1]");
    }
  }
#if FLOWRANK_KERNELS_AVX2
  if (isa == Isa::kAvx2) {
    return unit_powers_avx2(y.data(), out.data(), y.size(), e, scale, log_floor);
  }
#endif
  unit_powers_baseline(y.data(), out.data(), y.size(), e, scale, log_floor);
}

/// The kernels' instruction set, chosen once when the library loads.
/// Zero-initialized storage reads Isa::kBaseline, so a call made during
/// another file's static initialization, before this one, still gets
/// the right bits.
const Isa kDispatchedIsa = isa_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline;

}  // namespace

Isa dispatched_isa() noexcept { return kDispatchedIsa; }

double normal_cdf(double x) { return 0.5 * erfc(-x / std::sqrt(2.0)); }

double normal_sf(double x) { return 0.5 * erfc(x / std::sqrt(2.0)); }

double erfc(double x) {
  switch (erfc_regime(x)) {
    case kSmall: return erfc_small(x);
    case kMid: return erfc_mid(x);
    case kMidNeg: return erfc_mid_neg(x);
    case kTail: return erfc_tail(x);
    case kTailNeg: return erfc_tail_neg(x);
    case kFar: break;
  }
  return erfc_far(x);
}

void erfc_scaled(std::span<const double> c, double r, std::span<double> out) {
  erfc_scaled_on(dispatched_isa(), c, r, out);
}

void erfc_scaled(Isa isa, std::span<const double> c, double r, std::span<double> out) {
  check_isa(isa);
  erfc_scaled_on(isa, c, r, out);
}

double unit_power(double y, double e) {
  if (!(y > 0.0 && y <= 1.0)) throw std::domain_error("unit_power: requires y in (0, 1]");
  return unit_power_kernel(y, e, unit_power_log_floor(e));
}

void scaled_unit_powers(std::span<const double> y, double e, double scale,
                        std::span<double> out) {
  scaled_unit_powers_on(dispatched_isa(), y, e, scale, out);
}

void scaled_unit_powers(Isa isa, std::span<const double> y, double e, double scale,
                        std::span<double> out) {
  check_isa(isa);
  scaled_unit_powers_on(isa, y, e, scale, out);
}

}  // namespace flowrank::numeric
