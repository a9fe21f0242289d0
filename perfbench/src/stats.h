#pragma once
// Statistics and input schedules of the benchmark, kept free of the
// program's own code so that a change to the program cannot change how the
// benchmark draws its inputs or reduces its samples.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's input generator. Every workload input
/// (request contents, NL request seeds, arrival times, GDS geometry) is a
/// pure function of the --seed argument through this generator.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Median with the midpoint rule for even counts. Throws on no samples.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First, second and third quartiles by the same rule as Python's
/// statistics.quantiles(v, n=4) (the default "exclusive" method), so the
/// spreads the benchmark reports match the ones computed over its runs.
/// Needs at least two samples.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(v.begin(), v.end());
  const long long n = static_cast<long long>(v.size());
  const long long m = n + 1;
  std::array<double, 3> q{};
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp<long long>(i * m / 4, 1, n - 1);
    const long long delta = i * m - j * 4;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    q[static_cast<std::size_t>(i - 1)] = (lo * static_cast<double>(4 - delta) +
                                          hi * static_cast<double>(delta)) / 4.0;
  }
  return q;
}

/// Samples that lie strictly beyond the nearest-rank p-th percentile of n
/// samples (rank = ceil(p/100 * n)).
inline long long samples_beyond(long long n, double p) {
  const long long rank = static_cast<long long>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - rank;
}

/// Nearest-rank p-th percentile, reported only when at least `min_beyond`
/// samples lie beyond it: a p99 needs 1000 samples, so a tail is never read
/// off one or two outliers.
inline std::optional<double> tail_percentile(std::vector<double> v, double p,
                                             long long min_beyond = 10) {
  const long long n = static_cast<long long>(v.size());
  if (n == 0 || samples_beyond(n, p) < min_beyond) return std::nullopt;
  const long long rank = n - samples_beyond(n, p);
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[static_cast<std::size_t>(rank - 1)];
}

/// Latency of a run reduced robustly: the samples are cut into `segments`
/// consecutive, equal parts (in the order they were taken), and the median
/// and p-th percentile of each part are reduced by a median over the
/// parts, so one part slowed by a neighbour on the machine does not move
/// the result. Empty when a part is too small for its percentile.
struct Segmented {
  double p50 = 0;
  double tail = 0;
};
inline std::optional<Segmented> segmented_latency(const std::vector<double>& samples, int segments,
                                                  double p) {
  if (segments < 1) return std::nullopt;
  const std::size_t per = samples.size() / static_cast<std::size_t>(segments);
  std::vector<double> p50s, tails;
  for (int i = 0; i < segments; ++i) {
    const auto begin = samples.begin() + static_cast<long>(per * static_cast<std::size_t>(i));
    const std::vector<double> part(begin, begin + static_cast<long>(per));
    const std::optional<double> tail = tail_percentile(part, p);
    if (part.empty() || !tail) return std::nullopt;
    p50s.push_back(median(part));
    tails.push_back(*tail);
  }
  return Segmented{median(p50s), median(tails)};
}

/// Poisson arrivals: `count` send times (seconds after the phase starts) at
/// `rate` requests per second, from the benchmark's own generator.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate, std::size_t count) {
  if (!(rate > 0)) throw std::invalid_argument("poisson_schedule: rate must be positive");
  SplitMix64 rng(seed);
  std::vector<double> due(count);
  double t = 0.0;
  for (double& d : due) {
    t += -std::log1p(-rng.uniform()) / rate;
    d = t;
  }
  return due;
}

/// Open-loop latency of one request, charged from when it was due rather
/// than when the generator got round to sending it, so a stall delays every
/// request queued behind it on the client side too.
inline double due_latency_ms(double due_s, double done_s) { return (done_s - due_s) * 1e3; }

/// 64-bit FNV-1a step, for order-sensitive digests of inputs and outputs.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

}  // namespace perfbench
