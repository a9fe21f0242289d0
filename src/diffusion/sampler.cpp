#include "diffusion/sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "diffusion/neighborhood.h"
#include "obs/registry.h"

namespace cp::diffusion {

std::vector<int> DiffusionSampler::make_timesteps(int count) const {
  return make_timesteps_from(schedule_->steps(), count);
}

std::vector<int> DiffusionSampler::make_timesteps_from(int k_start, int count) const {
  return make_timesteps_from(k_start, count, ScheduleKind::kNoiseUniform);
}

std::vector<int> DiffusionSampler::make_timesteps(int count, ScheduleKind kind) const {
  return make_timesteps_from(schedule_->steps(), count, kind);
}

std::vector<int> DiffusionSampler::make_timesteps_from(int k_start, int count,
                                                       ScheduleKind kind) const {
  const int k_max = std::clamp(k_start, 1, schedule_->steps());
  if (kind == ScheduleKind::kSearched && count > 0 && count < k_max) {
    if (!searched_.empty()) return TimestepSchedule::restrict_to(searched_, k_max);
    // No registered list: degrade to the closed-form default rather than
    // failing a serving request.
    obs::count("sampler/searched_fallback");
    kind = ScheduleKind::kNoiseUniform;
  }
  return TimestepSchedule::make(*schedule_, kind, k_max, count);
}

void DiffusionSampler::set_searched_timesteps(std::vector<int> steps) {
  if (!steps.empty()) TimestepSchedule::validate(steps, schedule_->steps());
  searched_ = std::move(steps);
}

squish::Topology DiffusionSampler::reverse_step(const squish::Topology& xk, int k_from, int k_to,
                                                int condition, util::Rng& rng) const {
  if (k_to >= k_from) throw std::invalid_argument("reverse_step: k_to must be < k_from");
  // Per-step granularity: one span per reverse jump, never per pixel (the
  // pixel loop is the hot path; see docs/OBSERVABILITY.md "Overhead").
  const obs::Span span = obs::trace_scope("denoise_step");
  obs::count("sampler/denoise_steps");
  return sequential_ ? reverse_step_sequential(xk, k_from, k_to, condition, rng)
                     : reverse_step_factorized(xk, k_from, k_to, condition, rng);
}

namespace {

constexpr double kProbEps = 1e-6;

inline double shifted_prob(double p, double lambda) {
  if (lambda == 0.0) return p;
  const double pc = std::clamp(p, kProbEps, 1.0 - kProbEps);
  const double logit = std::log(pc / (1.0 - pc)) + lambda;
  return 1.0 / (1.0 + std::exp(-logit));
}

// ---- the reverse sweep ------------------------------------------------------
//
// Both reverse kernels (the stochastic sequential step and the deterministic
// MAP polish) are one in-place serpentine sweep in the index domain: each
// pixel's 17-bit neighbourhood index is read from the live grid
// (neighborhood::index_at, rows resolved once per row) and the denoiser is
// queried by index. Pixels are visited, and the RNG drawn, in exactly the
// order of the scalar loops kept in diffusion/reference.cpp.

/// MAP decisions memoised by neighbourhood index for one sweep: a decision
/// depends only on the index (the pixel's own value is its centre bit).
/// Bitsets (2 x 16 KB) plus a bounded list of the indices set, so the reset
/// costs the number of pixels swept, not 2^17.
class MapMemo {
 public:
  static constexpr int kWords = (1 << neighborhood::kCount) / 64;
  static constexpr std::size_t kMaxTouched = 2048;

  void reset() {
    if (known_.empty()) {
      known_.assign(kWords, 0);
      value_.assign(kWords, 0);
      touched_.reserve(kMaxTouched + 1);
    } else if (touched_.size() > kMaxTouched) {
      std::fill(known_.begin(), known_.end(), 0);
    } else {
      for (int index : touched_) known_[static_cast<std::size_t>(index >> 6)] = 0;
    }
    touched_.clear();
  }
  /// -1 when undecided, else the decided value.
  int get(int index) const {
    const std::size_t w = static_cast<std::size_t>(index >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (index & 63);
    if (!(known_[w] & bit)) return -1;
    return (value_[w] & bit) ? 1 : 0;
  }
  void set(int index, int v) {
    const std::size_t w = static_cast<std::size_t>(index >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (index & 63);
    known_[w] |= bit;
    value_[w] = v ? (value_[w] | bit) : (value_[w] & ~bit);
    if (touched_.size() <= kMaxTouched) touched_.push_back(index);
  }

 private:
  std::vector<std::uint64_t> known_, value_;
  std::vector<int> touched_;
};

MapMemo& map_memo() {
  static thread_local MapMemo memo;
  return memo;
}

/// Constants of one sweep.
struct Sweep {
  const Denoiser::StepPredictor* model;
  double lambda;           // guidance logit shift
  double post[2][2];       // posterior_p1(old, x0, flip_0j, flip_jk)
  bool bottom_up;          // serpentine starts at the last row
};

Sweep make_sweep(const Denoiser::StepPredictor& model, double lambda, double flip_0j,
                 double flip_jk, bool bottom_up) {
  Sweep s{&model, lambda, {}, bottom_up};
  for (int old = 0; old < 2; ++old) {
    for (int x0 = 0; x0 < 2; ++x0) s.post[old][x0] = posterior_p1(old, x0, flip_0j, flip_jk);
  }
  return s;
}

/// reverse_p1(old, shifted p0, flip_0j, flip_jk) with the posteriors hoisted.
inline double sweep_p1(const Sweep& s, int index) {
  const int old = index & 1;
  const double p = shifted_prob(s.model->p0(index), s.lambda);
  return p * s.post[old][1] + (1.0 - p) * s.post[old][0];
}

/// One in-place serpentine sweep over `x`. With `rng`, each pixel draws
/// bernoulli(p1) (the sequential reverse step); without, it takes the
/// argmax p1 > 0.5 (MAP polish), skipping cells set in `keep`.
void sweep(squish::Topology& x, const Sweep& s, const squish::Topology& keep,
           util::Rng* rng) {
  const int rows = x.rows();
  const int cols = x.cols();
  MapMemo& memo = map_memo();
  if (!rng) memo.reset();
  for (int rr = 0; rr < rows; ++rr) {
    const int r = s.bottom_up ? rows - 1 - rr : rr;
    const bool reverse_cols = (rr % 2) == 1;
    const neighborhood::RowSources src(x, r);
    for (int cc = 0; cc < cols; ++cc) {
      const int c = reverse_cols ? cols - 1 - cc : cc;
      if (!keep.empty() && keep.at(r, c)) continue;
      const int index = neighborhood::index_at(src, c);
      int v;
      if (rng) {
        v = rng->bernoulli(sweep_p1(s, index)) ? 1 : 0;
      } else {
        v = memo.get(index);
        if (v < 0) {
          v = sweep_p1(s, index) > 0.5 ? 1 : 0;
          memo.set(index, v);
        }
      }
      if (v != (index & 1)) x.set(r, c, static_cast<std::uint8_t>(v));
    }
  }
}

}  // namespace

double DiffusionSampler::guidance_shift(const squish::Topology& xk, int k_from,
                                        int condition) const {
  if (!guidance_) return 0.0;
  const double target = denoiser_->prior_density(condition);
  if (target <= 0.0 || target >= 1.0) return 0.0;
  ProbGrid p0;
  denoiser_->predict_x0(xk, k_from, condition, p0);
  // Bisection on the uniform logit shift. p0 takes few distinct values (one
  // per distinct neighbourhood index at most), so each value's logit is
  // taken once and each iteration evaluates one exp per value; the mean is
  // still summed in pixel order, so the result is the per-pixel loop's.
  std::vector<float> values(p0);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::vector<std::uint32_t> value_of(p0.size());
  for (std::size_t i = 0; i < p0.size(); ++i) {
    value_of[i] = static_cast<std::uint32_t>(
        std::lower_bound(values.begin(), values.end(), p0[i]) - values.begin());
  }
  std::vector<double> logit(values.size()), shifted(values.size());
  for (std::size_t v = 0; v < values.size(); ++v) {
    const double pc = std::clamp(static_cast<double>(values[v]), kProbEps, 1.0 - kProbEps);
    logit[v] = std::log(pc / (1.0 - pc));
  }
  double lo = -8.0, hi = 8.0;
  for (int iter = 0; iter < 24; ++iter) {
    const double mid = 0.5 * (lo + hi);
    for (std::size_t v = 0; v < values.size(); ++v) {
      // shifted_prob: a zero shift (the first midpoint) returns p itself.
      shifted[v] = mid == 0.0 ? static_cast<double>(values[v])
                              : 1.0 / (1.0 + std::exp(-(logit[v] + mid)));
    }
    double mean = 0.0;
    for (std::uint32_t v : value_of) mean += shifted[v];
    mean /= static_cast<double>(p0.size());
    if (mean < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

squish::Topology DiffusionSampler::reverse_step_factorized(const squish::Topology& xk,
                                                           int k_from, int k_to, int condition,
                                                           util::Rng& rng) const {
  ProbGrid p0;
  denoiser_->predict_x0(xk, k_from, condition, p0);
  const double lambda = guidance_shift(xk, k_from, condition);
  const double flip_0j = schedule_->cumulative_flip(k_to);
  const double flip_jk = schedule_->flip_between(k_to, k_from);
  squish::Topology out(xk.rows(), xk.cols());
  std::size_t i = 0;
  for (int r = 0; r < xk.rows(); ++r) {
    for (int c = 0; c < xk.cols(); ++c, ++i) {
      const double p1 = reverse_p1(xk.at(r, c), shifted_prob(p0[i], lambda), flip_0j, flip_jk);
      out.set(r, c, rng.bernoulli(p1) ? 1 : 0);
    }
  }
  return out;
}

squish::Topology DiffusionSampler::reverse_step_sequential(const squish::Topology& xk,
                                                           int k_from, int k_to, int condition,
                                                           util::Rng& rng) const {
  const double flip_0j = schedule_->cumulative_flip(k_to);
  const double flip_jk = schedule_->flip_between(k_to, k_from);
  const double lambda = guidance_shift(xk, k_from, condition);
  // Update the grid in place: pixels already visited carry their k_to
  // values, pixels ahead still carry k_from values, and the denoiser is
  // re-queried on the evolving grid. A serpentine scan whose start corner
  // alternates with k_from removes the directional bias a fixed raster
  // order would imprint.
  squish::Topology x = xk;
  const auto model = denoiser_->at_step(k_from, condition);
  sweep(x, make_sweep(*model, lambda, flip_0j, flip_jk, k_from % 2 == 0), squish::Topology(),
        &rng);
  return x;
}

squish::Topology DiffusionSampler::map_polish(squish::Topology x, int k, int condition,
                                              const squish::Topology& keep_mask) const {
  const obs::Span span = obs::trace_scope("map_polish");
  obs::count("sampler/map_polish_calls");
  const int kk = std::clamp(k, 1, schedule_->steps());
  // Treat the current pattern as if it sat at noise level kk and take the
  // most probable clean value per pixel, sequentially (serpentine).
  const double flip_jk = schedule_->cumulative_flip(kk);
  // Guidance for an argmax sweep must match the *fraction of pixels that
  // end up above threshold* to the prior density, not the mean probability
  // (mean-matching overshoots under argmax and oscillates). The shift is
  // chosen so the (1 - density)-quantile of the predictions lands at the
  // decision boundary implied by the hysteresis of the reverse kernel.
  double lambda = 0.0;
  if (guidance_) {
    const double target = denoiser_->prior_density(condition);
    if (target > 0.0 && target < 1.0) {
      ProbGrid p0;
      denoiser_->predict_x0(x, kk, condition, p0);
      const std::size_t idx = static_cast<std::size_t>(
          std::clamp((1.0 - target) * static_cast<double>(p0.size() - 1), 0.0,
                     static_cast<double>(p0.size() - 1)));
      std::nth_element(p0.begin(), p0.begin() + static_cast<std::ptrdiff_t>(idx), p0.end());
      const double q = std::clamp(static_cast<double>(p0[idx]), kProbEps, 1.0 - kProbEps);
      // Move the density-matching quantile to p = 0.5.
      lambda = -std::log(q / (1.0 - q));
      // Keep the correction gentle; the kernel's hysteresis does the rest.
      lambda = std::clamp(lambda, -2.0, 2.0);
    }
  }
  // Reverse distribution straight to level 0 (flip_0j = 0).
  const auto model = denoiser_->at_step(kk, condition);
  sweep(x, make_sweep(*model, lambda, 0.0, flip_jk, kk % 2 == 0), keep_mask, nullptr);
  return x;
}

squish::Topology DiffusionSampler::sample(const SampleConfig& config, util::Rng& rng) const {
  const obs::Span span = obs::trace_scope("sampler/sample");
  obs::count("sampler/samples");
  // Every denoiser call below (reverse chain, guidance, polish) inherits the
  // requested precision tier through the thread-local scope.
  const PrecisionScope precision_scope(config.precision);
  // Word-parallel uniform init; one Bernoulli draw per cell in row-major
  // order, same stream as the scalar loop (see forward_noise).
  squish::Topology x(config.rows, config.cols);
  for (int r = 0; r < x.rows(); ++r) {
    for (int w = 0; w < x.words_per_row(); ++w) {
      const int bits = std::min(64, x.cols() - w * 64);
      std::uint64_t mask = 0;
      for (int j = 0; j < bits; ++j) {
        mask |= static_cast<std::uint64_t>(rng.bernoulli(0.5)) << j;
      }
      if (mask != 0) x.xor_word(r, w, mask);
    }
  }
  x = sample_from(std::move(x), make_timesteps(config.sample_steps, config.schedule_kind),
                  config.condition, rng);
  for (int round = 0; round < config.polish_rounds; ++round) {
    x = polish(std::move(x), config.polish_k, config.condition, rng);
  }
  return x;
}

squish::Topology DiffusionSampler::polish(squish::Topology x0, int polish_k, int condition,
                                          util::Rng& rng) const {
  const obs::Span span = obs::trace_scope("polish");
  obs::count("sampler/polish_rounds");
  const int k = std::clamp(polish_k, 1, schedule_->steps());
  squish::Topology xk = forward_noise(x0, *schedule_, k, rng);
  // Descend geometrically from k to 0.
  std::vector<int> steps;
  for (int j = k; j >= 1; j = j / 2) steps.push_back(j);
  steps.push_back(0);
  return sample_from(std::move(xk), steps, condition, rng);
}

squish::Topology DiffusionSampler::sample_from(squish::Topology x,
                                               const std::vector<int>& timesteps, int condition,
                                               util::Rng& rng) const {
  if (timesteps.size() < 2 || timesteps.back() != 0) {
    throw std::invalid_argument("sample_from: timestep list must descend to 0");
  }
  for (std::size_t i = 0; i + 1 < timesteps.size(); ++i) {
    x = reverse_step(x, timesteps[i], timesteps[i + 1], condition, rng);
  }
  return x;
}

}  // namespace cp::diffusion
