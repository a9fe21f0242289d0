#include "diffusion/reference.h"

#include <algorithm>
#include <cmath>

#include "diffusion/neighborhood.h"
#include "diffusion/transition.h"

namespace cp::diffusion {

squish::ByteTopology reference_forward_noise(const squish::ByteTopology& x0,
                                             const NoiseSchedule& schedule, int k,
                                             util::Rng& rng) {
  const double flip = schedule.cumulative_flip(k);
  squish::ByteTopology xk = x0;
  for (int r = 0; r < xk.rows(); ++r) {
    for (int c = 0; c < xk.cols(); ++c) {
      if (rng.bernoulli(flip)) xk.set(r, c, static_cast<std::uint8_t>(1 - xk.at(r, c)));
    }
  }
  return xk;
}

int reference_neighborhood_index(const squish::ByteTopology& t, int r, int c) {
  int index = 0;
  for (int i = 0; i < neighborhood::kCount; ++i) {
    const int rr = neighborhood::fold_mirror(r + neighborhood::kOffsets[i][0], t.rows());
    const int cc = neighborhood::fold_mirror(c + neighborhood::kOffsets[i][1], t.cols());
    index |= (t.at(rr, cc) != 0) << i;
  }
  return index;
}

std::vector<std::pair<int, int>> reference_row_runs(const squish::ByteTopology& t, int r,
                                                    std::uint8_t value) {
  std::vector<std::pair<int, int>> runs;
  int c = 0;
  while (c < t.cols()) {
    if (t.at(r, c) != value) {
      ++c;
      continue;
    }
    const int start = c;
    while (c < t.cols() && t.at(r, c) == value) ++c;
    runs.emplace_back(start, c);
  }
  return runs;
}

namespace {

constexpr double kProbEps = 1e-6;

double shifted_prob(double p, double lambda) {
  if (lambda == 0.0) return p;
  const double pc = std::clamp(p, kProbEps, 1.0 - kProbEps);
  const double logit = std::log(pc / (1.0 - pc)) + lambda;
  return 1.0 / (1.0 + std::exp(-logit));
}

double guidance_shift(const Denoiser& denoiser, bool guidance, const squish::Topology& xk,
                      int k_from, int condition) {
  if (!guidance) return 0.0;
  const double target = denoiser.prior_density(condition);
  if (target <= 0.0 || target >= 1.0) return 0.0;
  ProbGrid p0;
  denoiser.predict_x0(xk, k_from, condition, p0);
  double lo = -8.0, hi = 8.0;
  for (int iter = 0; iter < 24; ++iter) {
    const double mid = 0.5 * (lo + hi);
    double mean = 0.0;
    for (float p : p0) mean += shifted_prob(p, mid);
    mean /= static_cast<double>(p0.size());
    if (mean < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

squish::Topology reference_reverse_step_sequential(const NoiseSchedule& schedule,
                                                   const Denoiser& denoiser, bool guidance,
                                                   const squish::Topology& xk, int k_from,
                                                   int k_to, int condition, util::Rng& rng) {
  const double flip_0j = schedule.cumulative_flip(k_to);
  const double flip_jk = schedule.flip_between(k_to, k_from);
  const double lambda = guidance_shift(denoiser, guidance, xk, k_from, condition);
  squish::Topology x = xk;
  const bool flip_rows = (k_from % 2) == 0;
  for (int rr = 0; rr < x.rows(); ++rr) {
    const int r = flip_rows ? x.rows() - 1 - rr : rr;
    const bool reverse_cols = (rr % 2) == 1;
    for (int cc = 0; cc < x.cols(); ++cc) {
      const int c = reverse_cols ? x.cols() - 1 - cc : cc;
      const std::uint8_t old = x.at(r, c);
      const float p0 = denoiser.predict_x0_pixel(x, r, c, k_from, condition);
      const double p1 = reverse_p1(old, shifted_prob(p0, lambda), flip_0j, flip_jk);
      x.set(r, c, rng.bernoulli(p1) ? 1 : 0);
    }
  }
  return x;
}

squish::Topology reference_map_polish(const NoiseSchedule& schedule, const Denoiser& denoiser,
                                      bool guidance, squish::Topology x, int k, int condition,
                                      const squish::Topology& keep_mask) {
  const int kk = std::clamp(k, 1, schedule.steps());
  const double flip_jk = schedule.cumulative_flip(kk);
  double lambda = 0.0;
  if (guidance) {
    const double target = denoiser.prior_density(condition);
    if (target > 0.0 && target < 1.0) {
      ProbGrid p0;
      denoiser.predict_x0(x, kk, condition, p0);
      std::vector<float> sorted(p0.begin(), p0.end());
      std::sort(sorted.begin(), sorted.end());
      const std::size_t idx = static_cast<std::size_t>(
          std::clamp((1.0 - target) * static_cast<double>(sorted.size() - 1), 0.0,
                     static_cast<double>(sorted.size() - 1)));
      const double q = std::clamp(static_cast<double>(sorted[idx]), kProbEps, 1.0 - kProbEps);
      lambda = std::clamp(-std::log(q / (1.0 - q)), -2.0, 2.0);
    }
  }
  for (int rr = 0; rr < x.rows(); ++rr) {
    const int r = (kk % 2 == 0) ? x.rows() - 1 - rr : rr;
    const bool reverse_cols = (rr % 2) == 1;
    for (int cc = 0; cc < x.cols(); ++cc) {
      const int c = reverse_cols ? x.cols() - 1 - cc : cc;
      if (!keep_mask.empty() && keep_mask.at(r, c)) continue;
      const std::uint8_t old = x.at(r, c);
      const float p0 = denoiser.predict_x0_pixel(x, r, c, kk, condition);
      const double p1 = reverse_p1(old, shifted_prob(p0, lambda), 0.0, flip_jk);
      x.set(r, c, p1 > 0.5 ? 1 : 0);
    }
  }
  return x;
}

}  // namespace cp::diffusion
