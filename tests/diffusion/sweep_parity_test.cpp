// Parity of the sampler's index-domain reverse sweep against the per-pixel
// scalar loops it replaced (diffusion/reference.h). For every grid shape,
// denoiser and mode the sweep must produce the identical topology AND leave
// the generator in the identical state: the sample-stream golden and every
// batch hash depend on it. Shapes cover grids narrower and shorter than the
// 9-cell neighbourhood span, where offsets mirror back onto the live row and
// column, and widths on both sides of the 64-bit word boundary.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "diffusion/mlp_denoiser.h"
#include "diffusion/precision.h"
#include "diffusion/reference.h"
#include "diffusion/sampler.h"
#include "diffusion/tabular_denoiser.h"
#include "diffusion/trainer.h"
#include "diffusion/transition.h"

namespace cp::diffusion {
namespace {

constexpr int kRows[] = {1, 2, 4, 5, 8, 9, 32};
constexpr int kCols[] = {1, 8, 9, 63, 64, 65, 129};

squish::Topology random_topology(util::Rng& rng, int rows, int cols, double density) {
  squish::Topology t(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) t.set(r, c, rng.bernoulli(density));
  }
  return t;
}

/// Noisy stripes: structured enough that the grid has repeated and distinct
/// neighbourhoods, so the MAP memo both hits and misses.
squish::Topology noisy_stripes(util::Rng& rng, int rows, int cols, int period, double noise) {
  squish::Topology t(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const bool on = (c / period) % 2 == 1;
      t.set(r, c, on != rng.bernoulli(noise));
    }
  }
  return t;
}

void expect_same_rng(const util::Rng& a, const util::Rng& b, const std::string& where) {
  const util::Rng::State sa = a.state(), sb = b.state();
  for (int i = 0; i < 4; ++i) ASSERT_EQ(sa.s[i], sb.s[i]) << "RNG state diverged: " << where;
}

struct Case {
  std::string name;
  const Denoiser* denoiser;
  int condition;
  Precision precision;
};

class SweepParityTest : public ::testing::Test {
 protected:
  SweepParityTest() : schedule_(ScheduleConfig{}), uniform_({0.35f, 0.6f}) {
    util::Rng rng(301);
    std::vector<std::vector<squish::Topology>> data(2);
    for (int i = 0; i < 4; ++i) {
      data[0].push_back(noisy_stripes(rng, 24, 24, 2 + i, 0.02));
      data[1].push_back(noisy_stripes(rng, 24, 24, 3 + i, 0.05));
    }
    TabularConfig tc;
    tc.conditions = 2;
    tabular_ = std::make_unique<TabularDenoiser>(fit_tabular(schedule_, tc, data, 302));
    util::Rng init(303);
    mlp_ = std::make_unique<MlpDenoiser>(schedule_, MlpConfig{2, 16, 2}, init);
  }

  std::vector<Case> cases() const {
    return {{"tabular", tabular_.get(), 1, Precision::kFp32},
            {"uniform", &uniform_, 0, Precision::kFp32},
            {"mlp-fp32", mlp_.get(), 1, Precision::kFp32},
            {"mlp-int8", mlp_.get(), 0, Precision::kInt8}};
  }

  NoiseSchedule schedule_;
  UniformDenoiser uniform_;
  std::unique_ptr<TabularDenoiser> tabular_;
  std::unique_ptr<MlpDenoiser> mlp_;
};

TEST_F(SweepParityTest, SequentialReverseStepMatchesReference) {
  util::Rng shape_rng(310);
  for (const Case& tc : cases()) {
    const PrecisionScope scope(tc.precision);
    DiffusionSampler sampler(schedule_, *tc.denoiser);
    for (int rows : kRows) {
      for (int cols : kCols) {
        const squish::Topology xk = random_topology(shape_rng, rows, cols, 0.45);
        // Both start corners of the serpentine: k_from even sweeps bottom-up.
        for (const auto& [k_from, k_to] : {std::pair{30, 25}, std::pair{61, 40}}) {
          const std::string where = tc.name + " " + std::to_string(rows) + "x" +
                                    std::to_string(cols) + " k=" + std::to_string(k_from);
          util::Rng ra(rows * 1000 + cols), rb(rows * 1000 + cols);
          const squish::Topology fast = sampler.reverse_step(xk, k_from, k_to, tc.condition, ra);
          const squish::Topology ref = reference_reverse_step_sequential(
              schedule_, *tc.denoiser, sampler.guidance(), xk, k_from, k_to, tc.condition, rb);
          ASSERT_EQ(fast, ref) << where;
          expect_same_rng(ra, rb, where);
        }
      }
    }
  }
}

TEST_F(SweepParityTest, MapPolishMatchesReferenceWithAndWithoutKeepMask) {
  util::Rng shape_rng(320);
  for (const Case& tc : cases()) {
    const PrecisionScope scope(tc.precision);
    DiffusionSampler sampler(schedule_, *tc.denoiser);
    for (int rows : kRows) {
      for (int cols : kCols) {
        const squish::Topology x = noisy_stripes(shape_rng, rows, cols, 3, 0.1);
        const squish::Topology keep = random_topology(shape_rng, rows, cols, 0.3);
        for (int k : {15, 16}) {
          for (bool use_keep : {true, false}) {
            const squish::Topology m = use_keep ? keep : squish::Topology();
            const std::string where = tc.name + " " + std::to_string(rows) + "x" +
                                      std::to_string(cols) + " k=" + std::to_string(k) +
                                      (use_keep ? " keep" : "");
            ASSERT_EQ(sampler.map_polish(x, k, tc.condition, m),
                      reference_map_polish(schedule_, *tc.denoiser, sampler.guidance(), x, k,
                                           tc.condition, m))
                << where;
          }
        }
      }
    }
  }
}

TEST_F(SweepParityTest, MaskedChainMatchesReference) {
  // The stochastic sweep under Equation (12): each reverse step is followed
  // by restoring the kept region from the forward-noised known pattern, as
  // modify_from does. Chained steps also exercise repeated sweeps on one
  // thread (the MAP memo reset between sweeps is covered above).
  const Case tc = cases()[0];
  DiffusionSampler sampler(schedule_, *tc.denoiser);
  util::Rng shape_rng(330);
  for (int rows : {5, 32}) {
    for (int cols : {9, 65}) {
      const squish::Topology known = noisy_stripes(shape_rng, rows, cols, 4, 0.0);
      const squish::Topology keep = random_topology(shape_rng, rows, cols, 0.5);
      util::Rng ra(340), rb(340);
      squish::Topology xa = random_topology(shape_rng, rows, cols, 0.5), xb = xa;
      const std::vector<int> steps = sampler.make_timesteps(8);
      for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
        xa = sampler.reverse_step(xa, steps[i], steps[i + 1], tc.condition, ra);
        xb = reference_reverse_step_sequential(schedule_, *tc.denoiser, true, xb, steps[i],
                                               steps[i + 1], tc.condition, rb);
        const squish::Topology ka = forward_noise(known, schedule_, steps[i + 1], ra);
        const squish::Topology kb = forward_noise(known, schedule_, steps[i + 1], rb);
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c < cols; ++c) {
            if (keep.at(r, c)) {
              xa.set(r, c, ka.at(r, c));
              xb.set(r, c, kb.at(r, c));
            }
          }
        }
        ASSERT_EQ(xa, xb) << rows << "x" << cols << " step " << i;
      }
      expect_same_rng(ra, rb, std::to_string(rows) + "x" + std::to_string(cols));
    }
  }
}

}  // namespace
}  // namespace cp::diffusion
