#pragma once
// Denoiser interface: the learned component of the diffusion model.
//
// A Denoiser estimates p_theta(x_0 | x_k, c) — for every pixel, the
// probability that the clean topology has a 1 there, given the noisy
// topology x_k, the timestep k and the condition (style class) c. The
// sampler, trainer, modification and extension code are all written against
// this interface (substitution S2 in DESIGN.md): the paper's U-Net is one
// possible implementation; this repo ships a counting-based tabular
// estimator (fast, used by the benches) and an MLP trained with Adam (the
// neural path), plus a prior-only control.

#include <memory>
#include <vector>

#include "squish/topology.h"

namespace cp::diffusion {

/// Per-pixel probabilities, row-major, same dims as the topology.
using ProbGrid = std::vector<float>;

class Denoiser {
 public:
  virtual ~Denoiser() = default;

  /// Fill `p0` (resized by the callee) with P(x0=1 | xk, k, condition).
  virtual void predict_x0(const squish::Topology& xk, int k, int condition,
                          ProbGrid& p0) const = 0;

  /// The denoiser at one (k, condition) as a function of a pixel's 17-bit
  /// neighbourhood index (diffusion/neighborhood.h): every shipped denoiser
  /// sees x_k only through that index. Per-step constants are bound once by
  /// at_step(); p0() is what the sequential reverse sweep queries per pixel
  /// as it updates the grid in place.
  class StepPredictor {
   public:
    virtual ~StepPredictor() = default;
    /// P(x0=1) for a pixel whose neighbourhood index is `index`.
    virtual float p0(int index) const = 0;
  };

  /// Bind (k, condition); throws std::out_of_range on a bad condition. The
  /// predictor must be queried on the calling thread (it may read the
  /// thread's PrecisionScope) and must not outlive the denoiser.
  virtual std::unique_ptr<StepPredictor> at_step(int k, int condition) const = 0;

  /// P(x0=1) for a single pixel: at_step(k, condition)->p0 of its index.
  /// Equal to the pixel's entry of predict_x0.
  float predict_x0_pixel(const squish::Topology& xk, int r, int c, int k,
                         int condition) const;

  /// Number of conditions (style classes) the denoiser was trained with.
  virtual int conditions() const = 0;

  /// Marginal fill density of the training data for a condition, or a
  /// negative value when unknown. Drives the sampler's mean-matching
  /// guidance (see DiffusionSampler).
  virtual double prior_density(int condition) const {
    (void)condition;
    return -1.0;
  }

  /// True if concurrent predict_x0/at_step calls on one instance
  /// are race-free. The tabular and uniform denoisers are pure lookups; the
  /// MLP denoiser routes inference through the stateless nn::Layer::infer
  /// path with per-thread workspaces, so all shipped denoisers return true.
  /// diffusion::BatchSampler consults this to decide whether it may fan
  /// sampling out across a thread pool.
  virtual bool thread_safe_inference() const { return false; }

  virtual const char* name() const = 0;
};

/// Prior-only control: predicts the class marginal density everywhere,
/// ignoring x_k. Used in ablations as the "no learning" floor.
class UniformDenoiser : public Denoiser {
 public:
  explicit UniformDenoiser(std::vector<float> class_density)
      : density_(std::move(class_density)) {}
  void predict_x0(const squish::Topology& xk, int k, int condition,
                  ProbGrid& p0) const override;
  std::unique_ptr<StepPredictor> at_step(int k, int condition) const override;
  int conditions() const override { return static_cast<int>(density_.size()); }
  bool thread_safe_inference() const override { return true; }
  const char* name() const override { return "UniformDenoiser"; }

 private:
  std::vector<float> density_;
};

}  // namespace cp::diffusion
