#include "diffusion/denoiser.h"

#include <stdexcept>

#include "diffusion/neighborhood.h"

namespace cp::diffusion {

float Denoiser::predict_x0_pixel(const squish::Topology& xk, int r, int c, int k,
                                 int condition) const {
  return at_step(k, condition)->p0(neighborhood::index(xk, r, c));
}

namespace {
class ConstantPredictor : public Denoiser::StepPredictor {
 public:
  explicit ConstantPredictor(float p) : p_(p) {}
  float p0(int) const override { return p_; }

 private:
  float p_;
};
}  // namespace

void UniformDenoiser::predict_x0(const squish::Topology& xk, int k, int condition,
                                 ProbGrid& p0) const {
  (void)k;
  if (condition < 0 || condition >= conditions()) {
    throw std::out_of_range("UniformDenoiser: bad condition");
  }
  p0.assign(xk.size(), density_[static_cast<std::size_t>(condition)]);
}

std::unique_ptr<Denoiser::StepPredictor> UniformDenoiser::at_step(int k, int condition) const {
  (void)k;
  if (condition < 0 || condition >= conditions()) {
    throw std::out_of_range("UniformDenoiser: bad condition");
  }
  return std::make_unique<ConstantPredictor>(density_[static_cast<std::size_t>(condition)]);
}

}  // namespace cp::diffusion
