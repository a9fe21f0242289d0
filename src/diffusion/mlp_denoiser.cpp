#include "diffusion/mlp_denoiser.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "diffusion/neighborhood.h"
#include "diffusion/precision.h"
#include "nn/gemm.h"

namespace cp::diffusion {

namespace {
constexpr int kTimeFeatures = 4;
static_assert(neighborhood::kCount == TabularDenoiser::kNeighbors);

/// Neighbour features of a pixel from its neighbourhood index: bit i of the
/// index (offset neighborhood::kOffsets[i]) becomes +1 or -1.
inline void index_features(int index, float* out) {
  for (int i = 0; i < TabularDenoiser::kNeighbors; ++i) {
    out[i] = ((index >> i) & 1) ? 1.0f : -1.0f;
  }
}

/// int16 twin of index_features: +/-1 quantizes to exactly +/-127.
inline void qindex_features(int index, std::int16_t* out) {
  for (int i = 0; i < TabularDenoiser::kNeighbors; ++i) {
    out[i] = ((index >> i) & 1) ? std::int16_t{127} : std::int16_t{-127};
  }
}

/// Per-thread inference scratch. One instance per thread regardless of how
/// many denoisers exist: the workspace keys its packed-weight cache by
/// (Param address, version) and the feature tail is keyed by the scalar
/// values it is computed from, so sharing across instances is safe.
struct InferCtx {
  nn::Workspace ws;
  nn::Tensor features;
  // int8 path: int16 feature rows built directly (no float staging) plus the
  // constant per-row scales. Every MLP feature has |v| <= 1 and the
  // neighbours are exactly +/-1, so the per-row absmax is exactly 1.0 and
  // the direct construction below reproduces gemm::quantize_rows on the
  // float features bit-for-bit: rs = 1/127, q = lrintf(v * 127).
  std::vector<std::int16_t> qfeatures;
  std::vector<float> qrs;
  // Timestep + condition feature tail, identical for every pixel of a
  // diffusion step. Cached on the values that fully determine it (the
  // quantized tail is derived in the same refresh).
  std::vector<float> tail;
  std::vector<std::int16_t> qtail;
  bool tail_valid = false;
  double tail_t = 0.0;
  float tail_flip = 0.0f;
  int tail_conditions = -1;
  int tail_cond = -1;
};

InferCtx& infer_ctx() {
  static thread_local InferCtx ctx;
  return ctx;
}

/// The tail is a pure function of (t, flip, conditions, cond); recompute
/// only when one of those changes (i.e. once per diffusion step, not once
/// per pixel). Bit-identical to the inline computation in pixel_features.
const float* cached_tail(InferCtx& ctx, double t, float flip, int conditions, int cond) {
  if (!ctx.tail_valid || ctx.tail_t != t || ctx.tail_flip != flip ||
      ctx.tail_conditions != conditions || ctx.tail_cond != cond) {
    ctx.tail.resize(static_cast<std::size_t>(kTimeFeatures + conditions));
    ctx.tail[0] = static_cast<float>(t);
    ctx.tail[1] = static_cast<float>(std::sin(2.0 * std::numbers::pi * t));
    ctx.tail[2] = static_cast<float>(std::cos(2.0 * std::numbers::pi * t));
    ctx.tail[3] = flip;
    for (int s = 0; s < conditions; ++s) {
      ctx.tail[static_cast<std::size_t>(kTimeFeatures + s)] = (s == cond) ? 1.0f : 0.0f;
    }
    ctx.qtail.resize(ctx.tail.size());
    for (std::size_t j = 0; j < ctx.tail.size(); ++j) {
      ctx.qtail[j] = static_cast<std::int16_t>(std::lrintf(ctx.tail[j] * 127.0f));
    }
    ctx.tail_valid = true;
    ctx.tail_t = t;
    ctx.tail_flip = flip;
    ctx.tail_conditions = conditions;
    ctx.tail_cond = cond;
  }
  return ctx.tail.data();
}

}  // namespace

MlpDenoiser::MlpDenoiser(const NoiseSchedule& schedule, const MlpConfig& config, util::Rng& rng)
    : schedule_(&schedule), config_(config) {
  if (config.conditions < 1 || config.hidden < 1 || config.layers < 1) {
    throw std::invalid_argument("MlpDenoiser: bad config");
  }
  int in = feature_dim();
  for (int i = 0; i < config.layers; ++i) {
    net_.add(std::make_unique<nn::Linear>(in, config.hidden, rng));
    net_.add(std::make_unique<nn::SiLU>());
    in = config.hidden;
  }
  net_.add(std::make_unique<nn::Linear>(in, 1, rng));
}

int MlpDenoiser::feature_dim() const {
  return TabularDenoiser::kNeighbors + kTimeFeatures + config_.conditions;
}

void MlpDenoiser::pixel_features(const squish::Topology& xk, int r, int c, int k, int condition,
                                 float* out) const {
  index_features(neighborhood::index(xk, r, c), out);
  int idx = TabularDenoiser::kNeighbors;
  const double t = static_cast<double>(k) / static_cast<double>(schedule_->steps());
  out[idx++] = static_cast<float>(t);
  out[idx++] = static_cast<float>(std::sin(2.0 * std::numbers::pi * t));
  out[idx++] = static_cast<float>(std::cos(2.0 * std::numbers::pi * t));
  out[idx++] = static_cast<float>(schedule_->cumulative_flip(k));
  for (int s = 0; s < config_.conditions; ++s) out[idx++] = (s == condition) ? 1.0f : 0.0f;
}

nn::Tensor MlpDenoiser::build_features(const squish::Topology& xk, int k, int condition) const {
  const int n = xk.rows() * xk.cols();
  nn::Tensor features({n, feature_dim()});
  int row = 0;
  for (int r = 0; r < xk.rows(); ++r) {
    for (int c = 0; c < xk.cols(); ++c) {
      pixel_features(xk, r, c, k, condition,
                     features.data() + static_cast<std::size_t>(row) * feature_dim());
      ++row;
    }
  }
  return features;
}

bool MlpDenoiser::use_int8() const {
  return (config_.quantized || active_precision() == Precision::kInt8) && net_.quantizable();
}

void MlpDenoiser::predict_x0_indices(const int* indices, int n, int k, int condition,
                                     float* out) const {
  InferCtx& ctx = infer_ctx();
  const int dim = feature_dim();
  const double t = static_cast<double>(k) / static_cast<double>(schedule_->steps());
  const float flip = static_cast<float>(schedule_->cumulative_flip(k));
  const float* tail = cached_tail(ctx, t, flip, config_.conditions, condition);
  const int tail_len = kTimeFeatures + config_.conditions;
  const nn::Tensor* logits;
  if (use_int8()) {
    const int pin = nn::gemm::quant_pad(dim);
    ctx.qfeatures.resize(static_cast<std::size_t>(n) * pin);
    ctx.qrs.assign(static_cast<std::size_t>(n), 1.0f / 127.0f);
    std::int16_t* qrow = ctx.qfeatures.data();
    for (int i = 0; i < n; ++i, qrow += pin) {
      qindex_features(indices[i], qrow);
      std::copy(ctx.qtail.data(), ctx.qtail.data() + tail_len,
                qrow + TabularDenoiser::kNeighbors);
      for (int j = dim; j < pin; ++j) qrow[j] = 0;
    }
    logits = &net_.infer_quantized_pre(n, ctx.qfeatures.data(), ctx.qrs.data(), ctx.ws);
  } else {
    ctx.features.resize(n, dim);
    float* row = ctx.features.data();
    for (int i = 0; i < n; ++i, row += dim) {
      index_features(indices[i], row);
      std::copy(tail, tail + tail_len, row + TabularDenoiser::kNeighbors);
    }
    logits = &net_.infer(ctx.features, ctx.ws);
  }
  for (int i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-(*logits)[i]));
}

void MlpDenoiser::predict_x0_row(const squish::Topology& xk, int r, int k, int condition,
                                 float* out) const {
  if (condition < 0 || condition >= config_.conditions) {
    throw std::out_of_range("MlpDenoiser::predict_x0_row: bad condition");
  }
  if (r < 0 || r >= xk.rows()) {
    throw std::out_of_range("MlpDenoiser::predict_x0_row: bad row");
  }
  std::vector<int> indices(static_cast<std::size_t>(xk.cols()));
  neighborhood::indices_row(xk, r, indices.data());
  predict_x0_indices(indices.data(), xk.cols(), k, condition, out);
}

void MlpDenoiser::predict_x0(const squish::Topology& xk, int k, int condition,
                             ProbGrid& p0) const {
  if (condition < 0 || condition >= config_.conditions) {
    throw std::out_of_range("MlpDenoiser::predict_x0: bad condition");
  }
  std::vector<int> indices(xk.size());
  for (int r = 0; r < xk.rows(); ++r) {
    neighborhood::indices_row(xk, r, indices.data() + static_cast<std::size_t>(r) * xk.cols());
  }
  p0.resize(xk.size());
  predict_x0_indices(indices.data(), static_cast<int>(xk.size()), k, condition, p0.data());
}

namespace {
/// One single-row inference per query.
class MlpStep : public Denoiser::StepPredictor {
 public:
  MlpStep(const MlpDenoiser& d, int k, int condition) : d_(d), k_(k), condition_(condition) {}
  float p0(int index) const override {
    float p;
    d_.predict_x0_indices(&index, 1, k_, condition_, &p);
    return p;
  }

 private:
  const MlpDenoiser& d_;
  int k_;
  int condition_;
};
}  // namespace

std::unique_ptr<Denoiser::StepPredictor> MlpDenoiser::at_step(int k, int condition) const {
  if (condition < 0 || condition >= config_.conditions) {
    throw std::out_of_range("MlpDenoiser::at_step: bad condition");
  }
  return std::make_unique<MlpStep>(*this, k, condition);
}

}  // namespace cp::diffusion
