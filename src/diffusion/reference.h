#pragma once
// Scalar reference kernels for the diffusion fast paths.
//
// The byte-grid functions are the pre-packing scalar implementations,
// retained on top of squish::ByteTopology as the executable specification
// and as the "before" side of the packed-vs-byte rows in
// BENCH_denoiser.json. They must stay semantically identical to the packed
// kernels in transition.cpp and neighborhood.h;
// tests/diffusion/packed_parity_test.cpp enforces it.
//
// The reverse-step functions are the per-pixel scalar loops the sampler's
// index-domain sweep replaced: one denoiser query per pixel through
// predict_x0_pixel, guidance by per-pixel bisection, and a full sort for the
// MAP quantile. DiffusionSampler::reverse_step (sequential) and map_polish
// must match them bit for bit, RNG stream included;
// tests/diffusion/sweep_parity_test.cpp enforces it.

#include "diffusion/denoiser.h"
#include "diffusion/schedule.h"
#include "squish/reference.h"
#include "util/rng.h"

namespace cp::diffusion {

/// Scalar per-cell forward noising on the byte grid: one Bernoulli draw per
/// cell in row-major order (the same stream forward_noise consumes).
squish::ByteTopology reference_forward_noise(const squish::ByteTopology& x0,
                                             const NoiseSchedule& schedule, int k,
                                             util::Rng& rng);

/// Scalar 17-cell neighbourhood index on the byte grid with the shared
/// period-folding mirror.
int reference_neighborhood_index(const squish::ByteTopology& t, int r, int c);

/// Scalar run scan on one byte-grid row (the pre-packing drc::row_runs).
std::vector<std::pair<int, int>> reference_row_runs(const squish::ByteTopology& t, int r,
                                                    std::uint8_t value);

/// The sequential reverse step x_{k_from} -> x_{k_to}: serpentine scan, one
/// predict_x0_pixel and one bernoulli per pixel; mean-matching guidance when
/// `guidance` is set and the denoiser reports its density.
squish::Topology reference_reverse_step_sequential(const NoiseSchedule& schedule,
                                                   const Denoiser& denoiser, bool guidance,
                                                   const squish::Topology& xk, int k_from,
                                                   int k_to, int condition, util::Rng& rng);

/// The deterministic MAP sweep at noise level k, skipping cells set in
/// `keep_mask` (empty = none); quantile guidance when `guidance` is set.
squish::Topology reference_map_polish(const NoiseSchedule& schedule, const Denoiser& denoiser,
                                      bool guidance, squish::Topology x, int k, int condition,
                                      const squish::Topology& keep_mask);

}  // namespace cp::diffusion
