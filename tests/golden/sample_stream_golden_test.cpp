// Golden pinning of the sampled topology streams: FNV-1a hashes of what the
// samplers draw for fixed seeds, plus the generator state left behind. Any
// change to the reverse sweep that alters a sampled bit, or the number or
// order of RNG draws, shows up here. A pure speed-up of the sampler must
// leave this file unchanged; a deliberate stream change regenerates it (see
// golden_compare.h) and says so.

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dataset/builder.h"
#include "diffusion/cascade.h"
#include "diffusion/tabular_denoiser.h"
#include "diffusion/trainer.h"
#include "extension/planner.h"
#include "golden_compare.h"

namespace cp {
namespace {

constexpr int kStyles = 2;
constexpr int kWindow = 128;
constexpr int kFactor = 4;

/// FNV-1a over the dimensions and packed words.
std::uint64_t topology_hash(const squish::Topology& t) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<std::uint64_t>(t.rows()));
  mix(static_cast<std::uint64_t>(t.cols()));
  for (int r = 0; r < t.rows(); ++r) {
    for (int w = 0; w < t.words_per_row(); ++w) mix(t.word(r, w));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// One report line: topology hash, fill count, and the next draw of the
/// generator (pins how many draws the call consumed).
void dump(std::ostream& os, const std::string& label, const squish::Topology& t,
          util::Rng& rng) {
  os << label << " " << t.rows() << "x" << t.cols() << " hash=" << hex(topology_hash(t))
     << " ones=" << t.popcount() << " rng_next=" << hex(rng.next_u64()) << "\n";
}

/// Two-style tabular model trained on small synthetic datasets: big enough
/// for non-degenerate samples at 128², small enough to fit in about a second.
struct Model {
  diffusion::NoiseSchedule schedule{diffusion::ScheduleConfig{}};
  std::unique_ptr<diffusion::TabularDenoiser> fine;
  std::unique_ptr<diffusion::TabularDenoiser> coarse;

  Model() {
    std::vector<std::vector<squish::Topology>> per_class, per_class_coarse;
    for (int s = 0; s < kStyles; ++s) {
      dataset::DatasetConfig dc;
      dc.style = s;
      dc.topo_size = kWindow;
      dc.count = 96;
      dc.seed = 1 + static_cast<std::uint64_t>(s) * 101;
      const dataset::Dataset ds = dataset::build_dataset(dc);
      per_class.push_back(ds.topologies);
      std::vector<squish::Topology> coarse_set;
      for (const auto& t : ds.topologies) {
        coarse_set.push_back(squish::downsample_majority(t, kFactor));
      }
      per_class_coarse.push_back(std::move(coarse_set));
    }
    diffusion::TabularConfig tc;
    tc.conditions = kStyles;
    fine = std::make_unique<diffusion::TabularDenoiser>(
        diffusion::fit_tabular(schedule, tc, per_class, 8));
    coarse = std::make_unique<diffusion::TabularDenoiser>(
        diffusion::fit_tabular(schedule, tc, per_class_coarse, 12));
  }
};

const Model& model() {
  static const Model m;
  return m;
}

diffusion::CascadeSampler cascade() {
  diffusion::CascadeConfig cc;
  cc.factor = kFactor;
  return diffusion::CascadeSampler(model().schedule, *model().coarse, *model().fine, cc);
}

TEST(SampleStreamGoldenTest, SamplerStreams) {
  const diffusion::CascadeSampler sampler = cascade();
  std::stringstream ss;

  ss << "== CascadeSampler::sample ==\n";
  for (const auto& [rows, cols] : {std::pair{16, 16}, std::pair{16, 32}, std::pair{128, 128}}) {
    for (int style = 0; style < kStyles; ++style) {
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        util::Rng rng(seed);
        diffusion::SampleConfig sc;
        sc.rows = rows;
        sc.cols = cols;
        sc.condition = style;
        dump(ss, "style=" + std::to_string(style) + " seed=" + std::to_string(seed),
             sampler.sample(sc, rng), rng);
      }
    }
  }

  ss << "== CascadeSampler::modify (keep left half + top band) ==\n";
  for (int style = 0; style < kStyles; ++style) {
    util::Rng known_rng(40 + static_cast<std::uint64_t>(style));
    diffusion::SampleConfig sc;
    sc.rows = kWindow;
    sc.cols = kWindow;
    sc.condition = style;
    const squish::Topology known = sampler.sample(sc, known_rng);
    squish::Topology keep(kWindow, kWindow, 0);
    for (int r = 0; r < kWindow; ++r) {
      for (int c = 0; c < kWindow; ++c) keep.set(r, c, (c < kWindow / 2 || r < 20) ? 1 : 0);
    }
    for (std::uint64_t seed : {5u, 6u}) {
      util::Rng rng(seed);
      diffusion::ModifyConfig mc;
      mc.condition = style;
      mc.sample_steps = 8;
      dump(ss, "style=" + std::to_string(style) + " seed=" + std::to_string(seed),
           sampler.modify(known, keep, mc, rng), rng);
    }
  }

  ss << "== DiffusionSampler::sample (single resolution, stochastic polish) ==\n";
  const diffusion::DiffusionSampler& fine = sampler.fine_sampler();
  for (int style = 0; style < kStyles; ++style) {
    for (std::uint64_t seed : {7u, 8u}) {
      util::Rng rng(seed);
      diffusion::SampleConfig sc;
      sc.rows = 32;
      sc.cols = 40;
      sc.condition = style;
      sc.sample_steps = 10;
      dump(ss, "style=" + std::to_string(style) + " seed=" + std::to_string(seed),
           fine.sample(sc, rng), rng);
    }
  }

  ss << "== extension::extend (out-painting 256x192) ==\n";
  for (int style = 0; style < kStyles; ++style) {
    util::Rng rng(9);
    extension::ExtensionConfig ec;
    ec.window = kWindow;
    ec.stride = 64;
    ec.condition = style;
    const extension::ExtensionResult res = extension::extend(
        sampler, extension::Method::kOutPainting, squish::Topology(), 256, 192, ec, rng);
    dump(ss, "style=" + std::to_string(style) + " calls=" + std::to_string(res.model_calls),
         res.topology, rng);
  }

  golden_compare("sample_streams.txt", ss.str());
}

}  // namespace
}  // namespace cp
