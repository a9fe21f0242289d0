#pragma once
// Workload inputs. Each is a pure function of the run's --seed through the
// benchmark's own SplitMix64, so the same seed always gives bit-identical
// inputs (pinned by perfbench_selftest) and the program under test receives
// only the generated inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "io/gds.h"
#include "pattlib/pattern_store.h"
#include "stats.h"
#include "util/strings.h"

namespace perfbench {

// ---- nl_library ----

/// Natural-language request of session `index` in a run with `seed`: a
/// fixed-size library, a tight-size sub-task and an out-painting one.
inline std::string nl_session_request(std::uint64_t seed, int index) {
  SplitMix64 rng(seed * 0x100000001b3ULL + static_cast<std::uint64_t>(index));
  const auto s = [&rng] { return static_cast<long long>(rng.below(1000000) + 1); };
  const long long a = s(), b = s(), c = s();
  return cp::util::format(
      "Generate 40 patterns of 128x128 in Layer-10003 style with seed %lld. "
      "Then generate 14 patterns of 128x128 in Layer-10001 style with physical size "
      "1400x1400 nm and seed %lld, dropping is allowed. "
      "Then generate 1 pattern of 512x512 in Layer-10003 style using out-painting "
      "with seed %lld.",
      a, b, c);
}

// ---- serve_cold ----

/// The content fields of one serving request (count 1, legalized).
struct Content {
  std::string style;
  int rows = 16, cols = 16;
  long long seed = 1;
};

/// Request line with id `id` for content `c`, at 16 nm per cell.
inline std::string request_line(const std::string& id, const Content& c) {
  return cp::util::format(
      "{\"id\":\"%s\",\"style\":\"%s\",\"count\":1,\"rows\":%d,\"cols\":%d,"
      "\"width_nm\":%d,\"height_nm\":%d,\"seed\":%lld,\"legalize\":true}",
      id.c_str(), c.style.c_str(), c.rows, c.cols, c.cols * 16, c.rows * 16, c.seed);
}

/// Distinct request contents: both styles, 85% 16x16 and 15% 16x32, so
/// batching sees four BatchKeys.
class ContentSource {
 public:
  explicit ContentSource(std::uint64_t seed) : rng_(seed ^ 0xc0ffee5eedULL) {}
  Content next() {
    Content c;
    c.style = rng_.below(2) == 0 ? "Layer-10001" : "Layer-10003";
    c.cols = rng_.uniform() < 0.85 ? 16 : 32;
    c.seed = static_cast<long long>(rng_.below(1000000000000ULL)) + 1;
    return c;
  }

 private:
  SplitMix64 rng_;
};

/// Arrival times of the open-loop phase.
inline std::vector<double> open_loop_schedule(std::uint64_t seed, double rate, std::size_t n) {
  return poisson_schedule(seed * 0x9e3779b97f4a7c15ULL + 17, rate, n);
}

// ---- library_ingest ----

/// A synthetic layout: `structures` cells, alternating layers 1 and 2, each
/// a grid of 8x8 windows of 2048 nm. A window holds up to 8x8 rectangles of
/// 96-191 nm on a 256 nm pitch; 40% of windows repeat one of 64 motifs, so
/// the store's dedup index has real work. Every window has a rectangle at
/// its origin, so the ingest's window grid lines up with this one.
inline cp::io::GdsLibrary synthetic_layout(std::uint64_t seed, int structures) {
  SplitMix64 rng(seed ^ 0x6d5f1a7e11b2ULL);
  constexpr int kCells = 8, kPitch = 256, kWindow = kCells * kPitch, kGrid = 8, kMotifs = 64;
  using Cell = std::vector<cp::geometry::Rect>;
  auto make_window = [&rng] {
    Cell w;
    for (int r = 0; r < kCells; ++r) {
      for (int c = 0; c < kCells; ++c) {
        if ((r != 0 || c != 0) && rng.uniform() < 0.3) continue;
        const cp::geometry::Coord x = c * kPitch, y = r * kPitch;
        const auto wdt = static_cast<cp::geometry::Coord>(96 + rng.below(96));
        const auto hgt = static_cast<cp::geometry::Coord>(96 + rng.below(96));
        w.push_back({x, y, x + wdt, y + hgt});
      }
    }
    return w;
  };
  std::vector<Cell> motifs;
  for (int i = 0; i < kMotifs; ++i) motifs.push_back(make_window());
  cp::io::GdsLibrary lib;
  lib.name = "PERFBENCH";
  for (int s = 0; s < structures; ++s) {
    cp::io::GdsStructure st;
    st.name = "S" + std::to_string(s);
    st.layer = 1 + s % 2;
    for (int wr = 0; wr < kGrid; ++wr) {
      for (int wc = 0; wc < kGrid; ++wc) {
        const Cell w = rng.uniform() < 0.4 ? motifs[rng.below(kMotifs)] : make_window();
        for (cp::geometry::Rect r : w) {
          r.x0 += wc * kWindow;
          r.x1 += wc * kWindow;
          r.y0 += wr * kWindow;
          r.y1 += wr * kWindow;
          st.rects.push_back(r);
        }
      }
    }
    lib.structures.push_back(std::move(st));
  }
  return lib;
}

/// The fixed predicate-query set run against the reopened store: full
/// scans (no limit) over the style tag, a layer and a density window, alike
/// in shape so that every query costs about one pass over the index and
/// the median is not read off a boundary between query kinds.
inline std::vector<cp::pattlib::Query> query_set(std::uint64_t seed, int n) {
  SplitMix64 rng(seed ^ 0x9e37f00dULL);
  std::vector<cp::pattlib::Query> out;
  for (int i = 0; i < n; ++i) {
    cp::pattlib::Query q;
    q.style_tag = "ingested";
    q.layer = static_cast<int>(rng.below(3)) - 1;  // -1 (any), 0 -> 2, 1
    if (q.layer == 0) q.layer = 2;
    q.min_density = rng.uniform() * 0.6;
    q.max_density = q.min_density + 0.05 + rng.uniform() * 0.25;
    out.push_back(q);
  }
  return out;
}

}  // namespace perfbench
