#pragma once
// The 17-cell denoiser neighbourhood and its packed index readers.
//
// Every denoiser conditions each pixel on the same neighbourhood (the
// diamond + ring + distance-4 probes of TabularDenoiser) and sees it as one
// 17-bit *index*: bit i is the cell at offset kOffsets[i]. The offsets sit
// on seven rows (dr = -4, -2, -1, 0, +1, +2, +4); RowSources resolves them
// once per grid row, mirrored at the top and bottom border. Two readers
// share it:
//
// - index_at, one cell: 9-cell windows (columns c-4..c+4) of the packed row
//   words, one funnel shift per row, one table lookup for the live row, one
//   for the two rows at distance 1 and a single bit each for the distance-2
//   and distance-4 probes. It sees the grid as it is at the call, so the
//   sampler's in-place reverse sweep reads indices from the grid it is
//   updating.
// - indices_row, a whole row: one funnel-shifted 64-bit plane per offset and
//   a 64x64 bit transpose yield 64 indices at once (the full-grid
//   predictions and training).
//
// Cells within kMargin of the left or right border mirror each column. See
// docs/GRID.md for the cost model.

#include <array>
#include <cstdint>

#include "geometry/bitgrid.h"
#include "squish/topology.h"

namespace cp::diffusion::neighborhood {

/// Neighbourhood size and offsets (dr, dc): center, 4-ring, diagonals, the
/// distance-2 cross, then the distance-4 probes. Order defines the bit layout
/// of the tabular table index and of the MLP feature vector; both denoisers
/// alias this table.
inline constexpr int kCount = 17;
inline constexpr int kOffsets[kCount][2] = {
    {0, 0},  {-1, 0}, {1, 0},  {0, -1}, {0, 1},  {-1, -1}, {-1, 1},  {1, -1}, {1, 1},
    {-2, 0}, {2, 0},  {0, -2}, {0, 2},  {-4, 0}, {4, 0},   {0, -4},  {0, 4},
};

/// Largest |offset| above: cells at least this far from every border need no
/// mirror reflection.
inline constexpr int kMargin = 4;

/// Reflect-101 border padding. A single reflection (-i / 2n-2-i) is only
/// valid while |i - clamp| < n; the cascade's coarse stage runs on grids as
/// small as rows/factor, where the distance-4 offsets overshoot a whole
/// period, so fold into the 2n-2 period first and any offset maps inside
/// [0, n). Wherever a single reflection lands in range, both agree.
inline int fold_mirror(int i, int n) {
  if (i >= 0 && i < n) return i;
  if (n == 1) return 0;
  const int period = 2 * n - 2;
  i = ((i % period) + period) % period;
  return i < n ? i : period - i;
}

/// The rows the offsets sit on, and each offset's row slot.
inline constexpr int kRowCount = 7;
inline constexpr int kRowOffsets[kRowCount] = {-4, -2, -1, 0, 1, 2, 4};
inline constexpr int row_slot(int dr) {
  for (int g = 0; g < kRowCount; ++g) {
    if (kRowOffsets[g] == dr) return g;
  }
  return -1;
}

/// Row words of the (mirrored) rows r + kRowOffsets[g] of one grid row.
struct RowSources {
  const std::uint64_t* row[kRowCount];
  int cols;

  RowSources(const squish::Topology& t, int r) : cols(t.cols()) {
    for (int g = 0; g < kRowCount; ++g) {
      row[g] = t.row_words(fold_mirror(r + kRowOffsets[g], t.rows()));
    }
  }
};

namespace detail {

inline constexpr int kWindow = 2 * kMargin + 1;

/// Index bit of offset (dr, dc), or -1.
inline constexpr int bit_of(int dr, int dc) {
  for (int i = 0; i < kCount; ++i) {
    if (kOffsets[i][0] == dr && kOffsets[i][1] == dc) return i;
  }
  return -1;
}

/// live[w]: index bits of the dr = 0 offsets for window w of the live row
/// (window bit j = column c + j - kMargin). ring[w]: index bits of the
/// dr = -1 (w bits 0..2) and dr = +1 (w bits 3..5) offsets at dc = -1..1.
struct Tables {
  int live[1 << kWindow];
  int ring[1 << 6];
  constexpr Tables() : live(), ring() {
    for (int w = 0; w < (1 << kWindow); ++w) {
      for (int j = 0; j < kWindow; ++j) {
        const int i = bit_of(0, j - kMargin);
        if (i >= 0 && ((w >> j) & 1)) live[w] |= 1 << i;
      }
    }
    for (int w = 0; w < (1 << 6); ++w) {
      for (int j = 0; j < 3; ++j) {
        if ((w >> j) & 1) ring[w] |= 1 << bit_of(-1, j - 1);
        if ((w >> (j + 3)) & 1) ring[w] |= 1 << bit_of(1, j - 1);
      }
    }
  }
};
inline constexpr Tables kTables;

/// Row slot of each offset, and (row slot, index bit) of the four probes at
/// distance 2 and 4, which read column c only.
inline constexpr std::array<int, kCount> kSlot = [] {
  std::array<int, kCount> slot{};
  for (int i = 0; i < kCount; ++i) slot[i] = row_slot(kOffsets[i][0]);
  return slot;
}();
inline constexpr int kProbes[4][2] = {{row_slot(-4), bit_of(-4, 0)},
                                      {row_slot(-2), bit_of(-2, 0)},
                                      {row_slot(2), bit_of(2, 0)},
                                      {row_slot(4), bit_of(4, 0)}};

/// The live-row table, the ring table and the probes together cover every
/// offset.
inline constexpr bool covers_all_offsets() {
  int bits = kTables.live[(1 << kWindow) - 1] | kTables.ring[(1 << 6) - 1];
  for (const auto& probe : kProbes) bits |= 1 << probe[1];
  return bits == (1 << kCount) - 1;
}
static_assert(covers_all_offsets());

}  // namespace detail

/// Neighbourhood index of column c of the row `src` was built for, with
/// mirror padding.
inline int index_at(const RowSources& src, int c) {
  const int cols = src.cols;
  if (c < kMargin || c >= cols - kMargin) {
    int idx = 0;
    for (int i = 0; i < kCount; ++i) {
      const int cc = fold_mirror(c + kOffsets[i][1], cols);
      const std::uint64_t* row = src.row[detail::kSlot[i]];
      idx |= static_cast<int>((row[cc >> 6] >> (cc & 63)) & 1) << i;
    }
    return idx;
  }
  // Windows of columns c-4..c+4: bits 0..8 of w[g].
  const int lo = c - kMargin;
  const int word = lo >> 6;
  const int shift = lo & 63;
  std::uint64_t w[kRowCount];
  if (shift <= 64 - detail::kWindow) {
    for (int g = 0; g < kRowCount; ++g) w[g] = src.row[g][word] >> shift;
  } else {
    for (int g = 0; g < kRowCount; ++g) {
      w[g] = (src.row[g][word] >> shift) | (src.row[g][word + 1] << (64 - shift));
    }
  }
  constexpr int kLive = row_slot(0), kUp = row_slot(-1), kDown = row_slot(1);
  const std::uint64_t ring = ((w[kUp] >> (kMargin - 1)) & 7) |
                             (((w[kDown] >> (kMargin - 1)) & 7) << 3);
  int idx = detail::kTables.live[w[kLive] & ((1u << detail::kWindow) - 1)] |
            detail::kTables.ring[ring];
  for (const auto& [slot, bit] : detail::kProbes) {
    idx |= static_cast<int>((w[slot] >> kMargin) & 1) << bit;
  }
  return idx;
}

/// Neighbourhood index of cell (r, c) in `t` with mirror padding.
inline int index(const squish::Topology& t, int r, int c) {
  return index_at(RowSources(t, r), c);
}

/// Fill `indices[0..cols)` with the neighbourhood indices of row `r`.
/// Interior columns go a word at a time: one funnel-shifted 64-bit plane
/// per offset (bit j = the offset's cell for column w*64 + j), and a 64x64
/// bit transpose turns the 17 planes into the 64 indices. Equal to
/// index_at per cell.
inline void indices_row(const squish::Topology& t, int r, int* indices) {
  const RowSources src(t, r);
  const int cols = t.cols();
  const int words = t.words_per_row();
  for (int wi = 0; wi < words; ++wi) {
    const int base = wi * 64;
    const int c_lo = base > kMargin ? base : kMargin;
    const int c_hi = base + 64 < cols - kMargin ? base + 64 : cols - kMargin;
    if (c_lo >= c_hi) continue;
    std::uint64_t idx[64] = {};
    for (int i = 0; i < kCount; ++i) {
      const std::uint64_t* row = src.row[detail::kSlot[i]];
      const int dc = kOffsets[i][1];
      const std::uint64_t w = row[wi];
      if (dc > 0) {
        idx[i] = (w >> dc) | (wi + 1 < words ? row[wi + 1] << (64 - dc) : 0);
      } else if (dc < 0) {
        idx[i] = (w << -dc) | (wi > 0 ? row[wi - 1] >> (64 + dc) : 0);
      } else {
        idx[i] = w;
      }
    }
    geometry::bitgrid_transpose64(idx);
    for (int c = c_lo; c < c_hi; ++c) indices[c] = static_cast<int>(idx[c - base]);
  }
  const int edge = cols < kMargin ? cols : kMargin;
  for (int c = 0; c < edge; ++c) indices[c] = index_at(src, c);
  for (int c = cols - kMargin > edge ? cols - kMargin : edge; c < cols; ++c) {
    indices[c] = index_at(src, c);
  }
}

}  // namespace cp::diffusion::neighborhood
