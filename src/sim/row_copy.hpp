// Strided 2-D row copy shared by the cudaMemcpy2D mover and the host pack
// walk. The row loop steps a source and a destination offset by their pitch
// (no per-row index multiply) and copies four rows per step, still one row
// after another in row order. Widths 1/2/4/8/16 (an int32 column) get an
// inlined fixed-size memcpy, i.e. one machine-word load and store per row;
// other widths run the same loop with a runtime-size memcpy.
#pragma once

#include <cstddef>
#include <cstring>

namespace mv2gnc::sim {

// Row loop with the width fixed at compile time (W > 0) or taken from `w`.
template <std::size_t W>
void copy_rows_of(std::byte* d, std::ptrdiff_t dp, const std::byte* s,
                  std::ptrdiff_t sp, std::size_t w, std::size_t h) {
  const std::size_t n = W != 0 ? W : w;
  // Byte offsets of the next row, stepped as integers: a pointer is formed
  // only for a row that exists, never one past the last (or before the
  // first, for a negative pitch).
  std::ptrdiff_t di = 0;
  std::ptrdiff_t si = 0;
  for (; h >= 4; h -= 4) {
    std::memcpy(d + di, s + si, n);
    std::memcpy(d + di + dp, s + si + sp, n);
    std::memcpy(d + di + 2 * dp, s + si + 2 * sp, n);
    std::memcpy(d + di + 3 * dp, s + si + 3 * sp, n);
    di += 4 * dp;
    si += 4 * sp;
  }
  for (; h != 0; --h) {
    std::memcpy(d + di, s + si, n);
    di += dp;
    si += sp;
  }
}

/// Copy `h` rows of `w` bytes in order, row r from s + r*sp to d + r*dp
/// (pitches may be negative); dense rows are a single memcpy.
inline void copy_rows(std::byte* d, std::ptrdiff_t dp, const std::byte* s,
                      std::ptrdiff_t sp, std::size_t w, std::size_t h) {
  if (h == 0) return;
  if (dp == sp && dp == static_cast<std::ptrdiff_t>(w)) {
    std::memcpy(d, s, w * h);
    return;
  }
  switch (w) {
    case 1: return copy_rows_of<1>(d, dp, s, sp, w, h);
    case 2: return copy_rows_of<2>(d, dp, s, sp, w, h);
    case 4: return copy_rows_of<4>(d, dp, s, sp, w, h);
    case 8: return copy_rows_of<8>(d, dp, s, sp, w, h);
    case 16: return copy_rows_of<16>(d, dp, s, sp, w, h);
    default: return copy_rows_of<0>(d, dp, s, sp, w, h);
  }
}

}  // namespace mv2gnc::sim
