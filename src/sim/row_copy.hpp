// Strided 2-D row copy shared by the cudaMemcpy2D mover and the host pack
// walk. Widths 1/2/4/8/16 (an int32 column) get an inlined fixed memcpy.
#pragma once

#include <cstddef>
#include <cstring>

namespace mv2gnc::sim {

// Row loop with the width fixed at compile time (W > 0) or taken from `w`.
template <std::size_t W>
void copy_rows_of(std::byte* d, std::ptrdiff_t dp, const std::byte* s,
                  std::ptrdiff_t sp, std::size_t w, std::size_t h) {
  for (std::size_t r = 0; r < h; ++r) {
    const auto i = static_cast<std::ptrdiff_t>(r);
    std::memcpy(d + i * dp, s + i * sp, W != 0 ? W : w);
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
