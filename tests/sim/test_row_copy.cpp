// Oracle test for the strided row copy (sim::copy_rows) behind the 2-D
// device mover and the host pack walk: every width class, every remainder
// of the four-row unrolled loop, pack/unpack/dense/general/negative pitches,
// compared byte for byte against a plain per-row memcpy over the whole
// destination buffer, so canaries around it and stride gaps are checked too.
#include "sim/row_copy.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace sim = mv2gnc::sim;

namespace {

constexpr std::size_t kCanary = 64;  // guard bytes on each side of a region
constexpr auto kCanaryByte = std::byte{0xA5};

// A buffer holding `h` rows of `w` bytes at pitch `p` (negative: row 0 is
// the highest-addressed row), with canary bytes around it.
struct Region {
  std::vector<std::byte> buf;
  std::ptrdiff_t row0 = 0;  // offset of row 0 in buf

  Region(std::ptrdiff_t p, std::size_t w, std::size_t h) {
    const std::size_t ap = static_cast<std::size_t>(p < 0 ? -p : p);
    const std::size_t span = h == 0 ? 0 : (h - 1) * ap + w;
    buf.assign(span + 2 * kCanary, kCanaryByte);
    row0 = static_cast<std::ptrdiff_t>(kCanary +
                                       (p < 0 && h > 0 ? (h - 1) * ap : 0));
  }
  std::byte* at_row0() { return buf.data() + row0; }
};

void naive_copy(std::byte* d, std::ptrdiff_t dp, const std::byte* s,
                std::ptrdiff_t sp, std::size_t w, std::size_t h) {
  for (std::size_t r = 0; r < h; ++r) {
    const auto i = static_cast<std::ptrdiff_t>(r);
    std::memcpy(d + i * dp, s + i * sp, w);
  }
}

// Copies through copy_rows and through the oracle into identically
// prepared destinations; returns the number of bytes that differ.
std::size_t mismatches(std::ptrdiff_t dp, std::ptrdiff_t sp, std::size_t w,
                       std::size_t h) {
  Region src(sp, w, h);
  for (std::size_t i = 0; i < src.buf.size(); ++i) {
    src.buf[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
  }
  Region got(dp, w, h);
  Region want(dp, w, h);
  sim::copy_rows(got.at_row0(), dp, src.at_row0(), sp, w, h);
  naive_copy(want.at_row0(), dp, src.at_row0(), sp, w, h);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.buf.size(); ++i) bad += got.buf[i] != want.buf[i];
  return bad;
}

constexpr std::size_t kWidths[] = {1, 2, 3, 4, 7, 8, 12, 16, 24};
constexpr std::size_t kHeights[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 1000};

// Runs every (width, height) pair with the pitches `pitches(w)` returns as
// {dst pitch, src pitch}.
template <typename Pitches>
void check_all(Pitches pitches) {
  for (std::size_t w : kWidths) {
    for (std::size_t h : kHeights) {
      const auto [dp, sp] = pitches(static_cast<std::ptrdiff_t>(w));
      SCOPED_TRACE("w=" + std::to_string(w) + " h=" + std::to_string(h) +
                   " dp=" + std::to_string(dp) + " sp=" + std::to_string(sp));
      EXPECT_EQ(mismatches(dp, sp, w, h), 0u);
    }
  }
}

using Pair = std::pair<std::ptrdiff_t, std::ptrdiff_t>;

}  // namespace

TEST(RowCopy, PackGathersStridedRowsIntoDenseRows) {
  check_all([](std::ptrdiff_t w) { return Pair{w, 2 * w}; });
  check_all([](std::ptrdiff_t w) { return Pair{w, w + 1}; });
  check_all([](std::ptrdiff_t w) { return Pair{w, 16 * w}; });
}

TEST(RowCopy, UnpackScattersDenseRowsAndLeavesStrideGapsUntouched) {
  // The oracle never writes the gaps, so any byte written there mismatches.
  check_all([](std::ptrdiff_t w) { return Pair{2 * w, w}; });
  check_all([](std::ptrdiff_t w) { return Pair{w + 3, w}; });
  check_all([](std::ptrdiff_t w) { return Pair{16 * w, w}; });
}

TEST(RowCopy, DenseRowsCopyAsOneBlock) {
  check_all([](std::ptrdiff_t w) { return Pair{w, w}; });
}

TEST(RowCopy, StridedOnBothSides) {
  check_all([](std::ptrdiff_t w) { return Pair{3 * w, 2 * w + 1}; });
}

TEST(RowCopy, NegativePitchesWalkRowsDownward) {
  check_all([](std::ptrdiff_t w) { return Pair{w, -2 * w}; });
  check_all([](std::ptrdiff_t w) { return Pair{-2 * w, w}; });
  check_all([](std::ptrdiff_t w) { return Pair{-w, -w}; });
  check_all([](std::ptrdiff_t w) { return Pair{-3 * w, 2 * w}; });
}
