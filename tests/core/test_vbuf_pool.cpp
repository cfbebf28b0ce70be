#include "core/vbuf_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

using mv2gnc::core::VbufPool;

TEST(VbufPool, AcquireReleaseCycle) {
  VbufPool pool(4, 1024);
  EXPECT_EQ(pool.capacity(), 4u);
  EXPECT_EQ(pool.buffer_bytes(), 1024u);
  EXPECT_EQ(pool.available(), 4u);
  std::byte* a = pool.try_acquire();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(pool.in_use(), 1u);
  pool.release(a);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(VbufPool, ExhaustionReturnsNull) {
  VbufPool pool(2, 64);
  std::byte* a = pool.try_acquire();
  std::byte* b = pool.try_acquire();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool.try_acquire(), nullptr);
  pool.release(b);
  EXPECT_NE(pool.try_acquire(), nullptr);
}

TEST(VbufPool, BuffersAreDistinctAndWritable) {
  VbufPool pool(8, 256);
  std::set<std::byte*> seen;
  for (int i = 0; i < 8; ++i) {
    std::byte* p = pool.try_acquire();
    ASSERT_NE(p, nullptr);
    p[0] = static_cast<std::byte>(i);
    p[255] = static_cast<std::byte>(i);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate buffer";
  }
}

TEST(VbufPool, DoubleReleaseThrows) {
  VbufPool pool(2, 64);
  std::byte* a = pool.try_acquire();
  pool.release(a);
  EXPECT_THROW(pool.release(a), std::invalid_argument);
}

TEST(VbufPool, ForeignPointerThrows) {
  VbufPool pool(2, 64);
  std::byte x;
  EXPECT_THROW(pool.release(&x), std::invalid_argument);
  EXPECT_THROW(pool.release(nullptr), std::invalid_argument);
  // Interior (misaligned) pointer is also foreign.
  std::byte* a = pool.try_acquire();
  EXPECT_THROW(pool.release(a + 1), std::invalid_argument);
  pool.release(a);
}

TEST(VbufPool, HighWaterMark) {
  VbufPool pool(4, 64);
  std::byte* a = pool.try_acquire();
  std::byte* b = pool.try_acquire();
  pool.release(a);
  std::byte* c = pool.try_acquire();
  EXPECT_EQ(pool.high_water(), 2u);
  pool.release(b);
  pool.release(c);
  EXPECT_EQ(pool.high_water(), 2u);
}

TEST(VbufPool, AuditIsCleanThroughAcquireReleaseChurn) {
  VbufPool pool(4, 64);
  EXPECT_EQ(pool.audit(), "");
  std::byte* a = pool.try_acquire();
  std::byte* b = pool.try_acquire();
  EXPECT_EQ(pool.audit(), "");  // consistent with buffers checked out
  pool.release(a);
  std::byte* c = pool.try_acquire();
  EXPECT_EQ(pool.audit(), "");
  pool.release(b);
  pool.release(c);
  EXPECT_EQ(pool.audit(), "");
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(VbufPool, AuditIsCleanWhenExhausted) {
  VbufPool pool(2, 64);
  std::byte* a = pool.try_acquire();
  std::byte* b = pool.try_acquire();
  EXPECT_EQ(pool.try_acquire(), nullptr);
  EXPECT_EQ(pool.audit(), "");
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.audit(), "");
}

TEST(VbufPool, ZeroSizeRejected) {
  EXPECT_THROW(VbufPool(0, 64), std::invalid_argument);
  EXPECT_THROW(VbufPool(4, 0), std::invalid_argument);
}

TEST(VbufPool, SpareTakeIsBestFit) {
  VbufPool pool(2, 64);
  std::vector<std::byte> a(300), b(100), c(200);
  for (auto* v : {&a, &b, &c}) {
    EXPECT_EQ(pool.park_spare({v->data(), v->size()}).ptr, nullptr);
  }
  EXPECT_EQ(pool.take_spare(150).ptr, c.data());
  EXPECT_EQ(pool.take_spare(150).ptr, a.data());
  EXPECT_EQ(pool.take_spare(150).ptr, nullptr);  // only 100 B left
  EXPECT_EQ(pool.oversized_reuses(), 2u);
  EXPECT_EQ(pool.oversized_allocs(), 1u);
  EXPECT_EQ(pool.take_spare(100).ptr, b.data());
  EXPECT_EQ(pool.idle_spares(), 0u);
}

TEST(VbufPool, SpareListKeepsTheLargestUpToTheBound) {
  VbufPool pool(2, 64);
  constexpr std::size_t kParked = VbufPool::kMaxSpares + 3;
  std::vector<std::vector<std::byte>> bufs;
  for (std::size_t i = 0; i < kParked; ++i) {
    bufs.emplace_back(128 + (i * 7 % kParked) * 16);
  }
  std::vector<std::size_t> freed;
  for (auto& v : bufs) {
    const VbufPool::Spare out = pool.park_spare({v.data(), v.size()});
    if (out.ptr != nullptr) freed.push_back(out.bytes);
    EXPECT_LE(pool.idle_spares(), VbufPool::kMaxSpares);
  }
  EXPECT_EQ(pool.idle_spares(), VbufPool::kMaxSpares);
  // The three smallest sizes are the ones handed back to be freed.
  std::sort(freed.begin(), freed.end());
  EXPECT_EQ(freed, (std::vector<std::size_t>{128, 144, 160}));
  EXPECT_EQ(pool.close_spares().size(), VbufPool::kMaxSpares);
}

TEST(VbufPool, ClosedSpareListKeepsNothing) {
  VbufPool pool(2, 64);
  std::vector<std::byte> a(256), b(512);
  pool.park_spare({a.data(), a.size()});
  const auto all = pool.close_spares();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].ptr, a.data());
  // A release after close is handed straight back to its owner to free.
  EXPECT_EQ(pool.park_spare({b.data(), b.size()}).ptr, b.data());
  EXPECT_EQ(pool.idle_spares(), 0u);
}
