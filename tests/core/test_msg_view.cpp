#include "core/msg_view.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

using mv2gnc::core::LayoutClass;
using mv2gnc::core::MsgView;
using mv2gnc::gpu::MemoryRegistry;
using mv2gnc::mpisim::Datatype;
using mv2gnc::mpisim::StridedGroup;

namespace {

Datatype committed(Datatype t) {
  t.commit();
  return t;
}

}  // namespace

TEST(MsgView, HostContiguous) {
  MemoryRegistry reg;
  std::vector<int> buf(16);
  auto t = committed(Datatype::int32());
  auto v = MsgView::make(buf.data(), 16, t, reg);
  EXPECT_FALSE(v.on_device);
  EXPECT_TRUE(v.contiguous);
  EXPECT_EQ(v.packed_bytes, 64u);
  EXPECT_EQ(v.plan->layout(), LayoutClass::kContiguous);
  EXPECT_EQ(v.plan->dense_offset(), 0);
  EXPECT_EQ(v.base, buf.data());
}

TEST(MsgView, DeviceClassification) {
  MemoryRegistry reg;
  std::array<std::byte, 256> fake_dev{};
  reg.register_range(fake_dev.data(), fake_dev.size(), 2);
  auto t = committed(Datatype::byte());
  auto v = MsgView::make(fake_dev.data(), 16, t, reg);
  EXPECT_TRUE(v.on_device);
  EXPECT_EQ(v.device_id, 2);
}

TEST(MsgView, StridedVectorIsOneGroup) {
  MemoryRegistry reg;
  std::vector<float> buf(1024);
  auto t = committed(Datatype::vector(64, 1, 16, Datatype::float32()));
  auto v = MsgView::make(buf.data(), 1, t, reg);
  EXPECT_FALSE(v.contiguous);
  ASSERT_NE(v.plan->single_group(), nullptr);
  EXPECT_EQ(*v.plan->single_group(), (StridedGroup{0, 64, 4, 64, 0}));
  EXPECT_EQ(v.base, buf.data());
}

TEST(MsgView, FirstRunOffsetFromGroups) {
  MemoryRegistry reg;
  std::vector<int> buf(64);
  // Two strided runs: the group carries the first run's offset and the
  // view keeps the user base.
  const std::array<int, 2> lens{1, 1};
  const std::array<int, 2> displs{5, 9};
  auto t = committed(Datatype::indexed(lens, displs, Datatype::int32()));
  auto v = MsgView::make(buf.data(), 1, t, reg);
  ASSERT_NE(v.plan->single_group(), nullptr);
  EXPECT_EQ(*v.plan->single_group(), (StridedGroup{20, 2, 4, 16, 0}));
  EXPECT_EQ(v.base, buf.data());
  // One dense run at byte 20, however spelled: contiguous, and the view's
  // base is the run's first byte.
  const std::array<int, 2> dense_lens{1, 2};
  const std::array<int, 2> dense_displs{5, 6};
  auto d = committed(
      Datatype::indexed(dense_lens, dense_displs, Datatype::int32()));
  auto dv = MsgView::make(buf.data(), 1, d, reg);
  EXPECT_TRUE(dv.contiguous);
  EXPECT_EQ(dv.plan->dense_offset(), 20);
  EXPECT_EQ(dv.base, reinterpret_cast<std::byte*>(buf.data()) + 20);
  EXPECT_EQ(dv.packed_bytes, 12u);
}

TEST(MsgView, RequiresCommittedType) {
  MemoryRegistry reg;
  std::vector<int> buf(4);
  auto t = Datatype::vector(2, 1, 2, Datatype::int32());  // not committed
  EXPECT_THROW(MsgView::make(buf.data(), 1, t, reg), std::logic_error);
}

TEST(MsgView, RejectsInvalidArguments) {
  MemoryRegistry reg;
  std::vector<int> buf(4);
  auto t = committed(Datatype::int32());
  EXPECT_THROW(MsgView::make(buf.data(), -1, t, reg), std::invalid_argument);
  EXPECT_THROW(MsgView::make(buf.data(), 1, Datatype{}, reg),
               std::invalid_argument);
}

TEST(MsgView, ZeroCountHasNoPattern) {
  MemoryRegistry reg;
  std::vector<int> buf(4);
  auto t = committed(Datatype::int32());
  auto v = MsgView::make(buf.data(), 0, t, reg);
  EXPECT_EQ(v.packed_bytes, 0u);
  EXPECT_TRUE(v.contiguous);
  EXPECT_TRUE(v.plan->subpatterns().empty());
  EXPECT_EQ(v.plan->single_group(), nullptr);
}
