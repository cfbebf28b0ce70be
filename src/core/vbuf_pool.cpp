#include "core/vbuf_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/asan.hpp"

namespace mv2gnc::core {

VbufPool::VbufPool(std::size_t count, std::size_t bytes_each)
    : capacity_(count), bytes_each_(bytes_each) {
  if (count == 0 || bytes_each == 0) {
    throw std::invalid_argument("VbufPool: zero count or buffer size");
  }
  arena_ = std::make_unique_for_overwrite<std::byte[]>(count * bytes_each);
  free_.reserve(count);
  taken_.assign(count, false);
  // Hand out in address order (LIFO over this vector keeps reuse warm).
  for (std::size_t i = count; i-- > 0;) {
    free_.push_back(arena_.get() + i * bytes_each);
  }
}

std::byte* VbufPool::try_acquire() {
  if (free_.empty()) return nullptr;
  std::byte* buf = free_.back();
  free_.pop_back();
  taken_[static_cast<std::size_t>(buf - arena_.get()) / bytes_each_] = true;
  high_water_ = std::max(high_water_, in_use());
  return buf;
}

void VbufPool::release(std::byte* buf) {
  if (buf == nullptr) throw std::invalid_argument("VbufPool: null release");
  const auto delta = buf - arena_.get();
  if (delta < 0 ||
      static_cast<std::size_t>(delta) >= capacity_ * bytes_each_ ||
      static_cast<std::size_t>(delta) % bytes_each_ != 0) {
    throw std::invalid_argument("VbufPool: foreign pointer released");
  }
  const std::size_t idx = static_cast<std::size_t>(delta) / bytes_each_;
  if (!taken_[idx]) {
    throw std::invalid_argument("VbufPool: double release");
  }
  taken_[idx] = false;
  free_.push_back(buf);
}

VbufPool::Spare VbufPool::take_spare(std::size_t bytes) {
  const auto it = std::lower_bound(
      spares_.begin(), spares_.end(), bytes,
      [](const Spare& s, std::size_t b) { return s.bytes < b; });
  if (it == spares_.end()) {
    ++oversized_allocs_;
    return {};
  }
  const Spare s = *it;
  spares_.erase(it);
  ++oversized_reuses_;
  // Idle, it is poisoned: ASan still sees a use after release.
  ASAN_UNPOISON_MEMORY_REGION(s.ptr, s.bytes);
  return s;
}

VbufPool::Spare VbufPool::park_spare(Spare s) {
  if (max_spares_ == 0) return s;
  ASAN_POISON_MEMORY_REGION(s.ptr, s.bytes);
  const auto it = std::upper_bound(
      spares_.begin(), spares_.end(), s.bytes,
      [](std::size_t b, const Spare& x) { return b < x.bytes; });
  spares_.insert(it, s);
  if (spares_.size() <= max_spares_) return {};
  const Spare out = spares_.front();
  spares_.erase(spares_.begin());
  ASAN_UNPOISON_MEMORY_REGION(out.ptr, out.bytes);
  return out;
}

std::vector<VbufPool::Spare> VbufPool::close_spares() {
  for (const Spare& s : spares_) ASAN_UNPOISON_MEMORY_REGION(s.ptr, s.bytes);
  max_spares_ = 0;
  return std::exchange(spares_, {});
}

std::string VbufPool::audit() const {
  std::size_t taken_count = 0;
  for (bool t : taken_) taken_count += t ? 1 : 0;
  if (taken_count + free_.size() != capacity_) {
    return "free list (" + std::to_string(free_.size()) +
           ") + taken bitmap (" + std::to_string(taken_count) +
           ") do not partition capacity " + std::to_string(capacity_);
  }
  std::vector<bool> on_free_list(capacity_, false);
  for (std::byte* buf : free_) {
    const auto delta = buf - arena_.get();
    if (delta < 0 ||
        static_cast<std::size_t>(delta) >= capacity_ * bytes_each_ ||
        static_cast<std::size_t>(delta) % bytes_each_ != 0) {
      return "foreign pointer on the free list";
    }
    const std::size_t idx = static_cast<std::size_t>(delta) / bytes_each_;
    if (on_free_list[idx]) {
      return "buffer " + std::to_string(idx) + " on the free list twice";
    }
    if (taken_[idx]) {
      return "buffer " + std::to_string(idx) +
             " both free-listed and marked taken";
    }
    on_free_list[idx] = true;
  }
  return {};
}

}  // namespace mv2gnc::core
