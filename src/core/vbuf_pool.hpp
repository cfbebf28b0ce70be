// Host staging-buffer (vbuf) pool.
//
// MVAPICH2 stages GPU data through a pool of pre-registered, chunk-sized
// host buffers ("the sender will get a chunk sized buffer called vbuf from
// host memory buffer pool", paper §IV-B). The pool is fixed-size; when
// it drains, the pipeline stalls until a buffer is released — that
// back-pressure is part of the protocol and is tested explicitly.
//
// A pipeline chunk larger than a vbuf cannot use the pool; it stages
// through a pinned host buffer of its own. The pool also keeps a short
// list of such buffers once they go idle ("spares"), so oversized chunks
// reuse registered memory instead of allocating and registering per chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mv2gnc::core {

class VbufPool {
 public:
  /// `count` buffers of `bytes_each` (pre-registered at init time, so no
  /// registration cost is charged per use — matching MVAPICH2).
  VbufPool(std::size_t count, std::size_t bytes_each);
  VbufPool(const VbufPool&) = delete;
  VbufPool& operator=(const VbufPool&) = delete;

  /// Take a buffer, or nullptr when the pool is exhausted.
  std::byte* try_acquire();

  /// Return a buffer obtained from try_acquire().
  /// Throws std::invalid_argument for foreign or double-released pointers.
  void release(std::byte* buf);

  std::size_t capacity() const { return capacity_; }
  std::size_t buffer_bytes() const { return bytes_each_; }
  std::size_t in_use() const { return capacity_ - free_.size(); }
  std::size_t available() const { return free_.size(); }
  /// High-water mark of simultaneously acquired buffers.
  std::size_t high_water() const { return high_water_; }

  /// Cross-check the internal accounting: free list and taken bitmap must
  /// partition the arena exactly (no leak, no double-entry, no foreign
  /// pointer). Returns "" when consistent, else a description of the first
  /// violation. Reliability tests assert this after every quiesce.
  std::string audit() const;

  /// Backing arena (for registration as pinned/registered memory).
  std::byte* arena() const { return arena_.get(); }
  std::size_t arena_bytes() const { return capacity_ * bytes_each_; }

  /// An idle oversized pinned buffer. The pool only keeps it; its owner
  /// allocates and frees it.
  struct Spare {
    std::byte* ptr = nullptr;
    std::size_t bytes = 0;
  };
  /// Most idle spares kept at once; releases beyond it free the smallest.
  static constexpr std::size_t kMaxSpares = 8;

  /// The smallest idle spare of at least `bytes`, taken off the list, or an
  /// empty Spare when none fits (counted as an allocation: the caller makes
  /// a fresh buffer).
  Spare take_spare(std::size_t bytes);
  /// Keep `s` for reuse. Returns the spare that no longer fits under
  /// kMaxSpares (or under zero, after close_spares()) for the caller to
  /// free, else an empty Spare.
  Spare park_spare(Spare s);
  /// Hand every idle spare back to be freed. Spares parked afterwards are
  /// returned at once, so nothing outlives the buffers' owner.
  std::vector<Spare> close_spares();
  std::size_t idle_spares() const { return spares_.size(); }
  /// Oversized buffers allocated (spare misses) and spares handed out.
  std::uint64_t oversized_allocs() const { return oversized_allocs_; }
  std::uint64_t oversized_reuses() const { return oversized_reuses_; }

 private:
  std::size_t capacity_;
  std::size_t bytes_each_;
  std::unique_ptr<std::byte[]> arena_;
  std::vector<std::byte*> free_;
  std::vector<bool> taken_;
  std::size_t high_water_ = 0;
  std::vector<Spare> spares_;  // ascending by bytes
  std::size_t max_spares_ = kMaxSpares;
  std::uint64_t oversized_allocs_ = 0;
  std::uint64_t oversized_reuses_ = 0;
};

}  // namespace mv2gnc::core
