// Pack-plan engine: canonicalized, cached transfer plans for derived
// datatypes (the hot-path companion of docs/DATATYPE.md).
//
// Every send of a non-trivial datatype used to re-derive the same facts —
// layout class, segment counts, chunk boundaries — from the committed type
// tree. A PackPlan computes them once per canonical (type, count) pair and
// a process-wide LRU cache (PlanCache) shares the result across sends,
// ranks and retransmissions:
//
//   * classification: the plan is the one place a layout is classified,
//     by one rule over the message's canonical strided groups: one dense
//     run is contiguous (at any offset, however the type spells it), a few
//     groups are batched 2-D copies, anything else is irregular. Two
//     structurally identical trees built through different constructor
//     sequences dedupe onto one plan (signature-level second cache tier);
//   * chunk cursors: per pipeline-chunk resumable PackCursors plus exact
//     per-chunk segment counts, so chunked host pack/unpack is O(segments
//     in range) with zero per-chunk searching, and a retransmitted chunk
//     reuses the stored plan verbatim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "mpi/datatype.hpp"

namespace mv2gnc::core {

/// One maximal uniform group of the flattened count-element layout, the
/// message-wide form of the datatype's canonical groups (see
/// mpisim::StridedGroup): `rows` blocks of `block` bytes every `stride`
/// bytes from `first_offset`, covering packed-stream range
/// [packed_offset, packed_offset + rows*block).
using SubPattern = mpisim::StridedGroup;

/// Shape class of the flattened layout, one per device kernel.
enum class LayoutClass {
  kContiguous,    // one dense run; plain copies, no pack step
  kSubPatterned,  // a few uniform sub-patterns (batched 2-D copies)
  kIrregular,     // too fragmented; generalized gather kernel
};

/// Counters of the process-wide plan cache.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          // plans built from scratch
  std::uint64_t signature_dedups = 0;  // distinct tree, same canonical form
  std::uint64_t evictions = 0;

  std::uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const std::uint64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// Immutable transfer plan for one canonical (type, count) message.
/// Cheap to share (held by shared_ptr in every MsgView that uses it).
class PackPlan {
 public:
  /// Cursor table for one pipeline chunk size: chunk i starts at
  /// cursors[i] and spans exactly segments[i] contiguous runs.
  struct ChunkCursors {
    std::size_t chunk = 0;
    std::size_t count = 0;
    std::vector<mpisim::PackCursor> cursors;
    std::vector<std::size_t> segments;
  };

  /// Build a plan directly (bypassing the cache); used by PlanCache and by
  /// benchmarks measuring the uncached planning cost.
  static std::shared_ptr<const PackPlan> build(const mpisim::Datatype& dtype,
                                               int count);

  /// FNV-1a over the canonical group form (+ size and extent): trees with
  /// the same run list hash identically regardless of constructor nesting.
  /// O(groups); PlanCache computes it before deciding to build.
  static std::uint64_t signature_of(const mpisim::Datatype& dtype);
  std::uint64_t signature() const { return signature_; }
  int count() const { return count_; }
  std::size_t elem_size() const { return elem_size_; }
  std::size_t packed_bytes() const { return packed_bytes_; }
  std::int64_t extent() const { return extent_; }
  bool contiguous() const { return layout_ == LayoutClass::kContiguous; }
  /// Byte offset of a contiguous message's one dense run from the buffer
  /// base (0 for any other layout).
  std::int64_t dense_offset() const { return dense_offset_; }
  LayoutClass layout() const { return layout_; }
  /// Total contiguous runs across the whole message (memcpy-call count of a
  /// full host pack).
  std::size_t total_segments() const { return total_segments_; }
  /// Uniform sub-patterns covering the full packed stream, in packed-stream
  /// order. Empty for kContiguous and kIrregular.
  const std::vector<SubPattern>& subpatterns() const { return subpatterns_; }
  /// The sub-pattern of a one-group kSubPatterned layout (one cudaMemcpy2D
  /// covers the whole message), else nullptr.
  const SubPattern* single_group() const {
    return subpatterns_.size() == 1 ? &subpatterns_.front() : nullptr;
  }
  const mpisim::Datatype& dtype() const { return dtype_; }

  /// Exact number of contiguous runs touched by packed-stream range
  /// [offset, offset+bytes) — the memcpy count of a chunked host pack
  /// (seam-merged element boundaries count per element, matching the pack
  /// loop's actual copy calls). O(log nsegs).
  std::size_t segments_in_range(std::size_t offset, std::size_t bytes) const;

  /// Cursor table for `chunk`-byte pipeline chunks. Memoized per chunk
  /// size, so retransmissions and repeated sends of the same (type, count,
  /// chunk) reuse the stored table verbatim.
  std::shared_ptr<const ChunkCursors> chunk_cursors(std::size_t chunk) const;

 private:
  PackPlan() = default;

  std::uint64_t signature_ = 0;
  int count_ = 0;
  std::size_t elem_size_ = 0;
  std::size_t packed_bytes_ = 0;
  std::int64_t extent_ = 0;
  LayoutClass layout_ = LayoutClass::kIrregular;
  std::int64_t dense_offset_ = 0;
  std::size_t total_segments_ = 0;
  std::vector<SubPattern> subpatterns_;
  mpisim::Datatype dtype_;  // pins the committed tree the cursors index

  mutable std::mutex chunk_mu_;
  mutable std::map<std::size_t, std::shared_ptr<const ChunkCursors>>
      chunk_tables_;
};

/// Process-wide LRU plan cache. Two tiers:
///   1. a pointer-keyed fast path on (type handle, count) — O(1)-ish, the
///      common repeated-send case;
///   2. a canonical-signature tier that dedupes structurally identical
///      trees built through different constructor sequences.
/// A plan pins only the type it was built from. Every other fast-path
/// alias holds a weak reference: an expired alias is a miss and is pruned,
/// so a recycled node address never returns a stale plan, and types built
/// per call do not accumulate in the cache.
class PlanCache {
 public:
  static PlanCache& instance();

  /// Fetch (or build and insert) the plan for a committed (type, count).
  std::shared_ptr<const PackPlan> get(const mpisim::Datatype& dtype,
                                      int count);

  PlanCacheStats stats() const;
  std::size_t size() const;
  /// Fast-path aliases currently held (live or not yet pruned).
  std::size_t alias_count() const;
  std::size_t capacity() const;
  void set_capacity(std::size_t cap);
  /// Drop every entry and zero the counters (tests and benchmarks).
  void reset();

 private:
  explicit PlanCache(std::size_t capacity) : capacity_(capacity) {}

  using SigKey = std::pair<std::uint64_t, int>;   // (signature, count)
  using NodeKey = std::pair<const void*, int>;    // (tree identity, count)
  struct Entry {
    SigKey key;
    std::shared_ptr<const PackPlan> plan;
    std::vector<NodeKey> aliases;  // fast-path keys pointing here
  };
  using EntryIt = std::list<Entry>::iterator;
  struct Alias {
    EntryIt entry;
    std::weak_ptr<const void> node;  // expires with the aliased type
  };

  void touch(EntryIt it);
  void add_alias(EntryIt it, const NodeKey& nk, const mpisim::Datatype& dtype);
  void evict_excess();

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::map<SigKey, EntryIt> by_sig_;
  std::map<NodeKey, Alias> by_node_;
  PlanCacheStats stats_;
};

}  // namespace mv2gnc::core
