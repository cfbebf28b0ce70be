// MPI derived-datatype engine.
//
// Implements the MPI type-constructor algebra the paper's workloads use —
// contiguous, vector/hvector, indexed/hindexed/indexed_block, struct,
// subarray, resized — over a small set of predefined types. A committed
// type exposes:
//   * size()/extent()/lower_bound() per the MPI type map rules;
//   * a canonical flattened layout: the contiguous runs of one element
//     (adjacent runs merged) grouped greedily into maximal uniform strided
//     groups, built compositionally so a strided column of a million
//     elements commits to one group — the one layout description both the
//     host pack path and the GPU offload path consume (a group is exactly
//     one cudaMemcpy2D, the datatype-processing offload of paper §IV-A);
//   * full and byte-ranged pack/unpack, the ranged form being what the
//     64 KB chunked pipeline of §IV-B slices on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace mv2gnc::mpisim {

/// One contiguous run of bytes within a single type element, relative to
/// the element base address.
struct Segment {
  std::int64_t offset = 0;
  std::size_t length = 0;

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// One maximal uniform strided group of the canonical layout: `rows` runs
/// of `block` bytes every `stride` bytes, the first `first_offset` bytes
/// from the base, covering packed-stream range
/// [packed_offset, packed_offset + rows*block).
struct StridedGroup {
  std::int64_t first_offset = 0;
  std::size_t rows = 0;
  std::size_t block = 0;
  std::int64_t stride = 0;  // equals block when rows == 1
  std::size_t packed_offset = 0;

  std::size_t packed_bytes() const { return rows * block; }
  friend bool operator==(const StridedGroup&, const StridedGroup&) = default;
};

/// Array storage order for subarray types.
enum class ArrayOrder { kC, kFortran };

/// Resumable position within the packed stream of a (type, count) message:
/// element index, run (segment) index within that element, and bytes
/// already consumed of that run. A cursor fixes the starting point of a
/// byte-ranged pack/unpack so chunked pipelines resume without searching
/// the layout again per chunk.
struct PackCursor {
  std::size_t elem = 0;
  std::size_t seg = 0;
  std::size_t skip = 0;

  friend bool operator==(const PackCursor&, const PackCursor&) = default;
};

namespace detail {
struct TypeNode;
}

/// Value-semantics handle to an immutable type tree (like an MPI_Datatype
/// handle). Default-constructed handles are null and unusable.
class Datatype {
 public:
  Datatype() = default;

  // -- predefined types -------------------------------------------------
  static Datatype byte();     ///< MPI_BYTE
  static Datatype int32();    ///< MPI_INT
  static Datatype int64();    ///< MPI_LONG_LONG
  static Datatype float32();  ///< MPI_FLOAT
  static Datatype float64();  ///< MPI_DOUBLE

  // -- constructors (MPI_Type_*) -----------------------------------------
  static Datatype contiguous(int count, const Datatype& old);
  /// stride counted in elements of `old` (MPI_Type_vector).
  static Datatype vector(int count, int blocklength, int stride,
                         const Datatype& old);
  /// stride counted in bytes (MPI_Type_create_hvector).
  static Datatype hvector(int count, int blocklength,
                          std::int64_t stride_bytes, const Datatype& old);
  /// displacements counted in elements of `old` (MPI_Type_indexed).
  static Datatype indexed(std::span<const int> blocklengths,
                          std::span<const int> displacements,
                          const Datatype& old);
  /// displacements counted in bytes (MPI_Type_create_hindexed).
  static Datatype hindexed(std::span<const int> blocklengths,
                           std::span<const std::int64_t> displacements_bytes,
                           const Datatype& old);
  /// equal block lengths (MPI_Type_create_indexed_block).
  static Datatype indexed_block(int blocklength,
                                std::span<const int> displacements,
                                const Datatype& old);
  /// heterogeneous struct (MPI_Type_create_struct).
  static Datatype create_struct(std::span<const int> blocklengths,
                                std::span<const std::int64_t> displacements,
                                std::span<const Datatype> types);
  /// n-dimensional subarray (MPI_Type_create_subarray).
  static Datatype subarray(std::span<const int> sizes,
                           std::span<const int> subsizes,
                           std::span<const int> starts, ArrayOrder order,
                           const Datatype& old);
  /// override lb/extent (MPI_Type_create_resized).
  static Datatype resized(const Datatype& old, std::int64_t lb,
                          std::int64_t extent);

  // -- queries ------------------------------------------------------------
  bool valid() const { return node_ != nullptr; }
  /// Bytes of actual data in one element (MPI_Type_size).
  std::size_t size() const;
  /// Span covered by one element, ub - lb (MPI_Type_get_extent).
  std::int64_t extent() const;
  std::int64_t lower_bound() const;
  std::int64_t upper_bound() const { return lower_bound() + extent(); }
  /// True when one element is a single dense run at offset 0 whose length
  /// equals the extent (no holes anywhere).
  bool is_contiguous() const;
  /// Human-readable constructor tree, for diagnostics.
  std::string describe() const;

  // -- commit & flattened access ------------------------------------------
  /// MPI_Type_commit: builds the canonical group form in time proportional
  /// to the tree and the groups it yields, not to its runs. Communication
  /// and pack/unpack require a committed type.
  void commit();
  bool committed() const;

  /// Canonical form of one element: its merged runs in packed order,
  /// grouped greedily into maximal uniform strided groups (requires
  /// commit). Equal run lists give equal group lists and vice versa.
  const std::vector<StridedGroup>& groups() const;
  /// Canonical form of a count-element message, runs that abut across an
  /// element seam merged (requires commit). The build stops once the
  /// groups provably exceed `budget`: the result is exact when the form
  /// has at most `budget` groups, else a partial list of more than
  /// `budget` groups.
  std::vector<StridedGroup> message_groups(
      int count,
      std::size_t budget = std::numeric_limits<std::size_t>::max()) const;
  /// Flattened runs of one element, expanded from groups() (requires
  /// commit). O(runs): for tests and diagnostics, not the send path.
  std::vector<Segment> segments() const;
  /// Number of contiguous runs in `count` elements.
  std::size_t total_segments(int count) const;

  // -- host pack/unpack -----------------------------------------------------
  /// Gather `count` elements starting at `src` into the dense buffer `dst`
  /// (dst must hold count*size() bytes). Requires commit.
  void pack(const void* src, int count, void* dst) const;
  /// Scatter the dense buffer `src` into `count` elements at `dst`.
  void unpack(const void* src, int count, void* dst) const;
  /// Gather only packed-stream bytes [pack_offset, pack_offset+nbytes) of
  /// the count-element message into `dst` — the chunked-pipeline slice.
  void pack_bytes(const void* src, int count, std::size_t pack_offset,
                  std::size_t nbytes, void* dst) const;
  /// Scatter `nbytes` of packed stream starting at packed-stream offset
  /// `pack_offset` from `src` into the typed buffer `dst`.
  void unpack_bytes(const void* src, int count, std::size_t pack_offset,
                    std::size_t nbytes, void* dst) const;

  // -- resumable cursors ----------------------------------------------------
  /// Locate packed-stream offset `pack_offset` of a count-element message
  /// (one prefix-table search; requires commit).
  PackCursor cursor_at(int count, std::size_t pack_offset) const;
  /// pack_bytes starting at a precomputed cursor: O(segments in range),
  /// zero searches. The cursor must address a message of >= count elements.
  void pack_bytes_from(const PackCursor& cur, const void* src, int count,
                       std::size_t nbytes, void* dst) const;
  /// Mirror of pack_bytes_from for the unpack direction.
  void unpack_bytes_from(const PackCursor& cur, const void* src, int count,
                         std::size_t nbytes, void* dst) const;

  /// Opaque identity of the underlying (shared) type tree; equal handles
  /// share it. Used as the pack-plan cache's fast-path key.
  const void* node_id() const { return node_.get(); }
  /// Non-owning reference to the same tree: expires once every handle to
  /// it is gone, so a cache can key on node_id() without pinning the type.
  std::weak_ptr<const void> weak_node() const { return node_; }

  friend bool operator==(const Datatype& a, const Datatype& b) {
    return a.node_ == b.node_;
  }

 private:
  explicit Datatype(std::shared_ptr<detail::TypeNode> node)
      : node_(std::move(node)) {}
  const detail::TypeNode& node() const;
  std::shared_ptr<detail::TypeNode> node_;
};

}  // namespace mv2gnc::mpisim
