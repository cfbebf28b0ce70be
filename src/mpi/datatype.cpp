#include "mpi/datatype.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "sim/row_copy.hpp"

namespace mv2gnc::mpisim {

namespace detail {

enum class Kind {
  kPredefined,
  kContiguous,
  kVector,   // stride normalized to bytes
  kIndexed,  // displacements normalized to bytes
  kStruct,
  kSubarray,
  kResized,
};

struct TypeNode {
  Kind kind = Kind::kPredefined;
  std::string name;

  // Type map summary (computed at construction).
  std::size_t size = 0;
  std::int64_t lb = 0;
  std::int64_t ub = 0;

  // Constructor parameters (meaning depends on kind).
  int count = 0;
  int blocklength = 0;
  std::int64_t stride_bytes = 0;
  std::vector<int> blocklengths;
  std::vector<std::int64_t> displacements;  // bytes
  std::vector<std::shared_ptr<TypeNode>> children;

  // Subarray parameters.
  std::vector<int> sizes;
  std::vector<int> subsizes;
  std::vector<int> starts;
  ArrayOrder order = ArrayOrder::kC;

  // Commit artifacts: the canonical group form of one element and the
  // first run index of each group (plus the run count at the end), both
  // O(groups).
  bool committed = false;
  std::vector<StridedGroup> groups;
  std::vector<std::size_t> group_run;  // groups.size() + 1 entries
  // Contiguity memo for pre-commit queries: -1 unknown, else 0/1.
  mutable int contig_memo = -1;

  std::int64_t extent() const { return ub - lb; }
  std::size_t runs() const { return group_run.empty() ? 0 : group_run.back(); }
};

namespace {

std::int64_t last_run_offset(const StridedGroup& g) {
  return g.first_offset + static_cast<std::int64_t>(g.rows - 1) * g.stride;
}

// The one run-grouping rule. Runs arrive in packed order; a run that abuts
// the previous one merges into it, then every run either extends the last
// group (same length, same gap, gap >= length: memcpy2d legality) or opens
// a new one. The result depends only on the merged run list, so every
// spelling of one layout produces the same groups, and expanding the groups
// gives the run list back. push_group and push_repeat feed whole groups in
// O(1) where the runs continue the last group's stride.
//
// A builder with a budget stops feeding once the groups provably exceed
// it. Only the last group can still vanish (an abutting run pops it), so
// that holds as soon as more than budget + 1 groups exist.
class GroupBuilder {
 public:
  explicit GroupBuilder(
      std::size_t budget = std::numeric_limits<std::size_t>::max())
      : budget_(budget) {}

  void push_run(std::int64_t offset, std::size_t length) {
    if (length == 0) return;
    if (!out_.empty()) {
      const StridedGroup& g = out_.back();
      const std::int64_t last = last_run_offset(g);
      if (last + static_cast<std::int64_t>(g.block) == offset) {
        // Abutting: the grown run replaces the last run and is regrouped.
        const std::size_t merged = g.block + length;
        pop_last_run();
        append(last, merged);
        return;
      }
    }
    append(offset, length);
  }

  // Feed the runs of `g` shifted by `shift`.
  void push_group(const StridedGroup& g, std::int64_t shift) {
    if (g.rows == 0 || g.block == 0) return;
    const std::int64_t first = g.first_offset + shift;
    if (g.rows == 1 || g.stride == static_cast<std::int64_t>(g.block)) {
      push_run(first, g.rows * g.block);  // the rows abut: one run
      return;
    }
    std::size_t i = 0;
    while (i < g.rows) {
      push_run(first + static_cast<std::int64_t>(i) * g.stride, g.block);
      ++i;
      if (over_budget()) return;
      const StridedGroup& b = out_.back();
      if (b.rows >= 2 && b.block == g.block && b.stride == g.stride) break;
    }
    // The last group now runs at g's stride through g's latest row, so the
    // remaining rows extend it.
    out_.back().rows += g.rows - i;
  }

  // Feed `times` copies of `gs`, copy t shifted by base + t*step.
  void push_repeat(const std::vector<StridedGroup>& gs, std::int64_t base,
                   std::size_t times, std::int64_t step) {
    if (times == 0 || gs.empty()) return;
    if (gs.size() == 1) {
      const StridedGroup& g = gs[0];
      if (g.rows == 1) {
        push_group({g.first_offset, times, g.block, step, 0}, base);
        return;
      }
      if (step == static_cast<std::int64_t>(g.rows) * g.stride) {
        push_group({g.first_offset, times * g.rows, g.block, g.stride, 0},
                   base);
        return;
      }
    }
    for (std::size_t t = 0; t < times; ++t) {
      for (const StridedGroup& g : gs) {
        push_group(g, base + static_cast<std::int64_t>(t) * step);
        if (over_budget()) return;
      }
    }
  }

  std::vector<StridedGroup> take() { return std::move(out_); }

 private:
  bool over_budget() const {
    return out_.size() > 1 && out_.size() - 1 > budget_;
  }

  std::size_t packed_end() const {
    if (out_.empty()) return 0;
    return out_.back().packed_offset + out_.back().packed_bytes();
  }

  // Append a run that does not abut the last one.
  void append(std::int64_t offset, std::size_t length) {
    if (!out_.empty() && out_.back().block == length) {
      StridedGroup& g = out_.back();
      if (g.rows == 1) {
        const std::int64_t stride = offset - g.first_offset;
        if (stride >= static_cast<std::int64_t>(length)) {
          g.rows = 2;
          g.stride = stride;
          return;
        }
      } else if (offset - last_run_offset(g) == g.stride) {
        ++g.rows;
        return;
      }
    }
    out_.push_back({offset, 1, length, static_cast<std::int64_t>(length),
                    packed_end()});
  }

  // Remove the last run; grouping is prefix-stable, so what remains is the
  // grouping of the shorter run list.
  void pop_last_run() {
    StridedGroup& g = out_.back();
    if (g.rows == 1) {
      out_.pop_back();
      return;
    }
    if (--g.rows == 1) g.stride = static_cast<std::int64_t>(g.block);
  }

  std::size_t budget_;
  std::vector<StridedGroup> out_;
};

std::vector<StridedGroup> flatten(const TypeNode& n);

// A child's canonical groups: stored if it is committed, else built.
const std::vector<StridedGroup>& child_groups(const TypeNode& c,
                                              std::vector<StridedGroup>& tmp) {
  if (c.committed) return c.groups;
  tmp = flatten(c);
  return tmp;
}

// Emit the runs of one element of `n` at `base`, composing each child's
// groups instead of walking its runs.
void emit(const TypeNode& n, std::int64_t base, GroupBuilder& out) {
  std::vector<StridedGroup> tmp;
  switch (n.kind) {
    case Kind::kPredefined:
      out.push_run(base, n.size);
      return;
    case Kind::kContiguous: {
      const TypeNode& c = *n.children[0];
      out.push_repeat(child_groups(c, tmp), base,
                      static_cast<std::size_t>(n.count), c.extent());
      return;
    }
    case Kind::kVector: {
      const TypeNode& c = *n.children[0];
      GroupBuilder block;
      block.push_repeat(child_groups(c, tmp), 0,
                        static_cast<std::size_t>(n.blocklength), c.extent());
      out.push_repeat(block.take(), base, static_cast<std::size_t>(n.count),
                      n.stride_bytes);
      return;
    }
    case Kind::kIndexed: {
      const TypeNode& c = *n.children[0];
      const std::vector<StridedGroup>& gs = child_groups(c, tmp);
      for (std::size_t k = 0; k < n.blocklengths.size(); ++k) {
        out.push_repeat(gs, base + n.displacements[k],
                        static_cast<std::size_t>(n.blocklengths[k]),
                        c.extent());
      }
      return;
    }
    case Kind::kStruct:
      for (std::size_t k = 0; k < n.children.size(); ++k) {
        const TypeNode& c = *n.children[k];
        out.push_repeat(child_groups(c, tmp), base + n.displacements[k],
                        static_cast<std::size_t>(n.blocklengths[k]),
                        c.extent());
      }
      return;
    case Kind::kSubarray: {
      // The type-map order varies the fastest-moving dimension innermost:
      // the last dimension for C order, the first for Fortran order. Build
      // from the innermost dimension out; `stride` is the byte distance
      // between consecutive indices along the current dimension.
      const std::size_t ndims = n.sizes.size();
      std::vector<StridedGroup> level = child_groups(*n.children[0], tmp);
      std::int64_t stride = n.children[0]->extent();
      for (std::size_t i = 0; i < ndims; ++i) {
        const std::size_t d = (n.order == ArrayOrder::kC) ? ndims - 1 - i : i;
        GroupBuilder b;
        b.push_repeat(level, n.starts[d] * stride,
                      static_cast<std::size_t>(n.subsizes[d]), stride);
        level = b.take();
        stride *= n.sizes[d];
      }
      out.push_repeat(level, base, 1, 0);
      return;
    }
    case Kind::kResized:
      out.push_repeat(child_groups(*n.children[0], tmp), base, 1, 0);
      return;
  }
}

std::vector<StridedGroup> flatten(const TypeNode& n) {
  GroupBuilder b;
  emit(n, 0, b);
  return b.take();
}

bool single_dense_run(const TypeNode& n, const std::vector<StridedGroup>& gs) {
  return n.size == 0 ||
         (gs.size() == 1 && gs[0].rows == 1 && gs[0].first_offset == 0 &&
          static_cast<std::int64_t>(n.size) == n.extent());
}

std::shared_ptr<TypeNode> predefined(const char* name, std::size_t size) {
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kPredefined;
  n->name = name;
  n->size = size;
  n->lb = 0;
  n->ub = static_cast<std::int64_t>(size);
  return n;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace
}  // namespace detail

using detail::Kind;
using detail::TypeNode;

const TypeNode& Datatype::node() const {
  if (!node_) throw std::logic_error("null Datatype handle used");
  return *node_;
}

// ---------------------------------------------------------------------------
// Predefined types (one shared node per process, like MPI handles).
// ---------------------------------------------------------------------------

Datatype Datatype::byte() {
  static auto n = detail::predefined("MPI_BYTE", 1);
  return Datatype(n);
}
Datatype Datatype::int32() {
  static auto n = detail::predefined("MPI_INT", 4);
  return Datatype(n);
}
Datatype Datatype::int64() {
  static auto n = detail::predefined("MPI_LONG_LONG", 8);
  return Datatype(n);
}
Datatype Datatype::float32() {
  static auto n = detail::predefined("MPI_FLOAT", 4);
  return Datatype(n);
}
Datatype Datatype::float64() {
  static auto n = detail::predefined("MPI_DOUBLE", 8);
  return Datatype(n);
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

namespace {

void span_bounds(const TypeNode& child, std::int64_t block_base, int blocklen,
                 std::int64_t& lo, std::int64_t& hi) {
  // Bounds contributed by `blocklen` consecutive child elements at
  // block_base.
  const std::int64_t ext = child.extent();
  const std::int64_t first_lb = block_base + child.lb;
  const std::int64_t last_ub =
      block_base + static_cast<std::int64_t>(blocklen - 1) * ext + child.ub;
  lo = std::min(lo, std::min(first_lb, last_ub));
  hi = std::max(hi, std::max(first_lb, last_ub));
}

}  // namespace

Datatype Datatype::contiguous(int count, const Datatype& old) {
  detail::require(count >= 0, "contiguous: negative count");
  if (!old.valid()) throw std::invalid_argument("contiguous: null base type");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kContiguous;
  n->count = count;
  n->children.push_back(old.node_);
  const TypeNode& c = *old.node_;
  n->size = static_cast<std::size_t>(count) * c.size;
  if (count == 0) {
    n->lb = 0;
    n->ub = 0;
  } else {
    std::int64_t lo = INT64_MAX, hi = INT64_MIN;
    span_bounds(c, 0, count, lo, hi);
    n->lb = lo;
    n->ub = hi;
  }
  return Datatype(std::move(n));
}

Datatype Datatype::vector(int count, int blocklength, int stride,
                          const Datatype& old) {
  if (!old.valid()) throw std::invalid_argument("vector: null base type");
  return hvector(count, blocklength,
                 static_cast<std::int64_t>(stride) * old.node_->extent(), old);
}

Datatype Datatype::hvector(int count, int blocklength,
                           std::int64_t stride_bytes, const Datatype& old) {
  detail::require(count >= 0, "hvector: negative count");
  detail::require(blocklength >= 0, "hvector: negative blocklength");
  if (!old.valid()) throw std::invalid_argument("hvector: null base type");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kVector;
  n->count = count;
  n->blocklength = blocklength;
  n->stride_bytes = stride_bytes;
  n->children.push_back(old.node_);
  const TypeNode& c = *old.node_;
  n->size = static_cast<std::size_t>(count) *
            static_cast<std::size_t>(blocklength) * c.size;
  if (count == 0 || blocklength == 0) {
    n->lb = 0;
    n->ub = 0;
  } else {
    // Block i's bounds are linear in i, so the first and last blocks hold
    // the extremes.
    std::int64_t lo = INT64_MAX, hi = INT64_MIN;
    span_bounds(c, 0, blocklength, lo, hi);
    span_bounds(c, static_cast<std::int64_t>(count - 1) * stride_bytes,
                blocklength, lo, hi);
    n->lb = lo;
    n->ub = hi;
  }
  return Datatype(std::move(n));
}

Datatype Datatype::indexed(std::span<const int> blocklengths,
                           std::span<const int> displacements,
                           const Datatype& old) {
  if (!old.valid()) throw std::invalid_argument("indexed: null base type");
  detail::require(blocklengths.size() == displacements.size(),
                  "indexed: blocklengths/displacements size mismatch");
  std::vector<std::int64_t> displs_bytes(displacements.size());
  const std::int64_t ext = old.node_->extent();
  for (std::size_t i = 0; i < displacements.size(); ++i) {
    displs_bytes[i] = static_cast<std::int64_t>(displacements[i]) * ext;
  }
  return hindexed(blocklengths, displs_bytes, old);
}

Datatype Datatype::hindexed(std::span<const int> blocklengths,
                            std::span<const std::int64_t> displacements_bytes,
                            const Datatype& old) {
  if (!old.valid()) throw std::invalid_argument("hindexed: null base type");
  detail::require(blocklengths.size() == displacements_bytes.size(),
                  "hindexed: blocklengths/displacements size mismatch");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kIndexed;
  n->blocklengths.assign(blocklengths.begin(), blocklengths.end());
  n->displacements.assign(displacements_bytes.begin(),
                          displacements_bytes.end());
  n->children.push_back(old.node_);
  const TypeNode& c = *old.node_;
  std::size_t size = 0;
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  bool any = false;
  for (std::size_t k = 0; k < n->blocklengths.size(); ++k) {
    detail::require(n->blocklengths[k] >= 0, "hindexed: negative blocklength");
    size += static_cast<std::size_t>(n->blocklengths[k]) * c.size;
    if (n->blocklengths[k] > 0) {
      any = true;
      span_bounds(c, n->displacements[k], n->blocklengths[k], lo, hi);
    }
  }
  n->size = size;
  n->lb = any ? lo : 0;
  n->ub = any ? hi : 0;
  return Datatype(std::move(n));
}

Datatype Datatype::indexed_block(int blocklength,
                                 std::span<const int> displacements,
                                 const Datatype& old) {
  std::vector<int> blocklens(displacements.size(), blocklength);
  return indexed(blocklens, displacements, old);
}

Datatype Datatype::create_struct(std::span<const int> blocklengths,
                                 std::span<const std::int64_t> displacements,
                                 std::span<const Datatype> types) {
  detail::require(blocklengths.size() == displacements.size() &&
                      blocklengths.size() == types.size(),
                  "create_struct: argument size mismatch");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kStruct;
  n->blocklengths.assign(blocklengths.begin(), blocklengths.end());
  n->displacements.assign(displacements.begin(), displacements.end());
  std::size_t size = 0;
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  bool any = false;
  for (std::size_t k = 0; k < types.size(); ++k) {
    if (!types[k].valid()) {
      throw std::invalid_argument("create_struct: null member type");
    }
    detail::require(blocklengths[k] >= 0,
                    "create_struct: negative blocklength");
    n->children.push_back(types[k].node_);
    const TypeNode& c = *types[k].node_;
    size += static_cast<std::size_t>(blocklengths[k]) * c.size;
    if (blocklengths[k] > 0) {
      any = true;
      span_bounds(c, displacements[k], blocklengths[k], lo, hi);
    }
  }
  n->size = size;
  n->lb = any ? lo : 0;
  n->ub = any ? hi : 0;
  return Datatype(std::move(n));
}

Datatype Datatype::subarray(std::span<const int> sizes,
                            std::span<const int> subsizes,
                            std::span<const int> starts, ArrayOrder order,
                            const Datatype& old) {
  if (!old.valid()) throw std::invalid_argument("subarray: null base type");
  const std::size_t ndims = sizes.size();
  detail::require(ndims > 0, "subarray: zero dimensions");
  detail::require(subsizes.size() == ndims && starts.size() == ndims,
                  "subarray: dimension count mismatch");
  for (std::size_t d = 0; d < ndims; ++d) {
    detail::require(sizes[d] > 0, "subarray: non-positive size");
    detail::require(subsizes[d] > 0 && subsizes[d] <= sizes[d],
                    "subarray: bad subsize");
    detail::require(starts[d] >= 0 && starts[d] + subsizes[d] <= sizes[d],
                    "subarray: bad start");
  }
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kSubarray;
  n->sizes.assign(sizes.begin(), sizes.end());
  n->subsizes.assign(subsizes.begin(), subsizes.end());
  n->starts.assign(starts.begin(), starts.end());
  n->order = order;
  n->children.push_back(old.node_);
  const TypeNode& c = *old.node_;
  std::size_t points = 1;
  std::int64_t full = 1;
  for (std::size_t d = 0; d < ndims; ++d) {
    points *= static_cast<std::size_t>(subsizes[d]);
    full *= sizes[d];
  }
  n->size = points * c.size;
  // MPI: the extent of a subarray type is the extent of the full array.
  n->lb = 0;
  n->ub = full * c.extent();
  return Datatype(std::move(n));
}

Datatype Datatype::resized(const Datatype& old, std::int64_t lb,
                           std::int64_t extent) {
  if (!old.valid()) throw std::invalid_argument("resized: null base type");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kResized;
  n->children.push_back(old.node_);
  n->size = old.node_->size;
  n->lb = lb;
  n->ub = lb + extent;
  return Datatype(std::move(n));
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

std::size_t Datatype::size() const { return node().size; }
std::int64_t Datatype::extent() const { return node().extent(); }
std::int64_t Datatype::lower_bound() const { return node().lb; }

bool Datatype::is_contiguous() const {
  const TypeNode& n = node();
  if (n.contig_memo < 0) {
    // First query on an uncommitted tree: flatten once and memoize (the
    // tree is immutable, so the answer never changes).
    n.contig_memo = detail::single_dense_run(n, detail::flatten(n)) ? 1 : 0;
  }
  return n.contig_memo == 1;
}

std::string Datatype::describe() const {
  const TypeNode& n = node();
  std::ostringstream os;
  switch (n.kind) {
    case Kind::kPredefined: os << n.name; break;
    case Kind::kContiguous:
      os << "contiguous(" << n.count << ", "
         << Datatype(n.children[0]).describe() << ")";
      break;
    case Kind::kVector:
      os << "hvector(count=" << n.count << ", blocklen=" << n.blocklength
         << ", stride=" << n.stride_bytes << "B, "
         << Datatype(n.children[0]).describe() << ")";
      break;
    case Kind::kIndexed:
      os << "hindexed(" << n.blocklengths.size() << " blocks, "
         << Datatype(n.children[0]).describe() << ")";
      break;
    case Kind::kStruct:
      os << "struct(" << n.children.size() << " members)";
      break;
    case Kind::kSubarray: {
      os << "subarray([";
      for (std::size_t d = 0; d < n.sizes.size(); ++d) {
        os << (d ? "," : "") << n.subsizes[d] << "/" << n.sizes[d];
      }
      os << "], " << Datatype(n.children[0]).describe() << ")";
      break;
    }
    case Kind::kResized:
      os << "resized(lb=" << n.lb << ", extent=" << n.extent() << ", "
         << Datatype(n.children[0]).describe() << ")";
      break;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Commit & flattened access
// ---------------------------------------------------------------------------

void Datatype::commit() {
  TypeNode& n = const_cast<TypeNode&>(node());
  if (n.committed) return;
  n.groups = detail::flatten(n);
  const auto& gs = n.groups;
  n.group_run.assign(1, 0);
  std::size_t packed = 0;
  for (const StridedGroup& g : gs) {
    n.group_run.push_back(n.group_run.back() + g.rows);
    packed += g.packed_bytes();
  }
  if (packed != n.size) {
    throw std::logic_error("datatype commit: segment sum != size");
  }
  n.contig_memo = detail::single_dense_run(n, gs) ? 1 : 0;
  n.committed = true;
}

bool Datatype::committed() const { return node().committed; }

namespace {

const TypeNode& committed_node(const Datatype& t, const TypeNode& n,
                               const char* api) {
  if (!n.committed) {
    throw std::logic_error(std::string(api) +
                           ": datatype not committed: " + t.describe());
  }
  return n;
}

}  // namespace

const std::vector<StridedGroup>& Datatype::groups() const {
  return committed_node(*this, node(), "groups").groups;
}

std::vector<StridedGroup> Datatype::message_groups(int count,
                                                  std::size_t budget) const {
  const TypeNode& n = committed_node(*this, node(), "message_groups");
  detail::GroupBuilder b(budget);
  b.push_repeat(n.groups, 0, static_cast<std::size_t>(std::max(count, 0)),
                n.extent());
  return b.take();
}

std::vector<Segment> Datatype::segments() const {
  const TypeNode& n = committed_node(*this, node(), "segments");
  std::vector<Segment> out;
  out.reserve(n.runs());
  for (const StridedGroup& g : n.groups) {
    for (std::size_t r = 0; r < g.rows; ++r) {
      out.push_back(
          Segment{g.first_offset + static_cast<std::int64_t>(r) * g.stride,
                  g.block});
    }
  }
  return out;
}

namespace {

// Gap from the last run of element k to the first run of element k+1.
std::int64_t seam_gap(const TypeNode& n) {
  return n.groups.front().first_offset + n.extent() -
         detail::last_run_offset(n.groups.back());
}

}  // namespace

std::size_t Datatype::total_segments(int count) const {
  const TypeNode& n = committed_node(*this, node(), "total_segments");
  if (count <= 0 || n.groups.empty()) return 0;
  // Elements merge at the seam if the last run of element k abuts the
  // first run of element k+1.
  const std::size_t all = n.runs() * static_cast<std::size_t>(count);
  if (seam_gap(n) == static_cast<std::int64_t>(n.groups.back().block)) {
    return all - static_cast<std::size_t>(count - 1);
  }
  return all;
}

// ---------------------------------------------------------------------------
// Pack / unpack
// ---------------------------------------------------------------------------

namespace {

// Index of the group holding run `run` of an element (groups.size() when
// `run` is past the element's last run).
std::size_t group_of_run(const TypeNode& n, std::size_t run) {
  const auto it =
      std::upper_bound(n.group_run.begin(), n.group_run.end(), run);
  return static_cast<std::size_t>(std::distance(n.group_run.begin(), it)) - 1;
}

// Packed offset, within its element, of run `run` (the element size one
// past the last run).
std::size_t run_packed_offset(const TypeNode& n, std::size_t run) {
  if (run >= n.runs()) return run == n.runs() ? n.size : 0;
  const std::size_t gi = group_of_run(n, run);
  const StridedGroup& g = n.groups[gi];
  return g.packed_offset + (run - n.group_run[gi]) * g.block;
}

// Locate packed-stream offset `pack_offset` (the one search of the ranged
// pack path; everything downstream advances the cursor without searching).
PackCursor cursor_for(const TypeNode& n, std::size_t pack_offset) {
  PackCursor cur;
  if (n.size == 0) return cur;
  cur.elem = pack_offset / n.size;
  const std::size_t within = pack_offset % n.size;
  const auto past = std::partition_point(
      n.groups.begin(), n.groups.end(),
      [within](const StridedGroup& g) { return g.packed_offset <= within; });
  const auto gi = static_cast<std::size_t>(past - n.groups.begin()) - 1;
  const std::size_t in_group = within - n.groups[gi].packed_offset;
  cur.seg = n.group_run[gi] + in_group / n.groups[gi].block;
  cur.skip = in_group % n.groups[gi].block;
  return cur;
}

std::byte* bytes(const void* p) {
  return static_cast<std::byte*>(const_cast<void*>(p));
}

// The one gather/scatter walk: copy `nbytes` of packed stream starting at
// `cur`, typed -> dense when packing, dense -> typed otherwise. One row copy
// per group stretch in range, after one group lookup: the cursor then walks
// forward (each subsequent element starts at run 0 with no skip).
void move_from_cursor(const TypeNode& n, bool pack, std::byte* typed,
                      std::byte* dense, PackCursor cur, std::size_t nbytes) {
  const std::int64_t ext = n.extent();
  std::size_t remaining = nbytes;
  std::size_t e = cur.elem;
  std::size_t gi = group_of_run(n, std::min(cur.seg, n.runs()));
  std::size_t row = gi < n.groups.size() ? cur.seg - n.group_run[gi] : 0;
  std::size_t skip = cur.skip;
  while (remaining > 0) {
    const std::int64_t elem_base = static_cast<std::int64_t>(e) * ext;
    while (remaining > 0 && gi < n.groups.size()) {
      const StridedGroup& g = n.groups[gi];
      std::byte* run = typed + elem_base + g.first_offset +
                       static_cast<std::int64_t>(row) * g.stride +
                       static_cast<std::int64_t>(skip);
      std::byte* to = pack ? dense : run;
      const std::byte* from = pack ? run : dense;
      // Two or more whole runs in range move as one strided row copy.
      std::size_t rows = skip == 0 ? g.rows - row : 0;
      if (rows * g.block > remaining) rows = remaining / g.block;
      if (rows > 1) {
        const auto block = static_cast<std::ptrdiff_t>(g.block);
        sim::copy_rows(to, pack ? block : g.stride, from,
                       pack ? g.stride : block, g.block, rows);
        dense += rows * g.block;
        remaining -= rows * g.block;
        row += rows - 1;
        skip = g.block;  // the step below moves past the last run
      } else {
        const std::size_t take = std::min(g.block - skip, remaining);
        std::memcpy(to, from, take);
        dense += take;
        remaining -= take;
        skip += take;
      }
      if (skip == g.block) {
        skip = 0;
        if (++row == g.rows) {
          row = 0;
          ++gi;
        }
      }
    }
    // Element exhausted; move to the next.
    if (gi >= n.groups.size()) {
      ++e;
      gi = 0;
      row = 0;
      skip = 0;
    }
  }
}

void check_range(const TypeNode& n, int count, std::size_t pack_offset,
                 std::size_t nbytes) {
  const std::size_t total = n.size * static_cast<std::size_t>(count);
  if (pack_offset > total || nbytes > total - pack_offset) {
    throw std::out_of_range("pack/unpack byte range outside message");
  }
}

// Range check of a cursor-started transfer; false when there is nothing
// to move in a zero-size type.
bool check_cursor(const TypeNode& n, int count, const PackCursor& cur,
                  std::size_t nbytes) {
  if (n.size == 0 && nbytes == 0) return false;
  check_range(n, count,
              cur.elem * n.size + run_packed_offset(n, cur.seg) + cur.skip,
              nbytes);
  return true;
}

}  // namespace

void Datatype::pack(const void* src, int count, void* dst) const {
  pack_bytes(src, count, 0, size() * std::max(count, 0), dst);
}

void Datatype::unpack(const void* src, int count, void* dst) const {
  unpack_bytes(src, count, 0, size() * std::max(count, 0), dst);
}

void Datatype::pack_bytes(const void* src, int count, std::size_t pack_offset,
                          std::size_t nbytes, void* dst) const {
  const TypeNode& n = committed_node(*this, node(), "pack_bytes");
  check_range(n, count, pack_offset, nbytes);
  move_from_cursor(n, true, bytes(src), bytes(dst), cursor_for(n, pack_offset),
                   nbytes);
}

void Datatype::unpack_bytes(const void* src, int count,
                            std::size_t pack_offset, std::size_t nbytes,
                            void* dst) const {
  const TypeNode& n = committed_node(*this, node(), "unpack_bytes");
  check_range(n, count, pack_offset, nbytes);
  move_from_cursor(n, false, bytes(dst), bytes(src),
                   cursor_for(n, pack_offset), nbytes);
}

PackCursor Datatype::cursor_at(int count, std::size_t pack_offset) const {
  const TypeNode& n = committed_node(*this, node(), "cursor_at");
  check_range(n, count, pack_offset, 0);
  return cursor_for(n, pack_offset);
}

void Datatype::pack_bytes_from(const PackCursor& cur, const void* src,
                               int count, std::size_t nbytes,
                               void* dst) const {
  const TypeNode& n = committed_node(*this, node(), "pack_bytes_from");
  if (check_cursor(n, count, cur, nbytes)) {
    move_from_cursor(n, true, bytes(src), bytes(dst), cur, nbytes);
  }
}

void Datatype::unpack_bytes_from(const PackCursor& cur, const void* src,
                                 int count, std::size_t nbytes,
                                 void* dst) const {
  const TypeNode& n = committed_node(*this, node(), "unpack_bytes_from");
  if (check_cursor(n, count, cur, nbytes)) {
    move_from_cursor(n, false, bytes(dst), bytes(src), cur, nbytes);
  }
}

}  // namespace mv2gnc::mpisim
