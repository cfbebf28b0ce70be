// Oracle fuzz for the canonical group form of committed datatypes.
//
// The reference is the plain recursive flattener: walk the constructor tree
// element by element and append every contiguous run, merging runs that
// abut. Seeded random trees are built twice — as a Datatype and as a Spec
// mirroring its constructor calls — and everything the library derives
// from its groups is checked against what the reference run list implies:
//   * the groups expand to the reference runs, per element and across a
//     count-element message, and equal the greedy grouping of those runs;
//   * total_segments, the cursor at every chunk boundary, the budgeted
//     group build, the plan's LayoutClass, dense offset, subpatterns and
//     chunk tables, and the host pack bytes;
//   * plan signatures are equal exactly when (size, extent, runs) are.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "core/pack_plan.hpp"
#include "mpi/datatype.hpp"

namespace core = mv2gnc::core;
using core::LayoutClass;
using core::PackPlan;
using core::SubPattern;
using mv2gnc::mpisim::ArrayOrder;
using mv2gnc::mpisim::Datatype;
using mv2gnc::mpisim::PackCursor;
using mv2gnc::mpisim::Segment;
using mv2gnc::mpisim::StridedGroup;

namespace {

// Constructor tree of a Datatype, with byte strides and displacements.
struct Spec {
  enum class Kind {
    kPredefined,
    kContiguous,
    kVector,
    kIndexed,
    kStruct,
    kSubarray,
    kResized
  };
  Kind kind = Kind::kPredefined;
  int count = 0;
  int blocklength = 0;
  std::int64_t stride = 0;
  std::vector<int> blocklengths;
  std::vector<std::int64_t> displacements;
  std::vector<int> sizes, subsizes, starts;
  ArrayOrder order = ArrayOrder::kC;
  std::vector<std::shared_ptr<const Spec>> children;
  Datatype type;
};
using SpecPtr = std::shared_ptr<const Spec>;

// ---------------------------------------------------------------------------
// Reference flattener and the layout facts derived from its run list.
// ---------------------------------------------------------------------------

void append_merged(std::vector<Segment>& out, std::int64_t offset,
                   std::size_t length) {
  if (length == 0) return;
  if (!out.empty() &&
      out.back().offset + static_cast<std::int64_t>(out.back().length) ==
          offset) {
    out.back().length += length;
    return;
  }
  out.push_back(Segment{offset, length});
}

void emit_segments(const Spec& n, std::int64_t base, std::vector<Segment>& out);

void emit_child_block(const Spec& child, std::int64_t base, int blocklen,
                      std::vector<Segment>& out) {
  const std::int64_t ext = child.type.extent();
  for (int j = 0; j < blocklen; ++j) {
    emit_segments(child, base + static_cast<std::int64_t>(j) * ext, out);
  }
}

void emit_subarray_dim(const Spec& n, std::size_t depth, std::int64_t base,
                       const std::vector<std::int64_t>& dim_stride,
                       std::vector<Segment>& out) {
  const auto ndims = n.sizes.size();
  if (depth == ndims) {
    emit_segments(*n.children[0], base, out);
    return;
  }
  const std::size_t dim =
      (n.order == ArrayOrder::kC) ? depth : ndims - 1 - depth;
  for (int i = 0; i < n.subsizes[dim]; ++i) {
    emit_subarray_dim(n, depth + 1,
                      base + (n.starts[dim] + i) * dim_stride[dim],
                      dim_stride, out);
  }
}

void emit_segments(const Spec& n, std::int64_t base,
                   std::vector<Segment>& out) {
  switch (n.kind) {
    case Spec::Kind::kPredefined:
      append_merged(out, base, n.type.size());
      return;
    case Spec::Kind::kContiguous:
      emit_child_block(*n.children[0], base, n.count, out);
      return;
    case Spec::Kind::kVector:
      for (int i = 0; i < n.count; ++i) {
        emit_child_block(*n.children[0],
                         base + static_cast<std::int64_t>(i) * n.stride,
                         n.blocklength, out);
      }
      return;
    case Spec::Kind::kIndexed:
      for (std::size_t k = 0; k < n.blocklengths.size(); ++k) {
        emit_child_block(*n.children[0], base + n.displacements[k],
                         n.blocklengths[k], out);
      }
      return;
    case Spec::Kind::kStruct:
      for (std::size_t k = 0; k < n.children.size(); ++k) {
        emit_child_block(*n.children[k], base + n.displacements[k],
                         n.blocklengths[k], out);
      }
      return;
    case Spec::Kind::kSubarray: {
      const auto ndims = n.sizes.size();
      std::vector<std::int64_t> dim_stride(ndims);
      std::int64_t s = n.children[0]->type.extent();
      if (n.order == ArrayOrder::kC) {
        for (std::size_t d = ndims; d-- > 0;) {
          dim_stride[d] = s;
          s *= n.sizes[d];
        }
      } else {
        for (std::size_t d = 0; d < ndims; ++d) {
          dim_stride[d] = s;
          s *= n.sizes[d];
        }
      }
      emit_subarray_dim(n, 0, base, dim_stride, out);
      return;
    }
    case Spec::Kind::kResized:
      emit_segments(*n.children[0], base, out);
      return;
  }
}

std::vector<Segment> oracle_runs(const Spec& s) {
  std::vector<Segment> out;
  emit_segments(s, 0, out);
  return out;
}

// Runs of a count-element message, merged across abutting element seams.
std::vector<Segment> oracle_message_runs(const std::vector<Segment>& segs,
                                         std::int64_t extent, int count) {
  std::vector<Segment> out;
  for (int e = 0; e < count; ++e) {
    for (const Segment& s : segs) {
      append_merged(out, static_cast<std::int64_t>(e) * extent + s.offset,
                    s.length);
    }
  }
  return out;
}

// Greedy maximal grouping: a run extends the current group when it has the
// group's length and continues its gap, and the gap is at least a length.
std::vector<StridedGroup> oracle_groups(const std::vector<Segment>& runs) {
  std::vector<StridedGroup> out;
  std::size_t i = 0;
  std::size_t packed = 0;
  while (i < runs.size()) {
    StridedGroup g{runs[i].offset, 1, runs[i].length,
                   static_cast<std::int64_t>(runs[i].length), packed};
    if (i + 1 < runs.size() && runs[i + 1].length == g.block) {
      const std::int64_t stride = runs[i + 1].offset - runs[i].offset;
      if (stride >= static_cast<std::int64_t>(g.block)) {
        std::size_t j = i + 1;
        while (j < runs.size() && runs[j].length == g.block &&
               runs[j].offset - runs[j - 1].offset == stride) {
          ++j;
        }
        g.rows = j - i;
        g.stride = stride;
      }
    }
    packed += g.packed_bytes();
    i += g.rows;
    out.push_back(g);
  }
  return out;
}

std::vector<Segment> expand(const std::vector<StridedGroup>& groups) {
  std::vector<Segment> out;
  for (const StridedGroup& g : groups) {
    for (std::size_t r = 0; r < g.rows; ++r) {
      out.push_back(
          Segment{g.first_offset + static_cast<std::int64_t>(r) * g.stride,
                  g.block});
    }
  }
  return out;
}

bool oracle_seam_merges(const std::vector<Segment>& segs,
                        std::int64_t extent) {
  return segs.back().offset + static_cast<std::int64_t>(segs.back().length) ==
         segs.front().offset + extent;
}

std::size_t oracle_total(const std::vector<Segment>& segs, std::int64_t extent,
                         int count) {
  if (count <= 0 || segs.empty()) return 0;
  const std::size_t all = segs.size() * static_cast<std::size_t>(count);
  return oracle_seam_merges(segs, extent)
             ? all - static_cast<std::size_t>(count - 1)
             : all;
}

// Cursor at packed offset `pack_offset`: element, run within the element
// and bytes into that run. `prefix` holds the packed offset of each run.
PackCursor oracle_cursor(const std::vector<std::size_t>& prefix,
                         std::size_t size, std::size_t pack_offset) {
  PackCursor cur;
  if (size == 0) return cur;
  cur.elem = pack_offset / size;
  const std::size_t within = pack_offset % size;
  cur.seg = static_cast<std::size_t>(
                std::upper_bound(prefix.begin(), prefix.end(), within) -
                prefix.begin()) -
            1;
  cur.skip = within - prefix[cur.seg];
  return cur;
}

struct OraclePlan {
  LayoutClass layout = LayoutClass::kIrregular;
  std::int64_t dense_offset = 0;
  std::vector<SubPattern> subpatterns;
};

// The pack-plan classification rule applied to the reference message runs:
// one dense run is contiguous at its offset; at most max(2, runs/4) groups
// (one group above 2^16 runs) are batched 2-D copies; else irregular.
OraclePlan oracle_plan(const std::vector<Segment>& full) {
  if (full.empty()) return {LayoutClass::kContiguous, 0, {}};
  if (full.size() == 1) return {LayoutClass::kContiguous, full[0].offset, {}};
  const std::size_t budget = full.size() > (std::size_t{1} << 16)
                                 ? 1
                                 : std::max<std::size_t>(2, full.size() / 4);
  std::vector<SubPattern> subs = oracle_groups(full);
  if (subs.size() <= budget) {
    return {LayoutClass::kSubPatterned, 0, std::move(subs)};
  }
  return {};
}

// ---------------------------------------------------------------------------
// Random trees, built as a Spec and a Datatype from the same draws.
// ---------------------------------------------------------------------------

class TreeGen {
 public:
  explicit TreeGen(std::uint32_t seed) : rng_(seed) {}

  int pick(int n) {
    return static_cast<int>(rng_() % static_cast<unsigned>(n));
  }

  SpecPtr leaf() {
    auto s = std::make_shared<Spec>();
    switch (pick(3)) {
      case 0: s->type = Datatype::byte(); break;
      case 1: s->type = Datatype::int32(); break;
      default: s->type = Datatype::float64(); break;
    }
    return s;
  }

  SpecPtr tree(int depth) {
    if (depth <= 0 || pick(5) == 0) return leaf();
    SpecPtr child = tree(depth - 1);
    const std::int64_t ext = child->type.extent();
    auto s = std::make_shared<Spec>();
    s->children.push_back(child);
    switch (pick(9)) {
      case 0:
        s->kind = Spec::Kind::kContiguous;
        s->count = pick(8) == 0 ? 0 : 1 + pick(4);
        s->type = Datatype::contiguous(s->count, child->type);
        break;
      case 1: {  // vector: stride in child extents, sometimes overlapping
        s->kind = Spec::Kind::kVector;
        s->count = 1 + pick(5);
        s->blocklength = 1 + pick(3);
        const int stride = pick(6) == 0 ? -1 - pick(3)
                                        : s->blocklength + pick(4) - pick(2);
        s->stride = stride * ext;
        s->type = Datatype::vector(s->count, s->blocklength, stride,
                                   child->type);
        break;
      }
      case 2: {  // hvector: stride in bytes
        s->kind = Spec::Kind::kVector;
        s->count = 1 + pick(5);
        s->blocklength = 1 + pick(3);
        s->stride = s->blocklength * ext + pick(24) - pick(8);
        s->type = Datatype::hvector(s->count, s->blocklength, s->stride,
                                    child->type);
        break;
      }
      case 3: {  // indexed: displacements in child extents, any order
        s->kind = Spec::Kind::kIndexed;
        std::vector<int> displs;
        int at = pick(3);
        for (int i = 0, n = 1 + pick(4); i < n; ++i) {
          s->blocklengths.push_back(pick(6) == 0 ? 0 : 1 + pick(3));
          displs.push_back(pick(5) == 0 ? pick(12) : at);
          at += s->blocklengths.back() + pick(3);
        }
        for (int d : displs) s->displacements.push_back(d * ext);
        s->type = Datatype::indexed(s->blocklengths, displs, child->type);
        break;
      }
      case 4: {  // indexed_block: equal blocks at a regular or random step
        s->kind = Spec::Kind::kIndexed;
        const int bl = 1 + pick(3);
        const int step = bl + pick(3);
        const bool regular = pick(2) == 0;
        std::vector<int> displs;
        for (int i = 0, n = 1 + pick(5); i < n; ++i) {
          displs.push_back(regular ? i * step : pick(16));
          s->blocklengths.push_back(bl);
          s->displacements.push_back(displs.back() * ext);
        }
        s->type = Datatype::indexed_block(bl, displs, child->type);
        break;
      }
      case 5: {  // struct of independent member trees
        s->kind = Spec::Kind::kStruct;
        s->children.clear();
        std::vector<Datatype> types;
        std::int64_t at = pick(4);
        for (int i = 0, n = 1 + pick(3); i < n; ++i) {
          SpecPtr m = i == 0 ? child : tree(depth - 1);
          s->children.push_back(m);
          types.push_back(m->type);
          s->blocklengths.push_back(1 + pick(2));
          s->displacements.push_back(at);
          at += s->blocklengths.back() * m->type.extent() + pick(6) - pick(2);
        }
        s->type = Datatype::create_struct(s->blocklengths, s->displacements,
                                          types);
        break;
      }
      case 6: {  // subarray, C or Fortran order
        s->kind = Spec::Kind::kSubarray;
        s->order = pick(2) == 0 ? ArrayOrder::kC : ArrayOrder::kFortran;
        for (int d = 0, nd = 1 + pick(3); d < nd; ++d) {
          const int size = 1 + pick(5);
          const int sub = 1 + pick(size);
          s->sizes.push_back(size);
          s->subsizes.push_back(sub);
          s->starts.push_back(pick(size - sub + 1));
        }
        s->type = Datatype::subarray(s->sizes, s->subsizes, s->starts,
                                     s->order, child->type);
        break;
      }
      default: {  // resized: shrink or grow the extent
        s->kind = Spec::Kind::kResized;
        const std::int64_t extent = std::max<std::int64_t>(
            1, child->type.extent() + pick(16) - pick(6));
        s->type = Datatype::resized(child->type, child->type.lower_bound(),
                                    extent);
        break;
      }
    }
    return s;
  }

 private:
  std::mt19937 rng_;
};

// Host pack through the reference runs: one memcpy per run per element.
std::vector<std::byte> oracle_pack(const std::vector<Segment>& segs,
                                   std::int64_t extent, int count,
                                   const std::byte* src) {
  std::vector<std::byte> out;
  for (int e = 0; e < count; ++e) {
    for (const Segment& s : segs) {
      const std::byte* p =
          src + static_cast<std::int64_t>(e) * extent + s.offset;
      out.insert(out.end(), p, p + s.length);
    }
  }
  return out;
}

void check_against_oracle(const SpecPtr& spec, int count, std::mt19937& rng) {
  Datatype t = spec->type;
  t.commit();
  const std::vector<Segment> segs = oracle_runs(*spec);
  const std::size_t size = t.size();
  const std::int64_t extent = t.extent();
  SCOPED_TRACE(t.describe() + " count " + std::to_string(count));

  // Canonical form: per element and across the message.
  ASSERT_EQ(t.segments(), segs);
  ASSERT_EQ(t.groups(), oracle_groups(segs));
  const std::vector<Segment> full = oracle_message_runs(segs, extent, count);
  const std::vector<StridedGroup> msg = t.message_groups(count);
  ASSERT_EQ(expand(msg), full);
  ASSERT_EQ(msg, oracle_groups(full));

  // Per-send queries.
  ASSERT_EQ(t.total_segments(count), oracle_total(segs, extent, count));
  ASSERT_EQ(t.total_segments(count), segs.empty() ? 0 : full.size());

  // A budgeted build is exact within its budget and over it otherwise.
  for (const std::size_t budget :
       {std::size_t{0}, std::size_t{1}, std::size_t{2},
        msg.empty() ? 0 : msg.size() - 1, msg.size()}) {
    const std::vector<StridedGroup> part = t.message_groups(count, budget);
    if (msg.size() <= budget) {
      ASSERT_EQ(part, msg) << "budget " << budget;
    } else {
      ASSERT_GT(part.size(), budget);
    }
  }

  // Plan classification and sub-patterns.
  const auto plan = PackPlan::build(t, count);
  const OraclePlan want = oracle_plan(full);
  ASSERT_EQ(plan->layout(), want.layout);
  ASSERT_EQ(plan->dense_offset(), want.dense_offset);
  ASSERT_EQ(plan->subpatterns(), want.subpatterns);
  ASSERT_EQ(plan->total_segments(), oracle_total(segs, extent, count));

  // Cursors at every chunk boundary, and the plan's chunk tables.
  const std::size_t packed = size * static_cast<std::size_t>(count);
  if (packed == 0) return;
  std::vector<std::size_t> prefix{0};
  for (const Segment& s : segs) prefix.push_back(prefix.back() + s.length);
  const auto run_index = [&](std::size_t off) {
    const PackCursor c = oracle_cursor(prefix, size, off);
    return c.elem * segs.size() + c.seg;
  };
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{3}, segs[0].length, packed / 3 + 1,
        1 + rng() % packed}) {
    if (packed / chunk > 4096) continue;
    std::vector<PackCursor> cursors;
    std::vector<std::size_t> counts;
    for (std::size_t off = 0; off < packed; off += chunk) {
      const std::size_t len = std::min(chunk, packed - off);
      cursors.push_back(oracle_cursor(prefix, size, off));
      counts.push_back(run_index(off + len - 1) - run_index(off) + 1);
      ASSERT_EQ(t.cursor_at(count, off), cursors.back()) << "offset " << off;
    }
    const auto table = plan->chunk_cursors(chunk);
    ASSERT_EQ(table->cursors, cursors) << "chunk " << chunk;
    ASSERT_EQ(table->segments, counts) << "chunk " << chunk;
  }
  ASSERT_EQ(t.cursor_at(count, packed), oracle_cursor(prefix, size, packed));

  // Host pack against the reference runs (offsets may be negative, so the
  // source buffer is shifted to cover every run of every element).
  std::int64_t lo = 0, hi = 0;
  for (const Segment& s : full) {
    lo = std::min(lo, s.offset);
    hi = std::max(hi, s.offset + static_cast<std::int64_t>(s.length));
  }
  std::vector<std::byte> buf(static_cast<std::size_t>(hi - lo));
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xFF);
  const std::byte* src = buf.data() - lo;
  std::vector<std::byte> got(packed);
  t.pack(src, count, got.data());
  ASSERT_EQ(got, oracle_pack(segs, extent, count, src));
}

// One layout — R rows of B int32s every S int32s — in one of several
// spellings. The extent is that of vector(R, B, S) in every spelling.
Datatype spell(int spelling, int r, int b, int s) {
  const Datatype i32 = Datatype::int32();
  const std::int64_t extent = (static_cast<std::int64_t>(r - 1) * s + b) * 4;
  std::vector<int> displs, lens;
  std::vector<std::int64_t> byte_displs;
  std::vector<Datatype> types;
  for (int i = 0; i < r; ++i) {
    displs.push_back(i * s);
    lens.push_back(b);
    byte_displs.push_back(static_cast<std::int64_t>(i) * s * 4);
    types.push_back(i32);
  }
  switch (spelling) {
    case 0:
      return Datatype::vector(r, b, s, i32);
    case 1:  // vector of contiguous rows
      return Datatype::hvector(r, 1, std::int64_t{s} * 4,
                               Datatype::contiguous(b, i32));
    case 2: {  // subarray of the full R x S array, trimmed to the extent
      const std::array<int, 2> sizes{r, s}, subs{r, b}, starts{0, 0};
      return Datatype::resized(
          Datatype::subarray(sizes, subs, starts, ArrayOrder::kC, i32), 0,
          extent);
    }
    case 3:
      return Datatype::indexed_block(b, displs, i32);
    case 4:
      return Datatype::create_struct(lens, byte_displs, types);
    default:  // hvector of two-row vectors (one row left over when R is odd)
      if (r % 2 == 0) {
        return Datatype::hvector(r / 2, 1, std::int64_t{2} * s * 4,
                                 Datatype::vector(2, b, s, i32));
      }
      return Datatype::hindexed(lens, byte_displs, i32);
  }
}

using OracleKey = std::tuple<std::size_t, std::int64_t, std::vector<Segment>>;

OracleKey oracle_key(const Datatype& t, const std::vector<Segment>& runs) {
  return {t.size(), t.extent(), runs};
}

}  // namespace

TEST(DatatypeCanonical, RandomTreesMatchReferenceFlattener) {
  TreeGen gen(20261017);
  std::mt19937 rng(7);
  for (int iter = 0; iter < 400; ++iter) {
    const SpecPtr spec = gen.tree(3);
    if (spec->type.size() > (std::size_t{1} << 16)) continue;
    for (int count = 1; count <= 3; ++count) {
      check_against_oracle(spec, count, rng);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DatatypeCanonical, SignatureEqualExactlyWhenRunListsEqual) {
  std::mt19937 rng(424242);
  const auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  int equal = 0, unequal = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const int r = 1 + pick(6), b = 1 + pick(4), s = b + pick(4);
    const bool same = pick(2) == 0;
    const int r2 = same ? r : 1 + pick(6);
    const int b2 = same ? b : 1 + pick(4);
    const int s2 = same ? s : b2 + pick(4);
    Datatype x = spell(pick(6), r, b, s);
    Datatype y = spell(pick(6), r2, b2, s2);
    x.commit();
    y.commit();
    const bool runs_equal =
        oracle_key(x, x.segments()) == oracle_key(y, y.segments());
    ASSERT_EQ(PackPlan::signature_of(x) == PackPlan::signature_of(y),
              runs_equal)
        << x.describe() << " vs " << y.describe();
    (runs_equal ? equal : unequal)++;
  }
  // Random trees: rebuilt from the same draws they must match, otherwise
  // signature equality must follow the reference run lists.
  for (int iter = 0; iter < 300; ++iter) {
    const std::uint32_t seed = rng();
    const SpecPtr a = TreeGen(seed).tree(3);
    const SpecPtr a2 = TreeGen(seed).tree(3);
    const SpecPtr c = TreeGen(rng()).tree(2);
    for (const SpecPtr& other : {a2, c}) {
      Datatype x = a->type, y = other->type;
      x.commit();
      y.commit();
      const bool runs_equal = oracle_key(x, oracle_runs(*a)) ==
                              oracle_key(y, oracle_runs(*other));
      ASSERT_EQ(PackPlan::signature_of(x) == PackPlan::signature_of(y),
                runs_equal)
          << x.describe() << " vs " << y.describe();
      (runs_equal ? equal : unequal)++;
    }
  }
  EXPECT_GT(equal, 300);
  EXPECT_GT(unequal, 300);
}

TEST(DatatypeCanonical, HugeStridedColumnCommitsToOneGroup) {
  Datatype t = Datatype::vector(1 << 24, 1, 2, Datatype::int32());
  t.commit();
  ASSERT_EQ(t.groups().size(), 1u);
  EXPECT_EQ(t.groups()[0], (StridedGroup{0, std::size_t{1} << 24, 4, 8, 0}));
  EXPECT_EQ(t.total_segments(1), std::size_t{1} << 24);
  // Above the run cap one group is still a batched 2-D copy.
  const auto plan = PackPlan::build(t, 1);
  EXPECT_EQ(plan->layout(), LayoutClass::kSubPatterned);
  ASSERT_NE(plan->single_group(), nullptr);
  EXPECT_EQ(*plan->single_group(), t.groups()[0]);
  EXPECT_EQ(t.cursor_at(1, 4 * 1000 + 3), (PackCursor{0, 1000, 3}));
  // The last row of one element abuts the first row of the next.
  EXPECT_EQ(t.total_segments(2), (std::size_t{2} << 24) - 1);
}

TEST(DatatypeCanonical, BudgetedMessageGroupsStopEarly) {
  // Alternating 4- and 8-byte runs: every run of a 4M-element message is
  // its own group, so the full form has 8M groups. A build budgeted at one
  // group stops after three, and the plan is irregular without building
  // them all.
  const std::array<int, 2> lens{1, 2};
  const std::array<int, 2> displs{0, 4};
  Datatype t = Datatype::resized(
      Datatype::indexed(lens, displs, Datatype::int32()), 0, 64);
  t.commit();
  constexpr int kCount = 1 << 22;
  EXPECT_EQ(t.message_groups(kCount, 1).size(), 3u);
  const auto plan = PackPlan::build(t, kCount);
  EXPECT_EQ(plan->layout(), LayoutClass::kIrregular);
  EXPECT_TRUE(plan->subpatterns().empty());
}
