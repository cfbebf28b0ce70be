#include "core/pack_plan.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace mv2gnc::core {

namespace {

using mpisim::Datatype;
using mpisim::PackCursor;

// Above this many flattened runs only a single strided group is worth
// lowering to 2-D copies; anything else goes to the generalized kernel.
constexpr std::size_t kMaxExpandedRuns = std::size_t{1} << 16;

// A decomposition only beats the per-row generalized kernel when each 2-D
// copy amortizes its launch over enough rows.
constexpr std::size_t kMinAvgRowsPerSubPattern = 4;

// Most groups a kSubPatterned layout of `runs` runs may have.
std::size_t group_budget(std::size_t runs) {
  if (runs > kMaxExpandedRuns) return 1;
  return std::max<std::size_t>(2, runs / kMinAvgRowsPerSubPattern);
}

}  // namespace

// FNV-1a over the canonical group form. The grouping is a function of the
// merged run list and expands back to it, so two trees hash alike exactly
// when their run lists (and size and extent) match: contiguous within
// contiguous folds, vector-of-vector collapses, struct-vs-hindexed
// spellings of one layout dedupe.
std::uint64_t PackPlan::signature_of(const Datatype& dtype) {
  constexpr std::uint64_t kBasis = 14695981039346656037ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kBasis;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= kPrime;
    }
  };
  mix(static_cast<std::uint64_t>(dtype.size()));
  mix(static_cast<std::uint64_t>(dtype.extent()));
  const auto& groups = dtype.groups();
  mix(groups.size());
  for (const SubPattern& g : groups) {
    mix(static_cast<std::uint64_t>(g.first_offset));
    mix(g.rows);
    mix(g.block);
    mix(static_cast<std::uint64_t>(g.stride));
  }
  return h;
}

std::shared_ptr<const PackPlan> PackPlan::build(const Datatype& dtype,
                                                int count) {
  if (!dtype.valid() || !dtype.committed()) {
    throw std::logic_error("PackPlan: datatype must be committed");
  }
  auto plan = std::shared_ptr<PackPlan>(new PackPlan());
  plan->dtype_ = dtype;
  plan->count_ = count;
  plan->elem_size_ = dtype.size();
  plan->extent_ = dtype.extent();
  plan->packed_bytes_ =
      plan->elem_size_ * static_cast<std::size_t>(std::max(count, 0));
  plan->signature_ = signature_of(dtype);
  plan->total_segments_ = count > 0 ? dtype.total_segments(count) : 0;

  // The one classification rule, over the message's canonical groups. The
  // group build stops at the budget, so it never walks every run.
  const std::size_t budget = group_budget(plan->total_segments_);
  std::vector<SubPattern> groups = dtype.message_groups(count, budget);
  if (groups.empty()) {
    plan->layout_ = LayoutClass::kContiguous;
  } else if (groups.size() == 1 && groups.front().rows == 1) {
    plan->layout_ = LayoutClass::kContiguous;
    plan->dense_offset_ = groups.front().first_offset;
  } else if (groups.size() <= budget) {
    plan->layout_ = LayoutClass::kSubPatterned;
    plan->subpatterns_ = std::move(groups);
  } else {
    plan->layout_ = LayoutClass::kIrregular;
  }
  return plan;
}

std::size_t PackPlan::segments_in_range(std::size_t offset,
                                        std::size_t bytes) const {
  if (bytes == 0 || elem_size_ == 0) return 0;
  if (offset > packed_bytes_ || bytes > packed_bytes_ - offset) {
    throw std::out_of_range("PackPlan::segments_in_range: range outside");
  }
  const std::size_t nsegs = dtype_.total_segments(1);  // runs per element
  const auto run_index = [&](std::size_t off) {
    const PackCursor c = dtype_.cursor_at(count_, off);
    return c.elem * nsegs + c.seg;
  };
  return run_index(offset + bytes - 1) - run_index(offset) + 1;
}

std::shared_ptr<const PackPlan::ChunkCursors> PackPlan::chunk_cursors(
    std::size_t chunk) const {
  if (chunk == 0) throw std::invalid_argument("chunk_cursors: zero chunk");
  if (chunk > packed_bytes_) chunk = packed_bytes_;
  std::lock_guard<std::mutex> lock(chunk_mu_);
  auto it = chunk_tables_.find(chunk);
  if (it != chunk_tables_.end()) return it->second;
  auto table = std::make_shared<ChunkCursors>();
  table->chunk = chunk;
  if (packed_bytes_ > 0) {
    table->count = (packed_bytes_ + chunk - 1) / chunk;
    table->cursors.reserve(table->count);
    table->segments.reserve(table->count);
    for (std::size_t i = 0; i < table->count; ++i) {
      const std::size_t off = i * chunk;
      const std::size_t len = std::min(chunk, packed_bytes_ - off);
      table->cursors.push_back(dtype_.cursor_at(count_, off));
      table->segments.push_back(segments_in_range(off, len));
    }
  }
  chunk_tables_.emplace(chunk, table);
  return table;
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

PlanCache& PlanCache::instance() {
  static PlanCache cache(256);
  return cache;
}

void PlanCache::touch(EntryIt it) {
  if (it != lru_.begin()) lru_.splice(lru_.begin(), lru_, it);
}

// Register `nk` as a fast-path alias of `it`, first pruning the entry's
// aliases whose types have died, so per-call types stay bounded.
void PlanCache::add_alias(EntryIt it, const NodeKey& nk,
                          const mpisim::Datatype& dtype) {
  std::erase_if(it->aliases, [&](const NodeKey& k) {
    const auto a = by_node_.find(k);
    if (a == by_node_.end() || a->second.entry != it) return true;
    if (!a->second.node.expired()) return false;
    by_node_.erase(a);
    return true;
  });
  it->aliases.push_back(nk);
  by_node_.emplace(nk, Alias{it, dtype.weak_node()});
}

void PlanCache::evict_excess() {
  while (lru_.size() > capacity_) {
    const EntryIt victim = std::prev(lru_.end());
    for (const NodeKey& k : victim->aliases) {
      const auto a = by_node_.find(k);
      if (a != by_node_.end() && a->second.entry == victim) by_node_.erase(a);
    }
    by_sig_.erase(victim->key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::shared_ptr<const PackPlan> PlanCache::get(const mpisim::Datatype& dtype,
                                               int count) {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeKey nk{dtype.node_id(), count};
  if (auto it = by_node_.find(nk); it != by_node_.end()) {
    if (!it->second.node.expired()) {
      ++stats_.hits;
      touch(it->second.entry);
      return it->second.entry->plan;
    }
    // The aliased type died and its address now names another tree.
    by_node_.erase(it);
  }
  // Fast path missed: the O(groups) signature decides whether a plan with
  // this layout already exists before anything is built.
  const SigKey key{PackPlan::signature_of(dtype), count};
  if (auto it = by_sig_.find(key); it != by_sig_.end()) {
    ++stats_.hits;
    ++stats_.signature_dedups;
    add_alias(it->second, nk, dtype);
    touch(it->second);
    return it->second->plan;
  }
  ++stats_.misses;
  lru_.push_front(Entry{key, PackPlan::build(dtype, count), {}});
  by_sig_.emplace(key, lru_.begin());
  add_alias(lru_.begin(), nk, dtype);
  evict_excess();
  return lru_.front().plan;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::size_t PlanCache::alias_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_node_.size();
}

std::size_t PlanCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void PlanCache::set_capacity(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<std::size_t>(cap, 1);
  evict_excess();
}

void PlanCache::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  by_sig_.clear();
  by_node_.clear();
  stats_ = PlanCacheStats{};
}

}  // namespace mv2gnc::core
