#include "core/sched.hpp"

#include <algorithm>

namespace mv2gnc::core {

namespace {

// Consecutive uncontended grants before the adaptive depth grows a step.
constexpr std::size_t kGrowStreak = 8;

}  // namespace

TransferScheduler::TransferScheduler(sim::Engine& engine, VbufPool& pool,
                                     const Tunables& tun,
                                     TransportRouter& net)
    : engine_(engine),
      pool_(pool),
      tun_(tun),
      net_(net),
      ack_timer_(engine) {
  // Start at the receive window, not the optimistic ceiling: the first
  // transfer of a burst stages before its siblings register, and an
  // opening hoard of the whole pool is exactly what the QoS gate exists
  // to prevent. Calm-time grows earn the extra prefetch depth instead.
  //
  // ECN-only mode (kFifo + ecn_backlog_ns > 0) instead opens at the
  // ceiling: with no QoS gate running, an unmarked pipeline should behave
  // like legacy kFifo, and only fabric marks pull the depth down.
  depth_ = (fair() || !ecn_enabled()) ? depth_init() : depth_max();
}

// ===========================================================================
// Transfer registry
// ===========================================================================

void TransferScheduler::register_transfer(std::uint64_t id) {
  xfers_[id].last_ask = ask_clock_;
  stats_.active_high_water = std::max(stats_.active_high_water, xfers_.size());
}

void TransferScheduler::unregister_transfer(std::uint64_t id) {
  xfers_.erase(id);
  waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), id),
                 waiting_.end());
}

bool TransferScheduler::is_waiting(std::uint64_t id) const {
  const auto it = xfers_.find(id);
  return it != xfers_.end() && it->second.waiting;
}

void TransferScheduler::withdraw(std::uint64_t id) {
  const auto it = xfers_.find(id);
  if (it == xfers_.end() || !it->second.waiting) return;
  it->second.waiting = false;
  waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), id),
                 waiting_.end());
}

// ===========================================================================
// vbuf QoS + fair acquisition
// ===========================================================================

std::size_t TransferScheduler::reserve_effective() const {
  std::size_t r = tun_.vbuf_reserve_per_transfer;
  if (!xfers_.empty()) {
    r = std::min(r, pool_.capacity() / xfers_.size());
  }
  return r;
}

std::size_t TransferScheduler::unmet_reserve_excluding(
    std::uint64_t id) const {
  const std::size_t r = reserve_effective();
  std::size_t unmet = 0;
  for (const auto& [xid, x] : xfers_) {
    if (xid != id && x.held < r) unmet += r - x.held;
  }
  return unmet;
}

void TransferScheduler::prune_waiting() {
  // A transfer that stopped asking moved past its acquisition (acks freed
  // its own slots, or it finished); its queue entry must not gate live
  // claimants. The window is generous — every active transfer re-asks on
  // each progress pass, so a live waiter's stamp stays recent.
  const std::uint64_t window = 4 * xfers_.size() + 16;
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    auto xit = xfers_.find(*it);
    if (xit == xfers_.end() || !xit->second.waiting ||
        ask_clock_ - xit->second.last_ask > window) {
      if (xit != xfers_.end()) xit->second.waiting = false;
      it = waiting_.erase(it);
    } else {
      ++it;
    }
  }
}

void TransferScheduler::grant(std::uint64_t id, Xfer& x, bool from_reserve) {
  if (x.waiting) {
    stats_.queue_waits += 1;
    stats_.queue_wait_ns += engine_.now() - x.wait_since;
    x.waiting = false;
    waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), id),
                   waiting_.end());
  }
  if (from_reserve) ++stats_.grants_reserve;
  else ++stats_.grants_overflow;
  // Adaptive depth, grow side: sustained grants with most of the pool free
  // and nobody queued mean the contention that shrank us has passed.
  if (waiting_.empty() && pool_.available() * 2 > pool_.capacity()) {
    if (++calm_streak_ >= kGrowStreak && depth_ < depth_max()) {
      ++depth_;
      ++stats_.depth_grows;
      calm_streak_ = 0;
    }
  } else {
    calm_streak_ = 0;
  }
}

void TransferScheduler::deny(std::uint64_t id, Xfer& x, bool pool_contended) {
  ++stats_.denials;
  calm_streak_ = 0;
  if (!x.waiting) {
    x.waiting = true;
    x.wait_since = engine_.now();
    waiting_.push_back(id);
  }
  // Adaptive depth, shrink side: the pool (or the reserves carved from it)
  // cannot cover current demand — halve every transfer's pipeline depth so
  // in-flight chunks, and the slots pinned under them, thin out. Floor at
  // the pool's fair share (capacity / active transfers), but never below 2
  // (double buffering): below the share the shrink cannot relieve
  // contention, it only idles pool slots, and depth 1 serializes staging
  // with transmission — hoarding is the QoS gate's problem, not depth's.
  // Rate limited to one shrink per sweep of the active set, else a single
  // drained-pool episode would collapse depth to the floor in one pass.
  const std::size_t floor = std::max<std::size_t>(
      2, pool_.capacity() / std::max<std::size_t>(1, xfers_.size()));
  if (pool_contended && depth_ > floor &&
      ask_clock_ - last_shrink_ask_ > xfers_.size()) {
    depth_ = std::max(floor, depth_ / 2);
    ++stats_.depth_shrinks;
    last_shrink_ask_ = ask_clock_;
  }
}

bool TransferScheduler::may_acquire(std::uint64_t id) {
  if (!fair()) return true;
  const auto it = xfers_.find(id);
  if (it == xfers_.end()) return true;  // unregistered caller: legacy rules
  Xfer& x = it->second;
  x.last_ask = ++ask_clock_;
  const std::size_t avail = pool_.available();
  if (avail == 0) {
    deny(id, x, /*pool_contended=*/true);
    return false;
  }
  // Reserve region: below its guaranteed minimum a transfer always gets
  // the slot (reserves cannot collide — their sum is bounded by capacity).
  const std::size_t r = reserve_effective();
  if (x.held < r) {
    grant(id, x, /*from_reserve=*/true);
    return true;
  }
  // Overflow region: never dip into slots other transfers' unmet reserves
  // are entitled to, and hand out scarce spare slots in strict round-robin
  // turn order.
  const std::size_t unmet = unmet_reserve_excluding(id);
  if (avail <= unmet) {
    deny(id, x, /*pool_contended=*/true);
    return false;
  }
  const std::size_t spare = avail - unmet;
  prune_waiting();
  if (!waiting_.empty() && spare <= waiting_.size() && waiting_.front() != id) {
    deny(id, x, /*pool_contended=*/false);
    return false;
  }
  grant(id, x, /*from_reserve=*/false);
  return true;
}

void TransferScheduler::note_acquired(std::uint64_t id) {
  const auto it = xfers_.find(id);
  if (it != xfers_.end()) ++it->second.held;
}

void TransferScheduler::note_released(std::uint64_t id) {
  const auto it = xfers_.find(id);
  if (it != xfers_.end() && it->second.held > 0) --it->second.held;
}

// ===========================================================================
// Adaptive pipeline depth
// ===========================================================================

std::size_t TransferScheduler::depth_max() const {
  // Staging ahead of the receiver's window is useful prefetch (D2H of
  // later chunks overlaps RDMA of earlier ones), so the optimistic ceiling
  // is the larger of the window and the pool — an uncontended transfer may
  // fill the pool exactly as it would under kFifo; the shrink side takes
  // over when concurrency makes that hoarding.
  return std::max<std::size_t>(
      1, std::max(tun_.recv_window, pool_.capacity()));
}

std::size_t TransferScheduler::depth_init() const {
  return std::max<std::size_t>(1, tun_.recv_window);
}

std::size_t TransferScheduler::inflight_cap() const {
  if (!fair()) {
    // ECN feedback drives the depth even under kFifo: fabric congestion
    // must be able to throttle the pipeline no matter the vbuf policy.
    // Otherwise legacy behavior: unbounded, no adaptation.
    return ecn_enabled() ? depth_ : std::numeric_limits<std::size_t>::max();
  }
  // A solo transfer runs at the optimistic ceiling (fifo parity). With
  // company, the static part of the cap drops to the receive window (or
  // the pool's fair share when that is larger): newly arrived transfers
  // must not wait for the reactive shrink before early starters stop
  // pre-staging the whole pool.
  std::size_t ceiling = depth_max();
  if (xfers_.size() > 1) {
    ceiling = std::min(
        ceiling,
        std::max(tun_.recv_window, pool_.capacity() / xfers_.size()));
  }
  return std::min(depth_, ceiling);
}

// ===========================================================================
// ECN congestion feedback
// ===========================================================================

void TransferScheduler::note_chunk_ack(std::uint64_t id, bool congested) {
  if (!ecn_enabled()) return;
  ++ecn_ack_clock_;
  if (congested) {
    ++stats_.ecn_marks;
    const auto it = xfers_.find(id);
    if (it != xfers_.end()) ++it->second.ecn_marks;
    ecn_clean_streak_ = 0;
    // Multiplicative decrease, floor 1: unlike pool contention (where a
    // depth below double buffering only idles slots), a congested link is
    // an external resource — backing all the way off is the right answer
    // under persistent incast. Rate-limited to one halving per depth's
    // worth of acks: every chunk of one congested window carries a mark,
    // and they all describe the same episode.
    if (depth_ > 1 && (last_ecn_shrink_ack_ == 0 ||
                       ecn_ack_clock_ - last_ecn_shrink_ack_ > depth_)) {
      depth_ = std::max<std::size_t>(1, depth_ / 2);
      ++stats_.depth_shrinks_ecn;
      ++stats_.depth_shrinks;
      last_ecn_shrink_ack_ = ecn_ack_clock_;
    }
  } else {
    // Hysteresis growth: a full ecn_restore_chunks run of clean acks earns
    // one step back (additive increase), so a transient mark costs real
    // smoke-clearing time before the pipeline re-opens.
    if (++ecn_clean_streak_ >= tun_.ecn_restore_chunks) {
      ecn_clean_streak_ = 0;
      if (depth_ < depth_max()) {
        ++depth_;
        ++stats_.depth_grows_ecn;
        ++stats_.depth_grows;
      }
    }
  }
}

std::uint64_t TransferScheduler::transfer_ecn_marks(std::uint64_t id) const {
  const auto it = xfers_.find(id);
  return it == xfers_.end() ? 0 : it->second.ecn_marks;
}

// ===========================================================================
// Ack/credit coalescing
// ===========================================================================

void TransferScheduler::queue_ack(int peer, const AckBatchEntry& entry,
                                  std::size_t flush_after) {
  PendingAck p;
  p.peer = peer;
  p.entry = entry;
  p.deadline = engine_.now() + tun_.ack_coalesce_window_ns;
  pending_.push_back(p);
  if (flush_after > 0) {
    // Credit-flow valve: enough of this transfer's credits are pending
    // that the sender may be about to stall on them — send them now.
    std::size_t same = 0;
    for (const PendingAck& q : pending_) {
      if (q.peer == peer && q.entry.sender_req == entry.sender_req) ++same;
    }
    if (same >= flush_after) {
      flush_peer_impl(peer, /*piggyback=*/false);
      return;
    }
  }
  rearm_ack_timer();
}

void TransferScheduler::poll() {
  const sim::SimTime now = engine_.now();
  while (!pending_.empty() && pending_.front().deadline <= now) {
    // Flushing a peer takes everything pending for it, including entries
    // whose window has not expired yet — flushing a credit early is always
    // safe, and it maximizes what the one message carries.
    flush_peer_impl(pending_.front().peer, /*piggyback=*/false);
  }
  rearm_ack_timer();
}

void TransferScheduler::flush_peer_impl(int peer, bool piggyback) {
  std::vector<AckBatchEntry> batch;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->peer == peer) {
      batch.push_back(it->entry);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  if (batch.empty()) return;
  if (piggyback) stats_.ack_piggybacks += batch.size();
  netsim::WireMessage msg;
  msg.seq = ctrl_seq_++;
  if (batch.size() == 1) {
    // A lone ack goes out in the legacy format: no batch framing overhead,
    // and a peer predating kChunkAckBatch still understands it.
    const AckBatchEntry& e = batch.front();
    msg.kind = kChunkAck;
    msg.flow = e.sender_req;
    msg.header[0] = e.sender_req;
    msg.header[1] = e.chunk_idx;
    msg.header[2] = e.slot_idx;
    msg.header[3] = e.credit_seq;
    msg.header[4] = e.congested ? 1 : 0;
    if (e.slot_idx != kNoSlot) append_address(msg.payload, e.slot_addr);
    note_ctrl(kChunkAck);
  } else {
    msg.kind = kChunkAckBatch;
    msg.header[0] = batch.size();
    for (const AckBatchEntry& e : batch) append_ack_entry(msg.payload, e);
    ++stats_.ack_batches;
    stats_.acks_coalesced += batch.size();
    note_ctrl(kChunkAckBatch);
  }
  net_.post_send(peer, std::move(msg));
  rearm_ack_timer();
}

void TransferScheduler::drop_pending(int peer, std::uint64_t sender_req) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->peer == peer && it->entry.sender_req == sender_req) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  rearm_ack_timer();
}

void TransferScheduler::rearm_ack_timer() {
  if (pending_.empty()) {
    ack_timer_.cancel();
    return;
  }
  const sim::SimTime at = pending_.front().deadline;
  if (ack_timer_.armed() && ack_timer_.deadline() == at) return;
  sim::Notifier* n = notifier_;
  // Wake-up only; the flush itself runs in poll() on the progress loop.
  ack_timer_.arm(at, [n] {
    if (n != nullptr) n->notify();
  });
}

// ===========================================================================
// Observability
// ===========================================================================

void TransferScheduler::note_ctrl(int kind) {
  if (kind >= 0 && static_cast<std::size_t>(kind) < SchedStats::kMaxKind) {
    ++stats_.ctrl_by_kind[static_cast<std::size_t>(kind)];
  }
  if (kind == kChunkAck) ++stats_.acks_individual;
}

}  // namespace mv2gnc::core
