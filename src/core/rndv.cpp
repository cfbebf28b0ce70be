#include "core/rndv.hpp"

#include <algorithm>
#include <limits>

#include "core/sched.hpp"
#include "sim/asan.hpp"
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace mv2gnc::core {

namespace detail {

StagingSlot acquire_slot(VbufPool& pool, cusim::CudaContext& cuda,
                         std::size_t bytes) {
  StagingSlot s;
  if (bytes <= pool.buffer_bytes()) {
    s.ptr = pool.try_acquire();
    s.from_pool = (s.ptr != nullptr);
    return s;  // ptr may be null: pool exhausted, caller stalls
  }
  // A chunk larger than a vbuf (the model picks one for every message of
  // 1 MB or more): the smallest idle spare that fits, else a fresh pinned
  // buffer of one chunk.
  const VbufPool::Spare spare = pool.take_spare(bytes);
  if (spare.ptr == nullptr) return pinned_slot(cuda, bytes);
  s.ptr = spare.ptr;
  s.bytes = spare.bytes;
  s.host_owner = &cuda;
  return s;
}

void release_slot(VbufPool& pool, StagingSlot& slot) {
  if (slot.ptr != nullptr) {
    if (slot.from_pool) {
      pool.release(slot.ptr);
    } else if (slot.host_owner != nullptr) {
      VbufPool::Spare out{slot.ptr, slot.bytes};
      if (slot.bytes > pool.buffer_bytes()) out = pool.park_spare(out);
      slot.host_owner->free_host(out.ptr);  // cudaFreeHost(nullptr): no-op
    } else if (slot.device_owner != nullptr) {
      slot.device_owner->free(slot.ptr);
    }
  }
  slot = StagingSlot{};
}

// Pinned one-off slot, also used when the pool is empty but progress must
// be guaranteed (first receive-window slot).
StagingSlot pinned_slot(cusim::CudaContext& cuda, std::size_t bytes) {
  StagingSlot s;
  s.ptr = static_cast<std::byte*>(cuda.malloc_host(bytes));
  s.bytes = bytes;
  s.host_owner = &cuda;
  return s;
}

void drop_spares(VbufPool& pool, cusim::CudaContext& cuda) {
  for (const VbufPool::Spare& s : pool.close_spares()) cuda.free_host(s.ptr);
}

void drop_staging(DeviceStaging& staging, cusim::CudaContext& cuda) {
  if (staging.ptr != nullptr && !staging.busy) {
    ASAN_UNPOISON_MEMORY_REGION(staging.ptr, staging.bytes);
    cuda.free(staging.ptr);
  }
  staging = DeviceStaging{};
}

}  // namespace detail

namespace {

// The rank's staging buffer if idle, else a one-off cudaMalloc. Growth
// frees and clears first, so a DeviceError leaves no dangling record.
std::byte* acquire_staging(RankResources& res, std::size_t bytes) {
  DeviceStaging* st = res.staging;
  if (st->busy) return static_cast<std::byte*>(res.cuda->malloc(bytes));
  if (st->bytes < bytes) {
    detail::drop_staging(*st, *res.cuda);
    st->ptr = static_cast<std::byte*>(res.cuda->malloc(bytes));
    st->bytes = bytes;
  }
  // Idle, it is poisoned: ASan still sees a use after release.
  ASAN_UNPOISON_MEMORY_REGION(st->ptr, st->bytes);
  st->busy = true;
  return st->ptr;
}

// The staging buffer goes idle; a one-off is freed.
void release_staging(RankResources& res, std::byte*& buf) {
  DeviceStaging* st = res.staging;
  if (buf != nullptr && buf == st->ptr) {
    st->busy = false;
    ASAN_POISON_MEMORY_REGION(st->ptr, st->bytes);
  } else {
    res.cuda->free(buf);  // cudaFree(nullptr) is a no-op
  }
  buf = nullptr;
}

// A buffer a queued peer copy may still write goes to the graveyard; the
// staging record is cleared so no stale copy lands in a later transfer.
void park_staging(RankResources& res, std::byte*& buf) {
  if (buf == res.staging->ptr) *res.staging = {};
  res.slot_graveyard->push_back({.ptr = buf, .device_owner = res.cuda});
  buf = nullptr;
}

// Scheduler-aware slot acquisition: the QoS/fairness gate rules first
// (unless `gated` is false — guaranteed-progress slots bypass it), then the
// pool, with the take accounted against the transfer. Oversized chunks
// never take a vbuf (they stage through a recycled pinned spare), so they
// bypass the gate too.
detail::StagingSlot sched_acquire(RankResources& res, std::uint64_t id,
                                  std::size_t bytes, bool gated = true) {
  if (gated && res.sched != nullptr && bytes <= res.vbufs->buffer_bytes() &&
      !res.sched->may_acquire(id)) {
    return {};
  }
  detail::StagingSlot s = detail::acquire_slot(*res.vbufs, *res.cuda, bytes);
  if (s.from_pool && res.sched != nullptr) res.sched->note_acquired(id);
  return s;
}

// The transfer stopped wanting a slot (depth-capped, staging finished,
// window advertised): drop any queued fairness turn so freed slots are
// not held idle for it.
void sched_withdraw(RankResources& res, std::uint64_t id) {
  if (res.sched != nullptr) res.sched->withdraw(id);
}

// Release counterpart: returns the slot and updates the transfer's held
// count (a no-op for pinned one-offs and unregistered transfers).
void sched_release(RankResources& res, std::uint64_t id,
                   detail::StagingSlot& slot) {
  const bool pooled = slot.from_pool && slot.ptr != nullptr;
  detail::release_slot(*res.vbufs, slot);
  if (pooled && res.sched != nullptr) res.sched->note_released(id);
}

// Exact memcpy count of chunk i ([off, off+bytes)): the plan's cursor
// table when the chunk is one of its chunks, else a plan range query.
std::size_t chunk_segments(const MsgView& msg,
                           const PackPlan::ChunkCursors* table, std::size_t i,
                           std::size_t off, std::size_t bytes) {
  if (table != nullptr && i < table->count && off == i * table->chunk) {
    const std::size_t expect =
        std::min(table->chunk, msg.plan->packed_bytes() - off);
    if (bytes == expect) return table->segments[i];
  }
  return msg.plan->segments_in_range(off, bytes);
}

// Figure-2 scheme choice for a device-resident non-contiguous message.
bool select_offload(const RankResources& res, const MsgView& msg) {
  const Tunables& tun = *res.tun;
  // Layouts other than one strided group always take the offload path:
  // there is no single cudaMemcpy2D that can walk them across PCIe.
  if (msg.plan->single_group() == nullptr) return true;
  // Model-driven, with gpu_offload=false kept as a hard ablation override
  // (the paper's nc2c measurement runs).
  if (!tun.gpu_offload || res.cuda == nullptr) return false;
  return model_prefers_offload(res.cuda->device().cost(), msg);
}

// Pipeline chunk size (§IV-B): one degenerate chunk at or below the
// threshold, otherwise model-optimized or the fixed tunable.
std::size_t select_chunk(const RankResources& res, const MsgView& msg,
                         bool offload_path) {
  const Tunables& tun = *res.tun;
  if (!tun.pipelining || msg.packed_bytes <= tun.pipeline_threshold) {
    return msg.packed_bytes;  // n = 1: degenerate (unpipelined) transfer
  }
  if (msg.on_device && tun.chunk_select == ChunkSelect::kModel &&
      res.cuda != nullptr) {
    return select_chunk_bytes(res.cuda->device().cost(), msg, offload_path,
                              tun.chunk_bytes);
  }
  return align_chunk_to_pattern(msg, tun.chunk_bytes);
}

// A cusim IPC memory handle, flattened into a control-message payload
// (device-direct CTS: the landing address crosses as a handle, not a raw
// pointer, and the sender must open it).
void append_ipc_handle(std::vector<std::byte>& payload,
                       const cusim::IpcMemHandle& h) {
  const std::uint64_t words[4] = {h.device, h.base, h.size, h.offset};
  const auto* p = reinterpret_cast<const std::byte*>(words);
  payload.insert(payload.end(), p, p + sizeof(words));
}

cusim::IpcMemHandle read_ipc_handle(const std::vector<std::byte>& payload) {
  std::uint64_t words[4] = {};
  if (payload.size() < sizeof(words)) {
    throw std::logic_error("read_ipc_handle: truncated payload");
  }
  std::memcpy(words, payload.data(), sizeof(words));
  cusim::IpcMemHandle h;
  h.device = words[0];
  h.base = words[1];
  h.size = words[2];
  h.offset = words[3];
  return h;
}

// Absolute deadline for retry number `retries`: base timeout grown by
// kRndvBackoffFactor, clamped so an extreme retry count cannot overflow
// SimTime (the cap is ~11 virtual days; transfers fail long before).
sim::SimTime backoff_deadline(const Tunables& tun, std::size_t retries,
                              sim::SimTime now) {
  const double scale =
      std::pow(kRndvBackoffFactor, static_cast<double>(retries));
  double delay_ns = static_cast<double>(tun.rndv_timeout_ns) * scale;
  if (!(delay_ns < 1e15)) delay_ns = 1e15;
  return now + static_cast<sim::SimTime>(delay_ns);
}

}  // namespace

ChunkPlan ChunkPlan::make(std::size_t total, std::size_t chunk) {
  if (total == 0) throw std::invalid_argument("ChunkPlan: empty message");
  if (chunk == 0) throw std::invalid_argument("ChunkPlan: zero chunk size");
  if (chunk > total) chunk = total;
  ChunkPlan p;
  p.total = total;
  p.chunk = chunk;
  p.count = (total + chunk - 1) / chunk;
  return p;
}

// ===========================================================================
// RndvSend
// ===========================================================================

RndvSend::RndvSend(RankResources& res, MsgView msg, int dst_node,
                   std::uint64_t my_req_id)
    : res_(res),
      msg_(std::move(msg)),
      dst_(dst_node),
      req_id_(my_req_id),
      graph_(res.trig),
      timer_(*res.engine) {
  if (msg_.on_device) {
    if (res_.net != nullptr && res_.net->device_direct(dst_node)) {
      // Intra-node fast path: the peer copy reads device memory directly,
      // so the whole D2H staging stage drops out (collapsed pipeline).
      path_ = msg_.contiguous ? Path::kDeviceIpcContig
                              : Path::kDeviceIpcOffload;
    } else if (msg_.contiguous) {
      path_ = Path::kDeviceContig;
    } else if (select_offload(res_, msg_)) {
      path_ = Path::kDeviceOffload;
    } else {
      path_ = Path::kDevicePcie;
    }
  } else {
    path_ = msg_.contiguous ? Path::kHostContig : Path::kHostPack;
  }
  plan_ = ChunkPlan::make(
      msg_.packed_bytes,
      select_chunk(res_, msg_,
                   path_ == Path::kDeviceOffload ||
                       path_ == Path::kDeviceIpcOffload));
  if (path_ == Path::kHostPack && msg_.packed_bytes > 0) {
    cursors_ = msg_.plan->chunk_cursors(plan_.chunk);
  }
  pack_events_.resize(plan_.count);
  stage_events_.resize(plan_.count);
  slots_.resize(plan_.count);
  stage_submitted_.assign(plan_.count, false);
  posted_.assign(plan_.count, false);
  acked_.assign(plan_.count, false);
  inflight_.assign(plan_.count, 0);
  write_errors_.assign(plan_.count, 0);
  remote_slot_idx_.assign(plan_.count, kNoSlot);
  remote_addr_.assign(plan_.count, nullptr);
  if (res_.sched != nullptr) {
    res_.sched->register_transfer(req_id_);
  }
}

RndvSend::~RndvSend() {
  try {
    timer_.cancel();
    if (res_.sched != nullptr) res_.sched->unregister_transfer(req_id_);
    release_staging(res_, tbuf_);
    if (ipc_mapped_) {
      res_.cuda->ipc_close_mem_handle(direct_base_);
      ipc_mapped_ = false;
    }
    for (auto& s : slots_) detail::release_slot(*res_.vbufs, s);
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void RndvSend::trace_event(const char* category) {
  if (res_.trace != nullptr) {
    res_.trace->event(res_.rank, category, res_.engine->now());
  }
}

void RndvSend::post_ctrl(netsim::WireMessage msg) {
  msg.seq = ctrl_seq_++;
  msg.flow = req_id_;  // hashed routing keys this transfer's path on it
  if (res_.sched != nullptr) {
    res_.sched->note_ctrl(msg.kind);
    // Any control message to the peer is a free ride for credits this
    // rank's receive side is holding back for the same destination.
    res_.sched->flush_peer(dst_);
  }
  res_.net->post_send(dst_, std::move(msg));
}

void RndvSend::start(std::uint64_t tag_word) {
  rts_.kind = kRts;
  rts_.header[0] = tag_word;
  rts_.header[1] = plan_.total;
  rts_.header[2] = req_id_;
  rts_.header[3] = plan_.chunk;
  post_ctrl(rts_);
  build_graph();
  if (path_ == Path::kDeviceOffload || path_ == Path::kDeviceIpcOffload) {
    // Offload the whole pack immediately; it overlaps the RTS/CTS
    // handshake ("the sender ... triggers multiple asynchronous memory
    // copies, each of which does a chunk size non-contiguous data pack").
    tbuf_ = acquire_staging(res_, plan_.total);
    for (std::size_t i = 0; i < plan_.count; ++i) {
      pack_events_[i] = submit_device_pack(
          *res_.cuda, res_.pack_stream, msg_, plan_.offset_of(i),
          plan_.bytes_of(i), tbuf_ + plan_.offset_of(i));
    }
  }
  arm_timer();
  advance();
}

void RndvSend::build_graph() {
  graph_.clear();
  if (res_.trig != nullptr) ++res_.trig->graphs_built;
  // Stage frontier: pack (if any) must have completed; a staging slot must
  // be available. Staging runs regardless of CTS — it overlaps the
  // handshake.
  const int stage = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
  for (std::size_t i = 0; i < plan_.count; ++i) {
    graph_.add_node(stage, [this, i] { return stage_gate(i); },
                    [this, i] {
                      submit_stage(i);
                      ++next_stage_;
                    });
  }
  // Every chunk staged: this transfer asks for nothing more.
  graph_.set_epilogue(stage, [this] {
    if (next_stage_ == plan_.count) sched_withdraw(res_, req_id_);
  });
  // RDMA frontier: needs the CTS (remote landing addresses) and the
  // staged chunk data sitting in host memory.
  const int rdma = graph_.add_chain(TriggerGraph::ChainKind::kFrontier,
                                    [this] { return cts_received_; });
  for (std::size_t i = 0; i < plan_.count; ++i) {
    graph_.add_node(rdma, [this, i] { return rdma_gate(i); },
                    [this, i] {
                      post_chunk_rdma(i, /*retransmit=*/false);
                      ++next_rdma_;
                    });
  }
}

bool RndvSend::stage_gate(std::size_t i) {
  // Pipeline-depth cap: staged-but-unacked chunks (each pinning a slot
  // and a spot in the transmit pipeline) stay within the scheduler's
  // adaptive budget; acks re-drive us as they land. Either refusal means
  // we are not slot-starved right now — withdraw any queued turn.
  const std::size_t cap = (res_.sched != nullptr)
                              ? res_.sched->inflight_cap()
                              : std::numeric_limits<std::size_t>::max();
  if (next_stage_ - acked_count_ >= cap) {
    sched_withdraw(res_, req_id_);
    return false;
  }
  if (path_ == Path::kDeviceOffload || path_ == Path::kDeviceIpcOffload) {
    if (!pack_events_[i].valid() || !pack_events_[i].query()) {
      sched_withdraw(res_, req_id_);
      return false;
    }
  }
  const bool needs_slot = uses_staging();
  if (needs_slot && !slots_[i].valid()) {
    if (force_pinned_) {
      // Stall watchdog verdict: the pool is wedged, take a pinned slot.
      slots_[i] = detail::pinned_slot(*res_.cuda, plan_.bytes_of(i));
      force_pinned_ = false;
    } else {
      slots_[i] = sched_acquire(res_, req_id_, plan_.bytes_of(i));
    }
    if (!slots_[i].valid()) {
      // No slot. If this transfer has unacked chunks holding slots,
      // their acks free slots and re-drive us — stall. If the fairness
      // gate queued us, the granted transfer's progress re-drives the
      // rank and our next ask takes its turn (the stall watchdog bounds
      // the wait). If it holds nothing and is not queued, no event of
      // ours will ever wake us: take a one-off pinned slot so every
      // transfer is guaranteed to progress (this breaks the circular
      // wait when concurrent receive windows have consumed the pool).
      const std::size_t in_flight = next_stage_ - acked_count_;
      const bool gated =
          res_.sched != nullptr && res_.sched->is_waiting(req_id_);
      if (in_flight > 0 || gated) return false;
      slots_[i] = detail::pinned_slot(*res_.cuda, plan_.bytes_of(i));
    }
  }
  return true;
}

bool RndvSend::rdma_gate(std::size_t i) {
  if (!stage_submitted_[i]) return false;
  if (stage_events_[i].valid() && !stage_events_[i].query()) return false;
  if (mode_ == CtsMode::kStaged && remote_slots_.empty()) return false;
  return true;
}

void RndvSend::arm_timer() {
  armed_epoch_ = progress_epoch_;
  const sim::SimTime at =
      backoff_deadline(*res_.tun, retries_, res_.engine->now());
  sim::Notifier* n = res_.notifier;
  // The callback runs in scheduler context: wake the progress loop and
  // nothing else. The retransmission itself happens in-process, in
  // handle_timeout(), driven from the next advance().
  timer_.arm(at, [n] {
    if (n != nullptr) n->notify();
  });
}

void RndvSend::handle_timeout() {
  if (complete_) {
    // Only the direct-mode SEND_DONE handshake is still running; no data
    // event can move the epoch, so every expiry is genuine.
    ++retries_;
    if (res_.retries != nullptr) ++res_.retries->timeouts;
    trace_event("fault_timeout");
    if (retries_ > res_.tun->rndv_max_retries) {
      // Give up — the data itself was fully acked. The receiver recovers
      // on its own: its watchdog force-drains once we fall silent.
      done_given_up_ = true;
      timer_.cancel();
      return;
    }
    post_ctrl(done_);
    if (res_.retries != nullptr) ++res_.retries->send_done_retransmits;
    trace_event("fault_done_retransmit");
    arm_timer();
    return;
  }
  if (progress_epoch_ != armed_epoch_) {
    // The transfer moved since the deadline was armed; this expiry is
    // stale. Fresh deadline, retry budget restored. An RTS_ACK from a
    // receiver that has not posted the matching recv yet lands here too:
    // the handshake is alive, so waiting is not failure.
    retries_ = 0;
    arm_timer();
    return;
  }
  ++retries_;
  if (res_.retries != nullptr) ++res_.retries->timeouts;
  trace_event("fault_timeout");
  if (retries_ > res_.tun->rndv_max_retries) {
    fail("rendezvous " + std::to_string(req_id_) + " to rank " +
         std::to_string(dst_) + " timed out after " +
         std::to_string(res_.tun->rndv_max_retries) + " retransmissions");
    return;
  }
  retransmit_unacked();
  arm_timer();
}

void RndvSend::retransmit_unacked() {
  if (!cts_received_) {
    // Handshake not established (RTS or CTS was lost): resend the stored
    // RTS. The receiver dedups by (src, sender req) and replays its CTS if
    // it already answered.
    post_ctrl(rts_);
    if (res_.retries != nullptr) ++res_.retries->rts_retransmits;
    trace_event("fault_rts_retransmit");
    return;
  }
  bool any = false;
  for (std::size_t i = 0; i < next_rdma_; ++i) {
    if (posted_[i] && !acked_[i] && inflight_[i] == 0) {
      post_chunk_rdma(i, /*retransmit=*/true);
      if (res_.retries != nullptr) ++res_.retries->chunk_retransmits;
      trace_event("fault_chunk_retransmit");
      any = true;
    }
  }
  if (!any) {
    // Nothing unacknowledged on the wire, yet no progress: the transfer is
    // stalled locally. If the stage frontier is starved of staging slots
    // (vbuf pool exhausted, e.g. because the acks that would recycle them
    // were lost on other transfers), degrade to a one-off pinned slot so
    // this transfer keeps moving.
    const bool needs_slot = uses_staging();
    const bool gated =
        res_.sched != nullptr && res_.sched->is_waiting(req_id_);
    if (needs_slot && next_stage_ < plan_.count &&
        !slots_[next_stage_].valid() &&
        (res_.vbufs->available() == 0 || gated)) {
      // Starved of staging slots — pool drained, or the fairness gate kept
      // us queued for a full timeout (the slots it is saving us from are
      // not coming back). Either way, degrade to a one-off pinned slot.
      force_pinned_ = true;
      if (res_.retries != nullptr) ++res_.retries->stall_fallbacks;
      trace_event("fault_stall_fallback");
    }
  }
}

void RndvSend::submit_stage(std::size_t i) {
  const std::size_t off = plan_.offset_of(i);
  const std::size_t bytes = plan_.bytes_of(i);
  switch (path_) {
    case Path::kDeviceOffload:
      res_.cuda->memcpy_async(slots_[i].ptr, tbuf_ + off, bytes,
                              cusim::MemcpyKind::kDeviceToHost,
                              res_.d2h_stream);
      stage_events_[i] = res_.cuda->record_event(res_.d2h_stream);
      break;
    case Path::kDevicePcie:
      stage_events_[i] = submit_pcie_pack_to_host(
          *res_.cuda, res_.d2h_stream, msg_, off, bytes, slots_[i].ptr);
      break;
    case Path::kDeviceContig:
      res_.cuda->memcpy_async(slots_[i].ptr,
                              static_cast<std::byte*>(msg_.base) + off, bytes,
                              cusim::MemcpyKind::kDeviceToHost,
                              res_.d2h_stream);
      stage_events_[i] = res_.cuda->record_event(res_.d2h_stream);
      break;
    case Path::kHostPack:
      // Host packing occupies the CPU (the cost the paper's offload dodges).
      res_.engine->delay(res_.tun->host_pack_time(
          bytes, chunk_segments(msg_, cursors_.get(), i, off, bytes)));
      if (cursors_ && i < cursors_->count && off == i * cursors_->chunk) {
        msg_.dtype.pack_bytes_from(cursors_->cursors[i], msg_.base,
                                   msg_.count, bytes, slots_[i].ptr);
      } else {
        msg_.dtype.pack_bytes(msg_.base, msg_.count, off, bytes,
                              slots_[i].ptr);
      }
      break;
    case Path::kHostContig:
      break;  // zero-copy: the RDMA reads straight from the user buffer
    case Path::kDeviceIpcOffload:
      // No D2H staging — the peer copy reads the packed chunk straight out
      // of the device tbuf. The pack event doubles as the RDMA gate.
      stage_events_[i] = pack_events_[i];
      break;
    case Path::kDeviceIpcContig:
      break;  // zero staging: the peer copy reads the user buffer directly
  }
  stage_submitted_[i] = true;
  note_progress();
}

void RndvSend::post_chunk_rdma(std::size_t i, bool retransmit) {
  const std::size_t off = plan_.offset_of(i);
  const std::size_t bytes = plan_.bytes_of(i);
  const std::byte* src;
  if (path_ == Path::kDeviceIpcOffload) {
    src = tbuf_ + off;  // packed in place on the device; no host staging
  } else if (slots_[i].valid()) {
    src = slots_[i].ptr;
  } else {
    src = static_cast<std::byte*>(msg_.base) + off;
  }
  void* remote = nullptr;
  std::uint64_t slot_idx = kNoSlot;
  if (retransmit) {
    // Same landing address as the original write: the receiver retains the
    // slot until it has acked the chunk AND seen SEND_DONE, so the address
    // is still valid even if the original write already landed.
    remote = remote_addr_[i];
    slot_idx = remote_slot_idx_[i];
  } else if (mode_ == CtsMode::kDirect) {
    remote = direct_base_ + off;
  } else {
    auto [idx, addr] = remote_slots_.front();
    remote_slots_.pop_front();
    slot_idx = idx;
    remote = addr;
  }
  remote_addr_[i] = remote;
  remote_slot_idx_[i] = slot_idx;
  netsim::WireMessage fin;
  fin.kind = kChunkFin;
  fin.seq = ctrl_seq_++;
  fin.flow = req_id_;
  fin.header[0] = peer_req_;
  fin.header[1] = i;
  fin.header[2] = slot_idx;
  fin.header[3] = off;
  fin.header[4] = bytes;
  if (res_.sched != nullptr) res_.sched->note_ctrl(kChunkFin);
  const std::uint64_t wr =
      res_.net->post_rdma_write(dst_, src, remote, bytes, std::move(fin));
  wr_to_chunk_.emplace(wr, i);
  ++inflight_[i];
  posted_[i] = true;
  // Only a FIRST posting counts as progress. A retransmission is our own
  // doing — letting it refresh the retry budget would turn a dead data path
  // into an infinite retransmit loop instead of a bounded failure.
  if (!retransmit) note_progress();
}

void RndvSend::advance() {
  if (!failed_ && !drained() && timer_.fired()) handle_timeout();
  if (complete_ || failed_) return;
  // One firing pass over the dependency graph: each chain's frontier fires
  // every node whose gate yields, in declaration order — exactly the
  // historical frontier loops (see build_graph()).
  graph_.fire();
}

void RndvSend::on_cts(const netsim::WireMessage& m) {
  if (cts_received_ || complete_ || failed_) {
    if (res_.retries != nullptr) ++res_.retries->duplicates_dropped;
    return;
  }
  cts_received_ = true;
  peer_req_ = m.header[1];
  mode_ = static_cast<CtsMode>(m.header[2]);
  if (mode_ == CtsMode::kDirect) {
    if (m.header[4] == 1) {
      // Device-direct landing: the receiver advertised a cusim IPC handle
      // for its device buffer; open it to get a peer-copyable address.
      direct_base_ = static_cast<std::byte*>(
          res_.cuda->ipc_open_mem_handle(read_ipc_handle(m.payload)));
      ipc_mapped_ = true;
    } else {
      direct_base_ = static_cast<std::byte*>(read_address(m.payload, 0));
    }
  } else {
    const std::size_t n = address_count(m.payload);
    for (std::size_t i = 0; i < n; ++i) {
      remote_slots_.emplace_back(i, read_address(m.payload, i));
    }
  }
  note_progress();
  advance();
}

void RndvSend::on_rts_ack() {
  if (cts_received_ || complete_ || failed_) {
    if (res_.retries != nullptr) ++res_.retries->duplicates_dropped;
    return;
  }
  // The RTS is known delivered; the peer simply has no matching recv yet.
  // Moving the epoch makes the pending deadline stale, which restores the
  // retry budget — the sender keeps probing (each probe re-elicits an
  // RTS_ACK or, once matched, the CTS) but only sustained silence counts
  // toward permanent failure.
  note_progress();
}

void RndvSend::on_send_done_ack() {
  if (!done_owed_ || done_acked_) {
    if (res_.retries != nullptr) ++res_.retries->duplicates_dropped;
    return;
  }
  done_acked_ = true;
  timer_.cancel();
}

void RndvSend::on_chunk_ack(const netsim::WireMessage& m) {
  AckBatchEntry e;
  e.sender_req = m.header[0];
  e.chunk_idx = m.header[1];
  e.slot_idx = m.header[2];
  e.credit_seq = m.header[3];
  e.slot_addr = (m.header[2] != kNoSlot) ? read_address(m.payload, 0)
                                         : nullptr;
  e.congested = m.header[4] != 0;
  apply_chunk_ack(e);
}

void RndvSend::apply_chunk_ack(const AckBatchEntry& e) {
  if (complete_ || failed_) return;
  const std::size_t idx = e.chunk_idx;
  if (idx >= plan_.count) return;
  if (acked_[idx]) {
    if (res_.retries != nullptr) ++res_.retries->duplicates_dropped;
    return;
  }
  acked_[idx] = true;
  ++acked_count_;
  note_progress();
  if (res_.sched != nullptr) {
    // ECN echo: the receiver tells us whether this chunk's fin queued past
    // the fabric's backlog threshold; the scheduler turns marks into depth
    // halvings and clean streaks into growth. After the duplicate check,
    // so a replayed ack cannot double-count one congestion episode.
    res_.sched->note_chunk_ack(req_id_, e.congested);
  }
  if (e.slot_idx != kNoSlot) {
    // The freed landing slot rides on the ack (the paper's CREDIT).
    remote_slots_.emplace_back(e.slot_idx, e.slot_addr);
  }
  maybe_release_slot(idx);
  if (maybe_complete()) return;
  advance();
}

bool RndvSend::maybe_complete() {
  // Completion requires every chunk acked AND no write still queued in the
  // transmit pipeline: the fabric copies out of the source buffer when a
  // write drains, so returning control (and buffer ownership) to the
  // application earlier would let it scribble over bytes a duplicate
  // retransmission has yet to pick up. Once the last local CQE is in, any
  // still-undelivered duplicate already carries its final bytes.
  if (acked_count_ != plan_.count) return false;
  for (std::size_t i = 0; i < plan_.count; ++i) {
    if (inflight_[i] != 0) return false;
  }
  complete_transfer();
  return true;
}

void RndvSend::maybe_release_slot(std::size_t i) {
  // A staging slot may only return to the pool once the chunk is acked AND
  // no posted write still references it — the fabric copies out of the
  // buffer when the transmit drains, so releasing under an in-flight
  // (possibly retransmitted) write would hand its memory to another
  // transfer mid-read.
  if (slots_[i].valid() && acked_[i] && inflight_[i] == 0) {
    sched_release(res_, req_id_, slots_[i]);
  }
}

bool RndvSend::on_rdma_complete(std::uint64_t wr_id) {
  auto it = wr_to_chunk_.find(wr_id);
  if (it == wr_to_chunk_.end()) return false;
  const std::size_t i = it->second;
  wr_to_chunk_.erase(it);
  --inflight_[i];
  ++rdma_done_;
  // Deliberately NO note_progress(): a local transmit completion is our own
  // event, not evidence the peer is alive — retransmitted writes would
  // otherwise keep resetting the retry budget forever. Budget refresh comes
  // only from receipts (CTS, acks, RTS_ACK).
  maybe_release_slot(i);
  if (!complete_ && !failed_ && maybe_complete()) return true;
  advance();
  return true;
}

bool RndvSend::on_rdma_error(std::uint64_t wr_id) {
  auto it = wr_to_chunk_.find(wr_id);
  if (it == wr_to_chunk_.end()) return false;
  const std::size_t i = it->second;
  wr_to_chunk_.erase(it);
  --inflight_[i];
  if (complete_ || failed_ || acked_[i]) {
    // A stale duplicate failed; the chunk already made it.
    maybe_release_slot(i);
    if (!complete_ && !failed_) maybe_complete();
    return true;
  }
  if (++write_errors_[i] > res_.tun->rndv_max_retries) {
    fail("RDMA write for chunk " + std::to_string(i) + " of rendezvous " +
         std::to_string(req_id_) + " failed " +
         std::to_string(write_errors_[i]) + " times");
    return true;
  }
  if (res_.retries != nullptr) ++res_.retries->error_retransmits;
  trace_event("fault_error_retransmit");
  post_chunk_rdma(i, /*retransmit=*/true);
  return true;
}

void RndvSend::complete_transfer() {
  complete_ = true;
  res_.net->note_success(dst_);  // failover health: the path delivered
  for (std::size_t i = 0; i < plan_.count; ++i) {
    if (!slots_[i].valid()) continue;
    if (inflight_[i] > 0 && res_.slot_graveyard != nullptr) {
      // A duplicate write still sits in the transmit pipeline and will read
      // this buffer at drain time; park it until the rank tears down.
      res_.slot_graveyard->push_back(std::move(slots_[i]));
      slots_[i] = detail::StagingSlot{};
    } else {
      sched_release(res_, req_id_, slots_[i]);
    }
  }
  // Holds no pool slots and asks for none: out of the QoS head count (a
  // direct-mode SEND_DONE handshake may still be running; it needs no
  // staging resources).
  if (res_.sched != nullptr) res_.sched->unregister_transfer(req_id_);
  // Safe even on the IPC path, where peer copies read the tbuf directly:
  // maybe_complete() required every inflight write's local CQE, and the
  // channel copies the bytes out when the transmit drains — before the CQE
  // is delivered.
  release_staging(res_, tbuf_);
  if (ipc_mapped_) {
    res_.cuda->ipc_close_mem_handle(direct_base_);
    ipc_mapped_ = false;
  }
  if (cts_received_) {
    // Tell the receiver no retransmission can follow, releasing its
    // retained landing slots (and, in direct mode, its request).
    done_.kind = kSendDone;
    done_.header[0] = peer_req_;
    post_ctrl(done_);
  }
  // Direct mode is the one landing where the peer's request hinges on the
  // SEND_DONE (see RndvRecv::request_complete): keep the timer running and
  // retransmit it until the receiver's SEND_DONE_ACK. Everywhere else the
  // message is a best-effort courtesy — the receiver's own watchdog
  // reclaims its state if it is lost — and the receiver is not guaranteed
  // to still be polling, so retransmitting could never terminate.
  done_owed_ = cts_received_ && mode_ == CtsMode::kDirect;
  if (done_owed_) {
    retries_ = 0;
    arm_timer();
  } else {
    timer_.cancel();
  }
}

void RndvSend::fail(const std::string& reason) {
  res_.net->note_failure(dst_);  // failover health: retry budget exhausted
  if (res_.retries != nullptr) ++res_.retries->transfer_failures;
  trace_event("fault_transfer_failed");
  if (cts_received_) {
    // Best effort: a matched receiver fails immediately instead of waiting
    // out its watchdog. If this is lost the watchdog still bounds the wait.
    netsim::WireMessage abort;
    abort.kind = kSendAbort;
    abort.header[0] = peer_req_;
    post_ctrl(std::move(abort));
    trace_event("fault_send_abort");
  }
  abandon(reason);
}

void RndvSend::cancel(const std::string& reason) {
  if (failed_ || (done() && drained())) return;
  trace_event("fault_send_canceled");
  // Retraction, best effort but always sent: a canceled send whose RTS is
  // parked unmatched in the peer's unexpected queue would otherwise be
  // re-acked on every retransmission, resetting our retry budget forever
  // (the ack legitimately means "handshake alive" for a receiver that just
  // has not posted yet). header[1] carries our request id so the peer can
  // purge the parked RTS even though it never assigned a receiver id.
  netsim::WireMessage abort;
  abort.kind = kSendAbort;
  abort.header[0] = peer_req_;  // 0 until a CTS arrived
  abort.header[1] = req_id_;
  post_ctrl(std::move(abort));
  abandon(reason);
}

// Shared terminal path of fail() and cancel(): mark failed, stop the
// watchdog, and dispose of staging state safely against late writes.
void RndvSend::abandon(const std::string& reason) {
  failed_ = true;
  error_ = reason;
  timer_.cancel();
  for (std::size_t i = 0; i < plan_.count; ++i) {
    if (!slots_[i].valid()) continue;
    if (inflight_[i] > 0 && res_.slot_graveyard != nullptr) {
      res_.slot_graveyard->push_back(std::move(slots_[i]));
      slots_[i] = detail::StagingSlot{};
    } else {
      sched_release(res_, req_id_, slots_[i]);
    }
  }
  if (tbuf_ != nullptr && path_ == Path::kDeviceIpcOffload &&
      res_.slot_graveyard != nullptr) {
    // IPC peer copies read the device tbuf at drain time; a queued write of
    // this failed transfer may still reference it. Park it like a host slot.
    bool writes_queued = false;
    for (int n : inflight_) writes_queued = writes_queued || n > 0;
    if (writes_queued) park_staging(res_, tbuf_);
  }
  if (ipc_mapped_) {
    res_.cuda->ipc_close_mem_handle(direct_base_);
    ipc_mapped_ = false;
  }
  if (res_.sched != nullptr) res_.sched->unregister_transfer(req_id_);
}

// ===========================================================================
// RndvRecv
// ===========================================================================

RndvRecv::RndvRecv(RankResources& res, MsgView msg, int src_node,
                   std::uint64_t sender_req, std::uint64_t my_req_id,
                   std::size_t incoming_bytes, std::size_t sender_chunk)
    : res_(res),
      msg_(std::move(msg)),
      src_(src_node),
      sender_req_(sender_req),
      req_id_(my_req_id),
      graph_(res.trig),
      timer_(*res.engine) {
  if (msg_.on_device && res_.net != nullptr &&
             res_.net->device_direct(src_node)) {
    // Co-located sender with a peer-copy-capable transport: the payload
    // lands in device memory directly (user buffer when contiguous, a
    // device-side reassembly buffer otherwise). No host staging window.
    path_ = msg_.contiguous ? Path::kDeviceIpcDirect
                            : Path::kDeviceIpcOffload;
  } else if (msg_.on_device) {
    if (msg_.contiguous) {
      path_ = Path::kDeviceContig;
    } else if (select_offload(res_, msg_)) {
      path_ = Path::kDeviceOffload;
    } else {
      path_ = Path::kDevicePcie;
    }
  } else {
    path_ = msg_.contiguous ? Path::kHostDirect : Path::kHostUnpack;
  }
  // Chunking is sender-driven (carried in the RTS), so both ends slice the
  // packed stream identically.
  plan_ = ChunkPlan::make(incoming_bytes, sender_chunk);
  if (path_ == Path::kHostUnpack && msg_.packed_bytes > 0) {
    cursors_ = msg_.plan->chunk_cursors(plan_.chunk);
  }
  chunks_.resize(plan_.count);
  acks_.resize(plan_.count);
  drained_chunk_.assign(plan_.count, false);
  if (res_.sched != nullptr) {
    res_.sched->register_transfer(req_id_);
  }
}

RndvRecv::~RndvRecv() {
  // Destructors must not throw, even when tearing down a transfer that an
  // engine abort interrupted mid-flight.
  try {
    timer_.cancel();
    if (res_.sched != nullptr) {
      res_.sched->drop_pending(src_, sender_req_);
      res_.sched->unregister_transfer(req_id_);
    }
    release_staging(res_, rtbuf_);
    for (auto& s : slots_) detail::release_slot(*res_.vbufs, s);
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void RndvRecv::trace_event(const char* category) {
  if (res_.trace != nullptr) {
    res_.trace->event(res_.rank, category, res_.engine->now());
  }
}

void RndvRecv::post_ctrl(netsim::WireMessage msg) {
  msg.seq = ctrl_seq_++;
  msg.flow = sender_req_;  // same flow label as the sender's leg
  if (res_.sched != nullptr) {
    res_.sched->note_ctrl(msg.kind);
    // Piggyback: pending coalesced credits for this peer must never trail
    // a fresher control message.
    res_.sched->flush_peer(src_);
  }
  res_.net->post_send(src_, std::move(msg));
}

void RndvRecv::arm_timer() {
  armed_epoch_ = progress_epoch_;
  const sim::SimTime at =
      backoff_deadline(*res_.tun, retries_, res_.engine->now());
  sim::Notifier* n = res_.notifier;
  timer_.arm(at, [n] {
    if (n != nullptr) n->notify();
  });
}

void RndvRecv::handle_timeout() {
  if (progress_epoch_ != armed_epoch_) {
    // Something arrived (or local staging moved) since the deadline was
    // armed: the transfer is alive, restore the budget.
    retries_ = 0;
    arm_timer();
    return;
  }
  ++retries_;
  if (res_.retries != nullptr) ++res_.retries->timeouts;
  trace_event("fault_timeout");
  // Twice the sender's budget: a struggling-but-alive sender always outlasts
  // this watchdog (its retransmissions keep moving our epoch), and when it
  // fails its best-effort SEND_ABORT deterministically beats our expiry.
  if (retries_ > res_.tun->rndv_max_retries * 2) {
    if (completed_ == plan_.count) {
      // Payload fully landed; only the SEND_DONE never made it. The sender
      // is done or dead either way — reclaim without it.
      force_drain();
    } else {
      fail("rendezvous " + std::to_string(req_id_) + " from rank " +
           std::to_string(src_) + ": sender went silent with payload "
           "incomplete");
    }
    return;
  }
  arm_timer();
}

void RndvRecv::force_drain() {
  send_done_ = true;
  timer_.cancel();
  // Failover health: the payload made it, but the peer went silent before
  // closing the handshake — count it against the path.
  res_.net->note_failure(src_);
  if (res_.sched != nullptr) {
    // A pending coalesced ack advertises a slot address as a credit; the
    // release below recycles those addresses, so the acks must die first.
    res_.sched->drop_pending(src_, sender_req_);
  }
  // Safe to recycle rather than park in the graveyard: the silence that got
  // us here spans the entire backoff budget, orders of magnitude beyond any
  // delivery latency plus jitter, so no write posted by the sender can
  // still be queued against these addresses.
  for (auto& s : slots_) sched_release(res_, req_id_, s);
  if (res_.sched != nullptr) res_.sched->unregister_transfer(req_id_);
  if (res_.retries != nullptr) ++res_.retries->force_drains;
  trace_event("fault_force_drain");
}

void RndvRecv::fail(const std::string& reason) {
  res_.net->note_failure(src_);  // failover health
  if (res_.retries != nullptr) ++res_.retries->transfer_failures;
  trace_event("fault_transfer_failed");
  abandon(reason);
}

void RndvRecv::cancel(const std::string& reason) {
  if (failed_) return;
  trace_event("fault_recv_canceled");
  // No retraction message exists for a receiver; the peer's own abort (it
  // cancels its matching send, or its COLL_ABORT wave arrives) or its
  // retry budget bounds the sender side.
  abandon(reason);
}

// Shared terminal path of fail() and cancel().
void RndvRecv::abandon(const std::string& reason) {
  failed_ = true;
  error_ = reason;
  timer_.cancel();
  if (res_.sched != nullptr) {
    // Queued acks for this transfer advertise slots headed for the
    // graveyard (or the pool); they must never reach the wire.
    res_.sched->drop_pending(src_, sender_req_);
  }
  for (auto& s : slots_) {
    if (!s.valid()) continue;
    if (res_.slot_graveyard != nullptr) {
      // The sender may still have writes queued against these addresses;
      // park them until the rank tears down.
      res_.slot_graveyard->push_back(std::move(s));
      s = detail::StagingSlot{};
    } else {
      sched_release(res_, req_id_, s);
    }
  }
  if (rtbuf_ != nullptr && res_.slot_graveyard != nullptr) {
    // Same hazard in device memory: the co-located sender's peer copies
    // target the rtbuf through its IPC mapping, and a queued duplicate may
    // still drain after this failure. Park it for teardown-time cudaFree.
    park_staging(res_, rtbuf_);
  }
  if (res_.sched != nullptr) res_.sched->unregister_transfer(req_id_);
}

void RndvRecv::start() {
  build_graph();
  // Liveness watchdog. From here on the sender is actively driving the
  // transfer (or retransmitting), so every receipt moves our epoch;
  // sustained total silence for the whole backoff budget means the sender
  // failed or the path died, and the receive must resolve bounded instead
  // of tripping the engine's deadlock detector.
  arm_timer();
  cts_.kind = kCts;
  cts_.header[0] = sender_req_;
  cts_.header[1] = req_id_;
  if (path_ == Path::kHostDirect) {
    cts_.header[2] = static_cast<std::uint64_t>(CtsMode::kDirect);
    cts_.header[3] = 1;
    append_address(cts_.payload, msg_.base);
    cts_sent_ = true;
    post_ctrl(cts_);
    return;
  }
  if (path_ == Path::kDeviceIpcDirect || path_ == Path::kDeviceIpcOffload) {
    // Intra-node device-direct landing: export an IPC handle for the
    // landing buffer instead of advertising host staging slots. The
    // co-located sender opens the handle and peer-copies straight in.
    std::byte* landing;
    if (path_ == Path::kDeviceIpcOffload) {
      rtbuf_ = acquire_staging(res_, plan_.total);
      landing = rtbuf_;
    } else {
      landing = static_cast<std::byte*>(msg_.base);
    }
    cts_.header[2] = static_cast<std::uint64_t>(CtsMode::kDirect);
    cts_.header[3] = 1;
    cts_.header[4] = 1;  // payload carries an IPC handle, not an address
    append_ipc_handle(cts_.payload, res_.cuda->ipc_get_mem_handle(landing));
    cts_sent_ = true;
    post_ctrl(cts_);
    return;
  }
  if (path_ == Path::kDeviceOffload) {
    rtbuf_ = acquire_staging(res_, plan_.total);
  }
  // Advertise a window of landing slots. The first slot falls back to a
  // pinned one-off buffer when the pool is drained, so a CTS can always be
  // sent (guaranteed progress). Beyond the first slot, a receive window
  // may only use the pool while at least half of it stays free — landing
  // windows of concurrent receives must not starve the send side (which
  // would close a circular wait across ranks).
  const std::size_t want = std::min<std::size_t>(plan_.count,
                                                 res_.tun->recv_window);
  for (std::size_t i = 0; i < want; ++i) {
    detail::StagingSlot s;
    const bool pool_allowed =
        (i == 0) || res_.vbufs->available() * 2 > res_.vbufs->capacity();
    if (pool_allowed) {
      // The first slot bypasses the fairness gate: a CTS must always go
      // out (guaranteed progress), and the reserve carved out for this
      // transfer covers it anyway.
      s = sched_acquire(res_, req_id_, plan_.chunk, /*gated=*/i != 0);
    }
    if (!s.valid()) {
      if (i == 0) s = detail::pinned_slot(*res_.cuda, plan_.chunk);
      else break;
    }
    slots_.push_back(std::move(s));
  }
  // The window is advertised exactly once — a denial above must not leave
  // a stale fairness turn queued (this receiver will never re-ask).
  sched_withdraw(res_, req_id_);
  cts_.header[2] = static_cast<std::uint64_t>(CtsMode::kStaged);
  cts_.header[3] = slots_.size();
  for (const auto& s : slots_) append_address(cts_.payload, s.ptr);
  slots_advertised_ = slots_.size();
  cts_sent_ = true;
  post_ctrl(cts_);
}

void RndvRecv::on_duplicate_rts() {
  note_progress();  // the sender is alive and probing
  if (cts_sent_) {
    post_ctrl(cts_);
    if (res_.retries != nullptr) ++res_.retries->cts_resent;
    trace_event("fault_cts_resent");
  }
}

void RndvRecv::on_chunk_fin(const netsim::WireMessage& m) {
  const std::size_t idx = m.header[1];
  if (idx >= plan_.count) throw std::logic_error("RndvRecv: bad chunk index");
  note_progress();  // any fin — duplicate included — proves sender liveness
  if (chunks_[idx].arrived) {
    // Retransmitted write for a chunk we already have. If we already
    // drained (and acked) it, the ack was evidently lost: replay it. If it
    // is still in the pipeline, the pending ack will cover it.
    if (drained_chunk_[idx]) {
      resend_ack(idx);
    } else if (res_.retries != nullptr) {
      ++res_.retries->duplicates_dropped;
    }
    return;
  }
  if (m.header[3] != plan_.offset_of(idx) ||
      m.header[4] != plan_.bytes_of(idx)) {
    throw std::logic_error("RndvRecv: chunk geometry mismatch");
  }
  if (!direct_landing() && m.header[2] >= slots_.size()) {
    throw std::logic_error("RndvRecv: chunk fin names unknown slot");
  }
  chunks_[idx].arrived = true;
  chunks_[idx].ecn = m.ecn;  // remember the mark until the ack echoes it
  chunks_[idx].slot = m.header[2];
  ++arrived_count_;
  advance();
}

void RndvRecv::ack_chunk(std::size_t chunk_idx) {
  netsim::WireMessage ack;
  ack.kind = kChunkAck;
  ack.header[0] = sender_req_;
  ack.header[1] = chunk_idx;
  ack.header[2] = kNoSlot;
  ack.header[4] = chunks_[chunk_idx].ecn ? 1 : 0;  // ECN echo
  if (!direct_landing() && slots_advertised_ < plan_.count) {
    // Re-advertise the drained slot (the paper's CREDIT), fused onto the
    // ack so it shares the same retransmission recovery.
    const std::uint64_t slot_idx = chunks_[chunk_idx].slot;
    ack.header[2] = slot_idx;
    ack.header[3] = credit_seq_++;
    append_address(ack.payload, slots_[slot_idx].ptr);
    ++slots_advertised_;
  }
  drained_chunk_[chunk_idx] = true;
  acks_[chunk_idx] = ack;
  ++drained_acks_;
  note_progress();  // local drain progress keeps the watchdog quiet
  if (res_.sched != nullptr && res_.sched->coalescing()) {
    // Hand the ack to the coalescer: it goes out within the delivery
    // window, batched with whatever else this rank owes the same peer
    // (possibly acks of other transfers). Replays of a stored ack on a
    // duplicate fin still use post_ctrl directly — recovery traffic must
    // not sit in a batching window.
    AckBatchEntry e;
    e.sender_req = sender_req_;
    e.chunk_idx = chunk_idx;
    e.slot_idx = ack.header[2];
    e.credit_seq = ack.header[3];
    e.slot_addr =
        (ack.header[2] != kNoSlot) ? slots_[ack.header[2]].ptr : nullptr;
    e.congested = chunks_[chunk_idx].ecn;
    // The credit valve: with half the advertised window's credits pending
    // the sender is at risk of stalling on the coalescing timer; a
    // one-slot window means every ack is the sender's only credit and
    // must not idle in a batch at all. And with no other transfer active
    // there is nothing to batch with — every held ack is pure pipeline
    // delay — so a solo transfer flushes each credit immediately.
    const std::size_t valve =
        res_.sched->active_transfers() > 1
            ? std::max<std::size_t>(1, slots_.size() / 2)
            : 1;
    res_.sched->queue_ack(src_, e, valve);
    if (drained_acks_ == plan_.count) {
      // The transfer's last ack must not sit in a batching window: our
      // request may complete right now, the application may never drive
      // this rank's progress loop again, and the sender's completion
      // hinges on this ack. Flush synchronously (it carries every other
      // ack pending for this peer with it).
      res_.sched->flush_peer(src_);
    }
    return;
  }
  post_ctrl(std::move(ack));
}

void RndvRecv::resend_ack(std::size_t chunk_idx) {
  post_ctrl(acks_[chunk_idx]);
  if (res_.retries != nullptr) ++res_.retries->acks_resent;
  trace_event("fault_ack_resent");
}

void RndvRecv::on_send_done() {
  note_progress();
  if (send_done_) {
    if (res_.retries != nullptr) ++res_.retries->duplicates_dropped;
  } else {
    send_done_ = true;
    res_.net->note_success(src_);  // failover health: full round trip closed
    // Every chunk is acked at the sender: no retransmitted write can target
    // these slots any more, so they may finally return to the pool. (The
    // SEND_DONE also proves no ack of ours is still coalescing — the
    // sender saw them all.)
    for (auto& s : slots_) sched_release(res_, req_id_, s);
    if (res_.sched != nullptr) res_.sched->unregister_transfer(req_id_);
  }
  if (direct_landing()) {
    // The sender retransmits its SEND_DONE until we confirm (our request
    // hinges on it, so it must be reliable). Reply to duplicates too: the
    // retransmission means our previous ack was lost.
    netsim::WireMessage ack;
    ack.kind = kSendDoneAck;
    ack.header[0] = sender_req_;
    post_ctrl(std::move(ack));
  }
  if (drained()) timer_.cancel();
  advance();
}

void RndvRecv::on_send_abort() {
  note_progress();
  if (failed_ || send_done_) {
    if (res_.retries != nullptr) ++res_.retries->duplicates_dropped;
    return;
  }
  if (completed_ == plan_.count) {
    // Everything already landed and unpacked; the sender merely never
    // learned it. The data is good — drain, don't fail.
    force_drain();
    return;
  }
  fail("rendezvous " + std::to_string(req_id_) + " from rank " +
       std::to_string(src_) + ": sender aborted the transfer");
}

bool RndvRecv::request_complete() const {
  if (failed_) return false;
  if (path_ == Path::kHostDirect || path_ == Path::kDeviceIpcDirect) {
    // Direct landings go straight into the user buffer, which the
    // application owns again (or may have freed) the moment the request
    // completes. A duplicate write retransmitted because its CHUNK_ACK was
    // lost could drain afterwards and overwrite whatever the application
    // put there — so completion additionally waits for the sender's
    // (reliable, acked) SEND_DONE, the proof that nothing can still drain.
    // The watchdog's force_drain bounds the wait if the sender died.
    // (kDeviceIpcOffload is exempt: duplicates land in the protocol-owned
    // rtbuf, which outlives the request.)
    return completed_ == plan_.count && send_done_;
  }
  return completed_ == plan_.count;
}

bool RndvRecv::drained() const {
  if (failed_) return true;  // slots already parked in the graveyard
  return completed_ == plan_.count && send_done_;
}

void RndvRecv::build_graph() {
  graph_.clear();
  if (res_.trig != nullptr) ++res_.trig->graphs_built;
  switch (path_) {
    case Path::kHostDirect:
    case Path::kDeviceIpcDirect: {
      // The write already landed in the user buffer (RDMA into host memory
      // or a peer D2D copy through the opened IPC mapping); ack each
      // arrival. Arrivals are unordered, hence a sparse sweep, not a
      // frontier.
      const int ack = graph_.add_chain(TriggerGraph::ChainKind::kSparse);
      for (std::size_t i = 0; i < plan_.count; ++i) {
        graph_.add_node(
            ack,
            [this, i] { return chunks_[i].arrived && !drained_chunk_[i]; },
            [this, i] {
              ack_chunk(i);
              ++completed_;
            });
      }
      return;
    }
    case Path::kDeviceIpcOffload: {
      // Peer copies land packed chunks in the device rtbuf; each arrival
      // feeds a D2D unpack kernel. No host staging, so the ack goes out as
      // soon as the chunk is handed to the unpack stream. The rtbuf is
      // deliberately NOT freed when the last unpack drains: a duplicate
      // peer copy (retransmitted because its ack was lost) may still be
      // queued against it, so it lives until the transfer object tears
      // down (destructor) or is parked in the graveyard (fail()).
      const int unpack = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
      for (std::size_t i = 0; i < plan_.count; ++i) {
        graph_.add_node(unpack, [this, i] { return chunks_[i].arrived; },
                        [this, i] {
                          const std::size_t off = plan_.offset_of(i);
                          chunks_[i].unpack_done = submit_device_unpack(
                              *res_.cuda, res_.unpack_stream, msg_, off,
                              plan_.bytes_of(i), rtbuf_ + off);
                          chunks_[i].unpack_submitted = true;
                          ack_chunk(i);
                          ++next_unpack_;
                        });
      }
      const int done = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
      for (std::size_t i = 0; i < plan_.count; ++i) {
        graph_.add_node(done,
                        [this, i] {
                          return chunks_[i].unpack_submitted &&
                                 chunks_[i].unpack_done.query();
                        },
                        [this] { ++completed_; });
      }
      return;
    }
    case Path::kHostUnpack: {
      // CPU unpack straight from the landing slot, in chunk order (each
      // unpack charges host time, so the frontier drains sequentially).
      const int unpack = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
      for (std::size_t i = 0; i < plan_.count; ++i) {
        graph_.add_node(unpack, [this, i] { return chunks_[i].arrived; },
                        [this, i] {
                          const std::size_t off = plan_.offset_of(i);
                          const std::size_t bytes = plan_.bytes_of(i);
                          res_.engine->delay(res_.tun->host_pack_time(
                              bytes, chunk_segments(msg_, cursors_.get(), i,
                                                    off, bytes)));
                          if (cursors_ && i < cursors_->count &&
                              off == i * cursors_->chunk) {
                            msg_.dtype.unpack_bytes_from(
                                cursors_->cursors[i],
                                slots_[chunks_[i].slot].ptr, msg_.count,
                                bytes, msg_.base);
                          } else {
                            msg_.dtype.unpack_bytes(
                                slots_[chunks_[i].slot].ptr, msg_.count, off,
                                bytes, msg_.base);
                          }
                          ack_chunk(i);
                          ++completed_;
                        });
      }
      return;
    }
    case Path::kDeviceContig:
    case Path::kDevicePcie: {
      // H2D frontier feeds the copy engine in order; the ack frontier
      // trails it, firing as each copy's event drains.
      const int h2d = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
      for (std::size_t i = 0; i < plan_.count; ++i) {
        graph_.add_node(h2d, [this, i] { return chunks_[i].arrived; },
                        [this, i] {
                          const std::size_t off = plan_.offset_of(i);
                          const std::size_t bytes = plan_.bytes_of(i);
                          const std::byte* slot_ptr =
                              slots_[chunks_[i].slot].ptr;
                          if (path_ == Path::kDeviceContig) {
                            res_.cuda->memcpy_async(
                                static_cast<std::byte*>(msg_.base) + off,
                                slot_ptr, bytes,
                                cusim::MemcpyKind::kHostToDevice,
                                res_.h2d_stream);
                            chunks_[i].h2d_done =
                                res_.cuda->record_event(res_.h2d_stream);
                          } else {
                            chunks_[i].h2d_done = submit_pcie_unpack_from_host(
                                *res_.cuda, res_.h2d_stream, msg_, off, bytes,
                                slot_ptr);
                          }
                          chunks_[i].h2d_submitted = true;
                          ++next_h2d_;
                        });
      }
      const int ack = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
      for (std::size_t i = 0; i < plan_.count; ++i) {
        graph_.add_node(ack,
                        [this, i] {
                          return chunks_[i].h2d_submitted &&
                                 chunks_[i].h2d_done.query();
                        },
                        [this, i] {
                          ack_chunk(i);
                          ++completed_;
                        });
      }
      return;
    }
    case Path::kDeviceOffload: {
      // The full three-stage landing pipeline: H2D into the rtbuf, D2D
      // unpack kernel (the host slot drains — ack — as soon as its bytes
      // are in the rtbuf), completion as each unpack's event drains.
      const int h2d = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
      for (std::size_t i = 0; i < plan_.count; ++i) {
        graph_.add_node(h2d, [this, i] { return chunks_[i].arrived; },
                        [this, i] {
                          const std::size_t off = plan_.offset_of(i);
                          res_.cuda->memcpy_async(
                              rtbuf_ + off, slots_[chunks_[i].slot].ptr,
                              plan_.bytes_of(i),
                              cusim::MemcpyKind::kHostToDevice,
                              res_.h2d_stream);
                          chunks_[i].h2d_done =
                              res_.cuda->record_event(res_.h2d_stream);
                          chunks_[i].h2d_submitted = true;
                          ++next_h2d_;
                        });
      }
      const int unpack = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
      for (std::size_t i = 0; i < plan_.count; ++i) {
        graph_.add_node(unpack,
                        [this, i] {
                          return chunks_[i].h2d_submitted &&
                                 chunks_[i].h2d_done.query();
                        },
                        [this, i] {
                          const std::size_t off = plan_.offset_of(i);
                          chunks_[i].unpack_done = submit_device_unpack(
                              *res_.cuda, res_.unpack_stream, msg_, off,
                              plan_.bytes_of(i), rtbuf_ + off);
                          chunks_[i].unpack_submitted = true;
                          ack_chunk(i);
                          ++next_unpack_;
                        });
      }
      const int done = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
      for (std::size_t i = 0; i < plan_.count; ++i) {
        graph_.add_node(done,
                        [this, i] {
                          return chunks_[i].unpack_submitted &&
                                 chunks_[i].unpack_done.query();
                        },
                        [this] { ++completed_; });
      }
      graph_.set_epilogue(done, [this] {
        if (completed_ == plan_.count) release_staging(res_, rtbuf_);
      });
      return;
    }
  }
}

void RndvRecv::advance() {
  if (!failed_ && !drained() && timer_.fired()) handle_timeout();
  if (failed_) return;
  graph_.fire();
}

}  // namespace mv2gnc::core
