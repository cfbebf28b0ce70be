#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>

#include "core/pack_plan.hpp"
#include "mpi/coll.hpp"

namespace perfbench {

std::vector<std::size_t> stratified_sizes(Rng& rng, std::size_t lo,
                                          std::size_t hi, int per_octave,
                                          std::size_t align) {
  const double octaves = std::log2(static_cast<double>(hi) / lo);
  const int n = static_cast<int>(std::lround(octaves * per_octave));
  const double offset = rng.uniform();
  std::vector<std::size_t> out;
  for (int j = 0; j < n; ++j) {
    const double e = (j + (j % 2 ? 1.0 - offset : offset)) / n * octaves;
    const auto bytes =
        static_cast<std::size_t>(static_cast<double>(lo) * std::exp2(e));
    out.push_back(std::clamp(bytes / align * align, lo, hi));
  }
  shuffle(out, rng);
  return out;
}

std::int64_t Tracer::open(const mpisim::Context& ctx, const char* name,
                          std::int64_t op, std::int64_t parent) {
  if (!on_) return -1;
  auto& v = spans_[static_cast<std::size_t>(ctx.rank)];
  Span s;
  s.name = name;
  s.rank = ctx.rank;
  s.op = op;
  s.parent = parent;
  s.v0 = ctx.now();
  s.w0 = wall_now();
  v.push_back(s);
  return static_cast<std::int64_t>(v.size()) - 1;
}

void Tracer::close(const mpisim::Context& ctx, std::int64_t idx) {
  if (!on_ || idx < 0) return;
  Span& s = spans_[static_cast<std::size_t>(ctx.rank)]
                  [static_cast<std::size_t>(idx)];
  s.v1 = ctx.now();
  s.w1 = wall_now();
}

void Tracer::add(int rank, const char* name, std::int64_t op,
                 std::int64_t parent, sim::SimTime v0, sim::SimTime v1) {
  if (!on_) return;
  const double w = wall_now();
  spans_[static_cast<std::size_t>(rank)].push_back(
      Span{name, rank, op, parent, v0, v1, w, w});
}

void CommitMeter::commit(mpisim::Datatype& t, Tracer& tr,
                         const mpisim::Context& ctx, std::int64_t op,
                         std::int64_t parent) {
  const std::int64_t s = tr.open(ctx, "datatype.commit", op, parent);
  const double t0 = wall_now();
  t.commit();
  wall_s += wall_now() - t0;
  ++commits;
  tr.close(ctx, s);
}

void PhaseClock::start(const mpisim::Context& ctx) {
  if (wall_start >= 0) return;
  wall_start = wall_now();
  v_start = ctx.now();
}

void PhaseClock::finish(const mpisim::Context& ctx) {
  wall_end = std::max(wall_end, wall_now());
  v_end = std::max(v_end, ctx.now());
}

void finish_round(const PhaseClock& clock, Round& r) {
  r.setup_s = clock.wall_start - clock.wall_setup0;
  r.wall_s = clock.wall_end - clock.wall_start - clock.harness_s;
  r.virt_span = clock.v_end - clock.v_start;
}

double run_cluster(mpisim::Cluster& cluster,
                   std::function<void(mpisim::Context&)> body, Round& r) {
  auto sys_now = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  };
  const double sys0 = sys_now();
  try {
    cluster.run(std::move(body));
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return sys_now() - sys0;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void collect_layers(mpisim::Cluster& cluster, double ops, double sys_s,
                    const CommitMeter& commits, Round& r) {
  auto& L = r.layer;
  const sim::Engine& eng = cluster.engine();
  const double events = static_cast<double>(eng.events_executed());
  L["sim.events"] = events;
  L["sim.wall_ns_per_event"] = ratio(eng.run_wall_seconds() * 1e9, events);
  L["sim.sys_s"] = sys_s;

  L["datatype.commits"] = static_cast<double>(commits.commits);
  L["datatype.commit_us"] = commits.wall_s * 1e6;

  const auto pc = mpisim::Cluster::plan_cache_stats();
  L["pack_plan.lookups"] = static_cast<double>(pc.lookups());
  L["pack_plan.misses"] = static_cast<double>(pc.misses);
  L["pack_plan.signature_dedups"] = static_cast<double>(pc.signature_dedups);
  L["pack_plan.hit_ratio"] = pc.hit_rate();
  L["pack_plan.entries"] =
      static_cast<double>(mv2gnc::core::PlanCache::instance().size());

  const int p = cluster.config().ranks;
  const double makespan = static_cast<double>(cluster.elapsed());
  sim::SimTime d2d = 0, d2h = 0, h2d = 0, kern = 0, d2d_max = 0, nic_max = 0,
               ipc_busy = 0, qwait = 0;
  double msgs = 0, rdma = 0, fabric_bytes = 0, ipc_bytes = 0, ipc_copies = 0,
         vbuf_hw = 0, retrans = 0, tracked = 0, denials = 0, active_hw = 0,
         ctrl = 0, acks_co = 0, acks_all = 0, fired = 0, graphs = 0;
  double calls = 0, hier = 0, coll_bytes = 0, dev_calls = 0, dev_pipe = 0,
         staged = 0, peer = 0, reduces = 0;
  sim::SimTime dev_stage = 0, dev_elapsed = 0;
  for (int i = 0; i < p; ++i) {
    const mpisim::RankStats s = cluster.rank_stats(i);
    d2d += s.d2d_busy;
    d2h += s.d2h_busy;
    h2d += s.h2d_busy;
    kern += s.kernel_busy;
    d2d_max = std::max(d2d_max, s.d2d_busy);
    nic_max = std::max(nic_max, s.nic_busy);
    msgs += static_cast<double>(s.messages_sent);
    rdma += static_cast<double>(s.rdma_writes);
    fabric_bytes += static_cast<double>(s.bytes_sent);
    ipc_bytes += static_cast<double>(s.ipc_bytes_sent);
    ipc_copies += static_cast<double>(s.ipc_copies);
    ipc_busy += s.ipc_busy;
    vbuf_hw = std::max(vbuf_hw, static_cast<double>(s.vbuf_high_water));
    retrans += static_cast<double>(cluster.retry_stats(i).total_retransmits());
    tracked += static_cast<double>(cluster.tracked_rendezvous(i));

    const auto& sc = cluster.sched_stats(i);
    qwait += sc.queue_wait_ns;
    denials += static_cast<double>(sc.denials);
    active_hw = std::max(active_hw, static_cast<double>(sc.active_high_water));
    ctrl += static_cast<double>(sc.ctrl_total());
    acks_co += static_cast<double>(sc.acks_coalesced);
    acks_all += static_cast<double>(sc.acks_individual + sc.acks_coalesced);

    const auto& tg = cluster.trigger_stats(i);
    fired += static_cast<double>(tg.triggers_fired);
    graphs += static_cast<double>(tg.graphs_built);

    const auto& cs = cluster.coll_stats(i);
    for (const auto* op : {&cs.barrier, &cs.bcast, &cs.allreduce,
                           &cs.allgather, &cs.alltoall, &cs.gather,
                           &cs.scatter}) {
      calls += static_cast<double>(op->calls);
      hier += static_cast<double>(op->hier_calls);
      coll_bytes += static_cast<double>(op->bytes_sent);
      dev_calls += static_cast<double>(op->device_calls);
      dev_pipe += static_cast<double>(op->device_pipelined);
      staged += static_cast<double>(op->bytes_staged);
      peer += static_cast<double>(op->bytes_peer);
      reduces += static_cast<double>(op->reduce_kernels);
      dev_stage += op->device_stage_ns;
      dev_elapsed += op->device_elapsed_ns;
    }
  }
  L["gpu.d2d_busy_ms"] = sim::to_ms(d2d);
  L["gpu.d2h_busy_ms"] = sim::to_ms(d2h);
  L["gpu.h2d_busy_ms"] = sim::to_ms(h2d);
  L["gpu.kernel_busy_ms"] = sim::to_ms(kern);
  L["gpu.d2d_util"] = ratio(static_cast<double>(d2d_max), makespan);

  L["rndv.vbuf_high_water"] = vbuf_hw;
  L["rndv.retransmits"] = retrans;
  L["rndv.tracked_after"] = tracked;

  L["sched.queue_wait_us"] = sim::to_us(qwait);
  L["sched.denials"] = denials;
  L["sched.active_high_water"] = active_hw;
  L["sched.ctrl_msgs_per_op"] = ratio(ctrl, ops);
  L["sched.ack_coalesce_ratio"] = ratio(acks_co, acks_all);

  L["trigger.fired_per_op"] = ratio(fired, ops);
  L["trigger.graphs_per_op"] = ratio(graphs, ops);

  L["fabric.msgs_per_op"] = ratio(msgs, ops);
  L["fabric.rdma_writes"] = rdma;
  L["fabric.MB"] = fabric_bytes / 1e6;
  L["fabric.nic_util"] = ratio(static_cast<double>(nic_max), makespan);

  L["ipc.MB"] = ipc_bytes / 1e6;
  L["ipc.copies"] = ipc_copies;
  L["ipc.busy_ms"] = sim::to_ms(ipc_busy);

  L["coll.calls"] = calls;
  L["coll.hier_ratio"] = ratio(hier, calls);
  L["coll.MB_sent"] = coll_bytes / 1e6;
  L["coll_device.pipelined_ratio"] = ratio(dev_pipe, dev_calls);
  L["coll_device.MB_staged"] = staged / 1e6;
  L["coll_device.MB_peer"] = peer / 1e6;
  L["coll_device.reduce_kernels"] = reduces;
  L["coll_device.overlap_ratio"] =
      dev_stage > 0 && dev_elapsed < dev_stage
          ? 1.0 - static_cast<double>(dev_elapsed) /
                      static_cast<double>(dev_stage)
          : 0.0;
}

bool is_wall_metric(const std::string& name) {
  return name == "sim.wall_ns_per_event" || name == "sim.sys_s" ||
         name == "datatype.commit_us";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.events", "count"},
      {"sim.wall_ns_per_event", "ns"},
      {"sim.sys_s", "s"},
      {"datatype.commits", "count"},
      {"datatype.commit_us", "us"},
      {"pack_plan.lookups", "count"},
      {"pack_plan.misses", "count"},
      {"pack_plan.signature_dedups", "count"},
      {"pack_plan.hit_ratio", "ratio"},
      {"pack_plan.entries", "count"},
      {"gpu.d2d_busy_ms", "ms"},
      {"gpu.d2h_busy_ms", "ms"},
      {"gpu.h2d_busy_ms", "ms"},
      {"gpu.kernel_busy_ms", "ms"},
      {"gpu.d2d_util", "ratio"},
      {"rndv.model_ratio", "ratio"},
      {"rndv.model_ratio.64K", "ratio"},
      {"rndv.model_ratio.128K", "ratio"},
      {"rndv.model_ratio.256K", "ratio"},
      {"rndv.model_ratio.512K", "ratio"},
      {"rndv.model_ratio.1M", "ratio"},
      {"rndv.model_ratio.2M", "ratio"},
      {"rndv.vbuf_high_water", "count"},
      {"rndv.retransmits", "count"},
      {"rndv.tracked_after", "count"},
      {"sched.queue_wait_us", "us"},
      {"sched.denials", "count"},
      {"sched.active_high_water", "count"},
      {"sched.ctrl_msgs_per_op", "count/op"},
      {"sched.ack_coalesce_ratio", "ratio"},
      {"trigger.fired_per_op", "count/op"},
      {"trigger.graphs_per_op", "count/op"},
      {"fabric.msgs_per_op", "count/op"},
      {"fabric.rdma_writes", "count"},
      {"fabric.MB", "MB"},
      {"fabric.nic_util", "ratio"},
      {"ipc.MB", "MB"},
      {"ipc.copies", "count"},
      {"ipc.busy_ms", "ms"},
      {"coll.calls", "count"},
      {"coll.hier_ratio", "ratio"},
      {"coll.MB_sent", "MB"},
      {"coll_device.pipelined_ratio", "ratio"},
      {"coll_device.MB_staged", "MB"},
      {"coll_device.MB_peer", "MB"},
      {"coll_device.reduce_kernels", "count"},
      {"coll_device.overlap_ratio", "ratio"},
      {"span.compute_us", "us"},
      {"span.post_us", "us"},
      {"span.comm_wait_us", "us"},
      {"trace.overhead_s", "s"},
      {"ops_failed_ratio", "ratio"}};
  return defs;
}

}  // namespace perfbench
