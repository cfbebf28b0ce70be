#include "core/tunables.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

using mv2gnc::core::Tunables;

TEST(Tunables, DefaultsAreValid) {
  Tunables t;
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.chunk_bytes, 64u * 1024u);  // the paper's optimum
  EXPECT_TRUE(t.gpu_offload);
  EXPECT_TRUE(t.pipelining);
}

TEST(Tunables, ValidationCatchesBadValues) {
  Tunables t;
  t.chunk_bytes = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.vbuf_count = 1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.recv_window = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.recv_window = t.vbuf_count + 1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.host_pack_bw = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.host_seg_overhead_ns = -1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(Tunables, ValidationCatchesBadFaultKnobs) {
  Tunables t;
  t.rank_stall_prob = -0.1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.rank_stall_prob = 1.5;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.rank_stall_ns = -1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.rank_skew_ns = -1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.transport_restore_threshold = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.coll_watchdog_factor = 0.5;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  // Boundary values are legal: probabilities may be exactly 0 or 1, the
  // failover threshold 0 means "disabled".
  t = Tunables{};
  t.rank_stall_prob = 1.0;
  t.transport_failover_threshold = 0;
  t.coll_watchdog_factor = 1.0;
  EXPECT_NO_THROW(t.validate());
}

TEST(Tunables, FaultKnobsRoundTrip) {
  Tunables t;
  t.rank_skew_ns = 25'000;
  t.rank_stall_prob = 0.125;
  t.rank_stall_ns = 4'000;
  t.transport_failover_threshold = 5;
  t.transport_restore_threshold = 7;
  t.coll_watchdog_factor = 6.5;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.rank_skew_ns, 25'000);
  EXPECT_DOUBLE_EQ(u.rank_stall_prob, 0.125);
  EXPECT_EQ(u.rank_stall_ns, 4'000);
  EXPECT_EQ(u.transport_failover_threshold, 5u);
  EXPECT_EQ(u.transport_restore_threshold, 7u);
  EXPECT_DOUBLE_EQ(u.coll_watchdog_factor, 6.5);
}

TEST(Tunables, HostPackTimeModel) {
  Tunables t;
  t.host_pack_bw = 2.0;           // 2 bytes/ns
  t.host_seg_overhead_ns = 10.0;  // 10 ns per run
  EXPECT_EQ(t.host_pack_time(2000, 5), 1000 + 50);
  EXPECT_EQ(t.host_pack_time(0, 0), 0);
}

TEST(Tunables, ConfigRoundTrip) {
  Tunables t;
  t.chunk_bytes = 128 * 1024;
  t.eager_threshold = 4096;
  t.gpu_offload = false;
  t.recv_window = 4;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.chunk_bytes, 128u * 1024u);
  EXPECT_EQ(u.eager_threshold, 4096u);
  EXPECT_FALSE(u.gpu_offload);
  EXPECT_EQ(u.recv_window, 4u);
}

TEST(Tunables, ParserHandlesCommentsAndWhitespace) {
  std::istringstream in(
      "# MV2-GPU-NC site config\n"
      "\n"
      "  chunk_bytes =  32768   # tuned with OSU micro-benchmarks\n"
      "pipelining= no\n");
  Tunables t = Tunables::from_stream(in);
  EXPECT_EQ(t.chunk_bytes, 32768u);
  EXPECT_FALSE(t.pipelining);
}

TEST(Tunables, ParserRejectsUnknownKey) {
  std::istringstream in("warp_speed = 9\n");
  EXPECT_THROW(Tunables::from_stream(in), std::invalid_argument);
  // Removed knobs fail loudly instead of being silently ignored: a config
  // file that still asks for the stream-triggered posting mode or the
  // persistent plan cache must not run as if it got them.
  std::istringstream trigger("trigger_mode = stream\n");
  EXPECT_THROW(Tunables::from_stream(trigger), std::invalid_argument);
  std::istringstream plan_cache("persistent_plan_cache = true\n");
  EXPECT_THROW(Tunables::from_stream(plan_cache), std::invalid_argument);
  // Nor one that asks for receiver-driven rendezvous, a forced pack
  // scheme, a fixed in-flight cap or a different backoff factor.
  for (const char* line :
       {"rget = true\n", "scheme_select = tunable\n",
        "max_inflight_chunks = 1\n", "rndv_backoff_factor = 2.0\n"}) {
    std::istringstream removed(line);
    EXPECT_THROW(Tunables::from_stream(removed), std::invalid_argument)
        << line;
  }
}

TEST(Tunables, ConfigStringPinsTheKeySet) {
  // Every settable knob, in rendering order. A new knob (or a deleted one)
  // must show up here as a deliberate edit.
  const std::vector<std::string> expected = {
      "eager_threshold", "chunk_bytes", "pipeline_threshold", "vbuf_count",
      "recv_window", "gpu_offload", "chunk_select", "pipelining",
      "sched_policy", "ranks_per_node", "transport_select", "coll_select",
      "coll_device", "coll_slice_bytes", "route_select", "ecn_backlog_ns",
      "ecn_restore_chunks", "vbuf_reserve_per_transfer",
      "ack_coalesce_window_ns", "rndv_timeout_ns", "rndv_max_retries",
      "rank_skew_ns", "rank_stall_prob", "rank_stall_ns",
      "transport_failover_threshold", "transport_restore_threshold",
      "coll_watchdog_factor", "host_pack_bw", "host_seg_overhead_ns"};
  ASSERT_EQ(expected.size(), 29u);
  std::istringstream in(Tunables{}.to_config_string());
  std::vector<std::string> keys;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    keys.push_back(line.substr(0, line.find(" =")));
  }
  EXPECT_EQ(keys, expected);
}

TEST(Tunables, ParserRejectsMalformedLines) {
  std::istringstream bad_value("chunk_bytes = many\n");
  EXPECT_THROW(Tunables::from_stream(bad_value), std::invalid_argument);
  std::istringstream no_eq("chunk_bytes 65536\n");
  EXPECT_THROW(Tunables::from_stream(no_eq), std::invalid_argument);
  std::istringstream bad_bool("gpu_offload = maybe\n");
  EXPECT_THROW(Tunables::from_stream(bad_bool), std::invalid_argument);
}

TEST(Tunables, ParserValidatesResult) {
  std::istringstream in("vbuf_count = 1\n");
  EXPECT_THROW(Tunables::from_stream(in), std::invalid_argument);
}

TEST(Tunables, MissingFileThrows) {
  EXPECT_THROW(Tunables::from_file("/nonexistent/mv2.conf"),
               std::invalid_argument);
}

TEST(Tunables, ReliabilityKnobsRoundTrip) {
  Tunables t;
  t.rndv_timeout_ns = 250'000;
  t.rndv_max_retries = 11;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.rndv_timeout_ns, 250'000);
  EXPECT_EQ(u.rndv_max_retries, 11u);
}

TEST(Tunables, SelectionPoliciesDefaultToModel) {
  Tunables t;
  EXPECT_EQ(t.chunk_select, mv2gnc::core::ChunkSelect::kModel);
}

TEST(Tunables, SelectionPoliciesRoundTrip) {
  Tunables t;
  t.chunk_select = mv2gnc::core::ChunkSelect::kFixed;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.chunk_select, mv2gnc::core::ChunkSelect::kFixed);
}

TEST(Tunables, ParserRejectsBadSelectionPolicy) {
  std::istringstream bad_chunk("chunk_select = auto\n");
  EXPECT_THROW(Tunables::from_stream(bad_chunk), std::invalid_argument);
}

TEST(Tunables, ConcurrencyKnobsDefaultToLegacyBehaviour) {
  // fifo + no coalescing must reproduce the pre-scheduler pipeline
  // exactly; that is the ablation baseline.
  Tunables t;
  EXPECT_EQ(t.sched_policy, mv2gnc::core::SchedPolicy::kFifo);
  EXPECT_EQ(t.ack_coalesce_window_ns, 0);
}

TEST(Tunables, ConcurrencyKnobsRoundTrip) {
  Tunables t;
  t.sched_policy = mv2gnc::core::SchedPolicy::kFair;
  t.vbuf_reserve_per_transfer = 3;
  t.ack_coalesce_window_ns = 40'000;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.sched_policy, mv2gnc::core::SchedPolicy::kFair);
  EXPECT_EQ(u.vbuf_reserve_per_transfer, 3u);
  EXPECT_EQ(u.ack_coalesce_window_ns, 40'000);
}

TEST(Tunables, ParserRejectsBadSchedPolicy) {
  std::istringstream bad("sched_policy = round_robin\n");
  EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument);
  std::istringstream bytes("sched_policy = bytes\n");  // fifo and fair only
  EXPECT_THROW(Tunables::from_stream(bytes), std::invalid_argument);
}

TEST(Tunables, ValidationCatchesBadConcurrencyKnobs) {
  Tunables t;
  t.vbuf_reserve_per_transfer = t.vbuf_count + 1;  // cannot out-reserve pool
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.ack_coalesce_window_ns = -1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.ack_coalesce_window_ns = t.rndv_timeout_ns;  // would mimic ack loss
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(Tunables, ValidationCatchesBadReliabilityKnobs) {
  Tunables t;
  t.rndv_timeout_ns = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.rndv_timeout_ns = -5;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(Tunables, TopologyKnobsRoundTrip) {
  Tunables t;
  t.ranks_per_node = 4;
  t.transport_select = mv2gnc::core::TransportSelect::kFabric;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.ranks_per_node, 4u);
  EXPECT_EQ(u.transport_select, mv2gnc::core::TransportSelect::kFabric);
}

TEST(Tunables, TopologyKnobsValidated) {
  Tunables t;
  t.ranks_per_node = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  std::istringstream bad(std::string("transport_select = hca\n"));
  EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument);
}

TEST(Tunables, RoutingAndEcnKnobsDefaultOff) {
  Tunables t;
  EXPECT_EQ(t.route_select, mv2gnc::core::RouteSelect::kDmodK);
  EXPECT_EQ(t.ecn_backlog_ns, 0);
  EXPECT_EQ(t.ecn_restore_chunks, 16u);
}

TEST(Tunables, RoutingAndEcnKnobsRoundTrip) {
  for (const auto [route, name] :
       {std::pair{mv2gnc::core::RouteSelect::kHash, "hash"},
        std::pair{mv2gnc::core::RouteSelect::kAdaptive, "adaptive"},
        std::pair{mv2gnc::core::RouteSelect::kDmodK, "dmodk"}}) {
    Tunables t;
    t.route_select = route;
    t.ecn_backlog_ns = 25'000;
    t.ecn_restore_chunks = 8;
    const std::string rendered = t.to_config_string();
    EXPECT_NE(rendered.find(std::string("route_select = ") + name),
              std::string::npos);
    std::istringstream in(rendered);
    Tunables u = Tunables::from_stream(in);
    EXPECT_EQ(u.route_select, route);
    EXPECT_EQ(u.ecn_backlog_ns, 25'000);
    EXPECT_EQ(u.ecn_restore_chunks, 8u);
  }
}

TEST(Tunables, ParserRejectsBadRouteSelect) {
  std::istringstream bad("route_select = random\n");
  EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument);
}

TEST(Tunables, ValidationCatchesBadEcnKnobs) {
  Tunables t;
  t.ecn_backlog_ns = -1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.ecn_restore_chunks = 0;  // would grow back on every clean ack
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(Tunables, DeviceCollectiveKnobsDefaultToLegacyBehaviour) {
  // staged + model-selected slice reproduces the pre-pipeline schedule
  // byte-for-byte; that is the ablation baseline.
  Tunables t;
  EXPECT_EQ(t.coll_device, mv2gnc::core::CollDevice::kStaged);
  EXPECT_EQ(t.coll_slice_bytes, 0u);
}

TEST(Tunables, DeviceCollectiveKnobsRoundTrip) {
  for (auto dev : {mv2gnc::core::CollDevice::kStaged,
                   mv2gnc::core::CollDevice::kPipelined,
                   mv2gnc::core::CollDevice::kAuto}) {
    Tunables t;
    t.coll_device = dev;
    t.coll_slice_bytes = 65'536;
    std::istringstream in(t.to_config_string());
    Tunables u = Tunables::from_stream(in);
    EXPECT_EQ(u.coll_device, dev);
    EXPECT_EQ(u.coll_slice_bytes, 65'536u);
  }
}

TEST(Tunables, ParserRejectsBadCollDevice) {
  std::istringstream bad("coll_device = sliced\n");
  EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument);
}

TEST(Tunables, ValidationCatchesBadDeviceCollectiveKnobs) {
  Tunables t;
  t.coll_slice_bytes = 12'345;  // not a multiple of the widest element
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.coll_slice_bytes = 0;  // model-selected: always legal
  EXPECT_NO_THROW(t.validate());
  t.coll_device = mv2gnc::core::CollDevice::kPipelined;
  t.gpu_offload = false;  // nothing to pipeline without the device legs
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t.gpu_offload = true;
  EXPECT_NO_THROW(t.validate());
}
