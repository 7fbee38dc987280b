// FIFO reliable multicast tests: FIFO order, dedup, validity, relaying on
// origin crash, retransmission over lossy links, and the receiver's
// in-place / holdback paths driven frame by frame.

#include <gtest/gtest.h>

#include <map>

#include "fastcast/obs/observability.hpp"
#include "fastcast/rmcast/reliable_multicast.hpp"
#include "fastcast/sim/simulator.hpp"

namespace fastcast {
namespace {

using sim::ConstantLatency;
using sim::SimConfig;
using sim::Simulator;

/// Test node hosting one ReliableMulticast endpoint.
class RmNode : public Process {
 public:
  explicit RmNode(RmConfig cfg = {}) : rm(cfg) {
    rm.set_deliver([this](Context&, NodeId origin, const AmcastPayload& p) {
      deliveries.push_back({origin, std::get<AmStart>(p).msg.id});
    });
  }

  void on_start(Context& ctx) override {
    rm.on_start(ctx);
    if (start_hook) start_hook(ctx);
  }
  void on_message(Context& ctx, NodeId from, const Message& msg) override {
    EXPECT_TRUE(rm.handle(ctx, from, msg)) << "unexpected message";
  }

  static AmcastPayload payload(NodeId sender, std::uint32_t seq) {
    MulticastMessage m;
    m.id = make_msg_id(sender, seq);
    m.sender = sender;
    m.dst = {0};
    m.payload = "x";
    return AmStart{m};
  }

  ReliableMulticast rm;
  std::function<void(Context&)> start_hook;
  std::vector<std::pair<NodeId, MsgId>> deliveries;
};

/// 2 groups of 3 plus one client (node 6).
Membership standard_membership() {
  Membership m;
  m.add_group(3, {0, 0, 0});
  m.add_group(3, {0, 0, 0});
  m.add_client(0);
  return m;
}

struct Fixture {
  explicit Fixture(RmConfig cfg = {}, SimConfig sim_cfg = {})
      : membership(standard_membership()),
        sim(membership, std::make_unique<ConstantLatency>(milliseconds(1), 0.05),
            sim_cfg) {
    for (NodeId n = 0; n < 7; ++n) {
      nodes.push_back(std::make_shared<RmNode>(cfg));
      sim.add_process(n, nodes.back());
    }
  }
  Membership membership;
  Simulator sim;
  std::vector<std::shared_ptr<RmNode>> nodes;
};

TEST(ReliableMulticast, DeliversToEveryDestinationGroupMember) {
  Fixture f;
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    f.nodes[6]->rm.multicast(ctx, {0, 1}, RmNode::payload(6, 0));
  };
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 0; n < 6; ++n) {
    ASSERT_EQ(f.nodes[n]->deliveries.size(), 1u) << "node " << n;
    EXPECT_EQ(f.nodes[n]->deliveries[0].second, make_msg_id(6, 0));
  }
  EXPECT_TRUE(f.nodes[6]->deliveries.empty());  // client is not a destination
}

TEST(ReliableMulticast, FifoOrderPerOrigin) {
  Fixture f;
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    for (std::uint32_t i = 0; i < 50; ++i) {
      f.nodes[6]->rm.multicast(ctx, {0}, RmNode::payload(6, i));
    }
  };
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_EQ(f.nodes[n]->deliveries.size(), 50u);
    for (std::uint32_t i = 0; i < 50; ++i) {
      EXPECT_EQ(f.nodes[n]->deliveries[i].second, make_msg_id(6, i));
    }
  }
}

TEST(ReliableMulticast, FifoHoldsAcrossDifferentDestinationSets) {
  // Interleave sends to {0}, {1}, {0,1}; each receiver must see its subset
  // in send order.
  Fixture f;
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    auto& rm = f.nodes[6]->rm;
    rm.multicast(ctx, {0}, RmNode::payload(6, 0));
    rm.multicast(ctx, {1}, RmNode::payload(6, 1));
    rm.multicast(ctx, {0, 1}, RmNode::payload(6, 2));
    rm.multicast(ctx, {1}, RmNode::payload(6, 3));
    rm.multicast(ctx, {0}, RmNode::payload(6, 4));
  };
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 0; n < 3; ++n) {
    std::vector<MsgId> got;
    for (auto& d : f.nodes[n]->deliveries) got.push_back(d.second);
    EXPECT_EQ(got, (std::vector<MsgId>{make_msg_id(6, 0), make_msg_id(6, 2),
                                       make_msg_id(6, 4)}));
  }
  for (NodeId n = 3; n < 6; ++n) {
    std::vector<MsgId> got;
    for (auto& d : f.nodes[n]->deliveries) got.push_back(d.second);
    EXPECT_EQ(got, (std::vector<MsgId>{make_msg_id(6, 1), make_msg_id(6, 2),
                                       make_msg_id(6, 3)}));
  }
}

TEST(ReliableMulticast, TwoOriginsIndependentFifoStreams) {
  Fixture f;
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      f.nodes[0]->rm.multicast(ctx, {1}, RmNode::payload(0, i));
    }
  };
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      f.nodes[6]->rm.multicast(ctx, {1}, RmNode::payload(6, i));
    }
  };
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 3; n < 6; ++n) {
    std::uint32_t next0 = 0, next6 = 0;
    for (auto& [origin, mid] : f.nodes[n]->deliveries) {
      if (origin == 0) {
        EXPECT_EQ(mid, make_msg_id(0, next0++));
      }
      if (origin == 6) {
        EXPECT_EQ(mid, make_msg_id(6, next6++));
      }
    }
    EXPECT_EQ(next0, 10u);
    EXPECT_EQ(next6, 10u);
  }
}

TEST(ReliableMulticast, LossyLinksStillDeliverWithRetransmission) {
  RmConfig cfg;
  cfg.reliable_links = false;
  cfg.retransmit_interval = milliseconds(10);
  SimConfig sim_cfg;
  sim_cfg.drop_probability = 0.3;
  Fixture f(cfg, sim_cfg);
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    for (std::uint32_t i = 0; i < 20; ++i) {
      f.nodes[6]->rm.multicast(ctx, {0, 1}, RmNode::payload(6, i));
    }
  };
  f.sim.start();
  f.sim.run_until(seconds(5));
  for (NodeId n = 0; n < 6; ++n) {
    ASSERT_EQ(f.nodes[n]->deliveries.size(), 20u) << "node " << n;
    for (std::uint32_t i = 0; i < 20; ++i) {
      EXPECT_EQ(f.nodes[n]->deliveries[i].second, make_msg_id(6, i));
    }
  }
}

TEST(ReliableMulticast, RelayCoversOriginCrashMidMulticast) {
  // The origin's copies to group 1 are cut by a partition just after the
  // copies to group 0 leave; with Relay::kSelf the group-0 receivers relay
  // and group 1 still delivers (non-uniform agreement).
  RmConfig cfg;
  cfg.relay = RmConfig::Relay::kSelf;
  Fixture f(cfg);
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    f.nodes[6]->rm.multicast(ctx, {0, 1}, RmNode::payload(6, 0));
  };
  // Drop the origin's copies to nodes 3..5 (group 1); relays are allowed.
  f.sim.set_link_filter([](NodeId from, NodeId to, Time) {
    return !(from == 6 && to >= 3 && to <= 5);
  });
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 0; n < 6; ++n) {
    ASSERT_EQ(f.nodes[n]->deliveries.size(), 1u) << "node " << n;
  }
}

TEST(ReliableMulticast, NoDuplicateDeliveriesUnderRelaying) {
  RmConfig cfg;
  cfg.relay = RmConfig::Relay::kSelf;
  Fixture f(cfg);
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      f.nodes[6]->rm.multicast(ctx, {0, 1}, RmNode::payload(6, i));
    }
  };
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 0; n < 6; ++n) {
    EXPECT_EQ(f.nodes[n]->deliveries.size(), 10u) << "node " << n;
  }
}

TEST(ReliableMulticast, SelfDeliveryWhenOriginIsDestination) {
  Fixture f;
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    f.nodes[0]->rm.multicast(ctx, {0}, RmNode::payload(0, 0));
  };
  f.sim.start();
  f.sim.run_to_idle();
  ASSERT_EQ(f.nodes[0]->deliveries.size(), 1u);
  EXPECT_EQ(f.nodes[0]->deliveries[0].first, 0u);
}

TEST(ReliableMulticast, HoldbackBuffersOutOfOrderArrival) {
  // Send two messages; partition delays the first copy so the second
  // arrives first and must be held back.
  Fixture f;
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    f.nodes[6]->rm.multicast(ctx, {0}, RmNode::payload(6, 0));
    ctx.set_timer(milliseconds(5), [&f, &ctx] {
      f.nodes[6]->rm.multicast(ctx, {0}, RmNode::payload(6, 1));
    });
  };
  // Delay: drop seq-1 copies before t=2ms... instead block node 0 only.
  // Simpler: nothing to do — jitter cannot reorder by design here, so this
  // test exercises the holdback structurally via a filter that drops the
  // first transmission window to node 0.
  bool dropped_once = false;
  f.sim.set_link_filter([&dropped_once](NodeId from, NodeId to, Time) mutable {
    if (from == 6 && to == 0 && !dropped_once) {
      dropped_once = true;
      return false;
    }
    return true;
  });
  RmConfig lossy;
  (void)lossy;
  f.sim.start();
  f.sim.run_until(seconds(1));
  // Node 0 misses message 0 forever (no retransmission configured): it must
  // deliver nothing rather than deliver message 1 out of order.
  EXPECT_TRUE(f.nodes[0]->deliveries.empty());
  ASSERT_EQ(f.nodes[1]->deliveries.size(), 2u);
  EXPECT_GT(f.nodes[0]->rm.holdback_size(), 0u);
}

// ---------------------------------------------------------------------------
// Frame-level tests: a fake context records every send (copying the Message
// at send time, as every real context does) and frames are handed to the
// receiver directly, so arrival order is exact.

class RecordingContext final : public Context {
 public:
  explicit RecordingContext(NodeId self) : self_(self) {
    membership_ = standard_membership();
  }
  NodeId self() const override { return self_; }
  Time now() const override { return 0; }
  void send(NodeId to, const Message& msg) override { sent.push_back({to, msg}); }
  TimerId set_timer(Duration, std::function<void()>) override { return 1; }
  void cancel_timer(TimerId) override {}
  Rng& rng() override { return rng_; }
  const Membership& membership() const override { return membership_; }

  std::vector<std::pair<NodeId, Message>> sent;

 private:
  NodeId self_;
  Rng rng_;
  Membership membership_;
};

/// Frame `seq` of origin 6's stream to node 0, carrying message (6, seq).
Message frame_from_client(std::uint64_t seq) {
  RmData d;
  d.origin = 6;
  d.seq = seq;
  d.dst_groups = {0};
  d.dest_nodes = {0};
  d.dest_seqs = {seq};
  d.inner = RmNode::payload(6, static_cast<std::uint32_t>(seq));
  return Message{d};
}

std::vector<MsgId> delivered_ids(const RmNode& node) {
  std::vector<MsgId> out;
  for (const auto& [origin, mid] : node.deliveries) out.push_back(mid);
  return out;
}

TEST(ReliableMulticastFrames, InOrderFrameIsDeliveredInPlace) {
  RecordingContext ctx(0);
  obs::Observability o;
  ctx.set_observability(&o);
  RmNode node;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    EXPECT_TRUE(node.rm.handle(ctx, 6, frame_from_client(seq)));
    // Delivered during the handler, nothing parked.
    EXPECT_EQ(node.deliveries.size(), seq);
    EXPECT_EQ(node.rm.holdback_size(), 0u);
    EXPECT_EQ(node.rm.next_expected_from(6), seq + 1);
  }
  EXPECT_EQ(delivered_ids(node), (std::vector<MsgId>{make_msg_id(6, 1),
                                                     make_msg_id(6, 2),
                                                     make_msg_id(6, 3)}));
  // holdback_max counts only out-of-order frames: none here.
  EXPECT_EQ(o.metrics.gauge("rmcast.holdback_max").value(), 0);
  EXPECT_TRUE(ctx.sent.empty());  // reliable links: no acks
}

TEST(ReliableMulticastFrames, OutOfOrderArrivalWaitsForTheGapFiller) {
  RecordingContext ctx(0);
  obs::Observability o;
  ctx.set_observability(&o);
  RmNode node;
  node.rm.handle(ctx, 6, frame_from_client(1));
  node.rm.handle(ctx, 6, frame_from_client(3));
  node.rm.handle(ctx, 6, frame_from_client(4));
  EXPECT_EQ(delivered_ids(node), (std::vector<MsgId>{make_msg_id(6, 1)}));
  EXPECT_EQ(node.rm.holdback_size(), 2u);
  EXPECT_EQ(o.metrics.gauge("rmcast.holdback_max").value(), 2);

  // The gap filler is delivered first, then the parked successors, FIFO.
  node.rm.handle(ctx, 6, frame_from_client(2));
  EXPECT_EQ(delivered_ids(node), (std::vector<MsgId>{make_msg_id(6, 1),
                                                     make_msg_id(6, 2),
                                                     make_msg_id(6, 3),
                                                     make_msg_id(6, 4)}));
  EXPECT_EQ(node.rm.holdback_size(), 0u);
  EXPECT_EQ(node.rm.next_expected_from(6), 5u);
}

TEST(ReliableMulticastFrames, DuplicatesAreDropped) {
  RecordingContext ctx(0);
  RmNode node;
  node.rm.handle(ctx, 6, frame_from_client(1));
  node.rm.handle(ctx, 6, frame_from_client(1));  // already delivered
  node.rm.handle(ctx, 6, frame_from_client(3));
  node.rm.handle(ctx, 6, frame_from_client(3));  // already parked
  EXPECT_EQ(node.deliveries.size(), 1u);
  EXPECT_EQ(node.rm.holdback_size(), 1u);
  node.rm.handle(ctx, 6, frame_from_client(2));
  node.rm.handle(ctx, 6, frame_from_client(2));
  node.rm.handle(ctx, 6, frame_from_client(3));
  EXPECT_EQ(delivered_ids(node), (std::vector<MsgId>{make_msg_id(6, 1),
                                                     make_msg_id(6, 2),
                                                     make_msg_id(6, 3)}));
}

TEST(ReliableMulticastFrames, SharedFanOutGivesEachDestinationItsOwnSeq) {
  // The origin builds one Message per multicast and patches RmData::seq
  // between sends; every copy on the wire must carry its own destination's
  // sequence number and the same frame otherwise.
  RecordingContext ctx(6);
  ReliableMulticast rm;
  rm.multicast(ctx, {1}, RmNode::payload(6, 0));     // nodes 3..5: seq 1
  rm.multicast(ctx, {0, 1}, RmNode::payload(6, 1));  // 0..2: seq 1; 3..5: seq 2
  ASSERT_EQ(ctx.sent.size(), 9u);

  std::map<NodeId, std::vector<std::uint64_t>> seqs;
  for (const auto& [to, msg] : ctx.sent) {
    const auto& d = std::get<RmData>(msg.payload);
    ASSERT_EQ(d.dest_nodes.size(), d.dest_seqs.size());
    std::size_t i = 0;
    while (i < d.dest_nodes.size() && d.dest_nodes[i] != to) ++i;
    ASSERT_LT(i, d.dest_nodes.size()) << "copy sent to a non-destination";
    EXPECT_EQ(d.seq, d.dest_seqs[i]) << "copy to node " << to;
    EXPECT_EQ(d.origin, 6u);
    seqs[to].push_back(d.seq);
  }
  for (NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(seqs[n], (std::vector<std::uint64_t>{1})) << "node " << n;
  }
  for (NodeId n : {3u, 4u, 5u}) {
    EXPECT_EQ(seqs[n], (std::vector<std::uint64_t>{1, 2})) << "node " << n;
  }
  // The global frame lists every destination with its own seq.
  const auto& global = std::get<RmData>(ctx.sent.back().second.payload);
  EXPECT_EQ(global.dst_groups, (GroupSet{0, 1}));
  EXPECT_EQ(global.dest_nodes, (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(global.dest_seqs, (std::vector<std::uint64_t>{1, 1, 1, 2, 2, 2}));

  // Each receiver delivers its copy in place, in its own FIFO order.
  for (NodeId n = 0; n < 6; ++n) {
    RecordingContext rctx(n);
    RmNode receiver;
    for (const auto& [to, msg] : ctx.sent) {
      if (to == n) receiver.rm.handle(rctx, 6, msg);
    }
    EXPECT_EQ(receiver.deliveries.size(), n < 3 ? 1u : 2u) << "node " << n;
    EXPECT_EQ(receiver.rm.holdback_size(), 0u);
  }
}

}  // namespace
}  // namespace fastcast
