// TCP transport tests: framing, loopback transport, and a real-socket
// cluster running the exact FastCast protocol objects the simulator runs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "fastcast/amcast/client_stub.hpp"
#include "fastcast/amcast/fastcast.hpp"
#include "fastcast/amcast/node.hpp"
#include "fastcast/checker/checker.hpp"
#include "fastcast/net/tcp_cluster.hpp"
#include "fastcast/net/timer_heap.hpp"
#include "fastcast/obs/observability.hpp"

namespace fastcast::net {
namespace {

TEST(TimerHeap, FiresInDeadlineOrderAndSkipsCancelled) {
  TimerHeap heap;
  std::vector<int> fired;
  heap.schedule(30, [&] { fired.push_back(3); });
  const TimerId cancelled = heap.schedule(10, [&] { fired.push_back(1); });
  heap.schedule(20, [&] { fired.push_back(2); });
  heap.cancel(cancelled);
  Time due = 0;
  ASSERT_TRUE(heap.next_due(due));
  EXPECT_EQ(due, 20);
  EXPECT_EQ(heap.fire_due(25), 1u);
  EXPECT_EQ(heap.fire_due(100), 1u);
  EXPECT_EQ(fired, (std::vector<int>{2, 3}));
  EXPECT_TRUE(heap.empty());
}

TEST(TimerHeap, CallbacksMayRescheduleReentrantly) {
  TimerHeap heap;
  int chain = 0;
  std::function<void()> arm = [&] {
    ++chain;
    if (chain < 5) heap.schedule(chain * 10, arm);
  };
  heap.schedule(0, arm);
  // Each fire_due call runs everything due so far, including re-arms that
  // came due within the same call.
  EXPECT_EQ(heap.fire_due(100), 5u);
  EXPECT_EQ(chain, 5);
}

TEST(TimerHeap, ArmAndCancelChurnDoesNotGrowHeapUnboundedly) {
  // Regression: the TCP runtime used to keep every cancelled TimerEntry in
  // its map forever, so failure-detector style arm-then-cancel churn leaked
  // one entry per round. The heap must stay bounded by the compaction
  // invariant: heap_size <= max(kCompactMin, 2 x armed) after any cancel.
  TimerHeap heap;
  std::vector<TimerId> standing;
  for (int i = 0; i < 100; ++i) {
    standing.push_back(heap.schedule(1'000'000 + i, [] {}));
  }
  for (int round = 0; round < 10'000; ++round) {
    const TimerId id = heap.schedule(2'000'000 + round, [] {});
    heap.cancel(id);
    const std::size_t bound =
        std::max(TimerHeap::kCompactMin, 2 * heap.armed());
    ASSERT_LE(heap.heap_size(), bound) << "round " << round;
  }
  EXPECT_EQ(heap.armed(), standing.size());
  // The standing timers are all still live and fire exactly once.
  EXPECT_EQ(heap.fire_due(3'000'000), standing.size());
}

TEST(TcpTransport, QueuesWhileUnreachableAndFlushesAfterReconnect) {
  AddressBook addresses;
  addresses.base_port = static_cast<std::uint16_t>(24000 + (::getpid() % 1000));

  TcpTransport sender(0, addresses);
  RetryPolicy retry;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 20;
  sender.set_retry_policy(retry);
  sender.listen();

  // Peer 1 is not listening yet: the frame must be queued, not dropped
  // (this was the startup message-loss bug), and connect attempts counted.
  sender.send(1, Message{RmAck{7, 9}});
  for (int i = 0; i < 10; ++i) {
    sender.flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(sender.stats().connect_failures, 0u);
  EXPECT_EQ(sender.stats().tx_frames_dropped, 0u);
  EXPECT_GT(sender.pending_bytes(), 0u);

  // Peer comes up; backoff reconnection must deliver the queued frame.
  TcpTransport receiver(1, addresses);
  receiver.listen();
  std::atomic<int> got{0};
  NodeId got_from = kInvalidNode;
  std::uint64_t got_seq = 0;
  receiver.set_receive([&](NodeId from, const Message& msg) {
    got_from = from;
    got_seq = std::get<RmAck>(msg.payload).seq;
    got.fetch_add(1);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    sender.poll_once(milliseconds(1));
    receiver.poll_once(milliseconds(1));
  }
  ASSERT_EQ(got.load(), 1);
  EXPECT_EQ(got_from, 0u);
  EXPECT_EQ(got_seq, 9u);
  EXPECT_EQ(sender.pending_bytes(), 0u);
  EXPECT_GE(sender.stats().reconnects, 1u);
  sender.close_all();
  receiver.close_all();
}

TEST(FrameParser, RoundTripsSingleFrame) {
  const Message msg{AmAck{make_msg_id(1, 2), 3, 4}};
  const auto frame = frame_message(msg);
  FrameParser parser;
  parser.feed(frame.data(), frame.size());
  const auto out = parser.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<AmAck>(out->payload).mid, make_msg_id(1, 2));
  EXPECT_FALSE(parser.next().has_value());
}

TEST(FrameParser, HandlesBytewiseDelivery) {
  const Message msg{RmAck{7, 8}};
  const auto frame = frame_message(msg);
  FrameParser parser;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_FALSE(parser.next().has_value());
    parser.feed(&frame[i], 1);
  }
  ASSERT_TRUE(parser.next().has_value());
}

TEST(FrameParser, HandlesCoalescedFrames) {
  std::vector<std::byte> stream;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto f = frame_message(Message{RmAck{1, i}});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameParser parser;
  parser.feed(stream.data(), stream.size());
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto out = parser.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(std::get<RmAck>(out->payload).seq, i);
  }
  EXPECT_FALSE(parser.next().has_value());
}

TEST(FrameParser, FlagsOversizedFrame) {
  std::vector<std::byte> bad(4);
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(bad.data(), &huge, 4);
  FrameParser parser;
  parser.feed(bad.data(), bad.size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.corrupted());
}

TEST(FrameParser, FlagsUndecodableBody) {
  std::vector<std::byte> frame(4 + 3);
  const std::uint32_t len = 3;
  std::memcpy(frame.data(), &len, 4);
  frame[4] = std::byte{255};  // unknown tag
  FrameParser parser;
  parser.feed(frame.data(), frame.size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.corrupted());
}

/// Allocates a fresh 16-port block so concurrently-lingering sockets from
/// earlier tests (TIME_WAIT) can never collide with a new listener.
std::uint16_t next_port_block() {
  static std::atomic<int> block{0};
  return static_cast<std::uint16_t>(21000 + (::getpid() % 500) * 16 +
                                    (block.fetch_add(1) % 512) * 16);
}

AddressBook fresh_addresses() {
  AddressBook addresses;
  addresses.base_port = next_port_block();
  return addresses;
}

/// End-to-end: two groups of three over real sockets, FastCast, one client
/// sending global messages; checker verifies the resulting history.
TEST(TcpCluster, RunsFastCastOverRealSockets) {
  Membership membership;
  membership.add_group(3, {0, 0, 0});
  membership.add_group(3, {0, 0, 0});
  const NodeId client_node = membership.add_client(0);

  TcpCluster::Config cfg;
  cfg.membership = membership;
  cfg.base_port = next_port_block();
  TcpCluster cluster(std::move(cfg));

  std::mutex mu;
  Checker checker(&membership);
  std::atomic<int> completions{0};

  // Replicas: plain FastCast over the group's consensus.
  for (NodeId n : membership.all_replicas()) {
    const GroupId g = membership.group_of(n);
    TimestampProtocolBase::Config pc;
    pc.group = g;
    pc.consensus.group = g;
    pc.consensus.members = membership.members(g);
    auto node = std::make_shared<ReplicaNode>(std::make_shared<FastCast>(pc, n));
    node->add_observer([&mu, &checker](Context& ctx, const MulticastMessage& m) {
      std::lock_guard<std::mutex> lock(mu);
      checker.note_delivery(ctx.self(), m.id);
    });
    cluster.add_process(n, node);
  }

  // Closed-loop client: 20 global messages, completing on the first ack.
  class TestClient : public Process {
   public:
    TestClient(std::mutex* mu, Checker* checker, std::atomic<int>* completions)
        : mu_(mu), checker_(checker), completions_(completions) {}
    void on_start(Context& ctx) override {
      stub_.on_start(ctx);
      send_next(ctx);
    }
    void on_message(Context& ctx, NodeId from, const Message& msg) override {
      if (const auto* ack = std::get_if<AmAck>(&msg.payload)) {
        if (ack->mid == outstanding_) {
          completions_->fetch_add(1);
          outstanding_ = 0;
          if (next_seq_ < 20) send_next(ctx);
        }
        return;
      }
      stub_.handle(ctx, from, msg);
    }

   private:
    void send_next(Context& ctx) {
      MulticastMessage m;
      m.id = make_msg_id(ctx.self(), next_seq_++);
      m.sender = ctx.self();
      m.dst = {0, 1};
      m.payload = "post";
      outstanding_ = m.id;
      {
        std::lock_guard<std::mutex> lock(*mu_);
        checker_->note_multicast(m);
      }
      stub_.amulticast(ctx, m);
    }
    GenuineClientStub stub_;
    std::mutex* mu_;
    Checker* checker_;
    std::atomic<int>* completions_;
    std::uint32_t next_seq_ = 0;
    MsgId outstanding_ = 0;
  };
  cluster.add_process(client_node,
                      std::make_shared<TestClient>(&mu, &checker, &completions));

  cluster.start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (completions.load() < 20 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Give stragglers (other replicas' deliveries) a moment, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  cluster.stop();

  EXPECT_EQ(completions.load(), 20);
  std::lock_guard<std::mutex> lock(mu);
  const auto report = checker.check(/*quiesced=*/true, Checker::Level::kFull);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? ""
                                                       : report.violations[0]);
  EXPECT_EQ(report.delivery_count, 20u * 6u);
}

/// A node is killed mid-run and restarted; no client message may be lost
/// (the acceptance bar for the transport retry queues + cluster recovery).
TEST(TcpCluster, SurvivesKilledAndRestartedNode) {
  Membership membership;
  membership.add_group(3, {0, 0, 0});
  membership.add_group(3, {0, 0, 0});
  const NodeId client_node = membership.add_client(0);
  const NodeId victim = 4;  // follower of group 1 (leader is node 3)

  TcpCluster::Config cfg;
  cfg.membership = membership;
  cfg.base_port = next_port_block();
  TcpCluster cluster(std::move(cfg));

  std::mutex mu;
  Checker checker(&membership);
  std::atomic<int> completions{0};

  for (NodeId n : membership.all_replicas()) {
    const GroupId g = membership.group_of(n);
    TimestampProtocolBase::Config pc;
    pc.group = g;
    pc.consensus.group = g;
    pc.consensus.members = membership.members(g);
    // Lossy-link machinery on: the victim's reconnect window behaves like
    // loss, and the restarted node relies on retransmission + catch-up.
    pc.consensus.reliable_links = false;
    pc.rmcast.reliable_links = false;
    pc.enable_repropose = true;
    auto node = std::make_shared<ReplicaNode>(std::make_shared<FastCast>(pc, n));
    node->add_observer([&mu, &checker](Context& ctx, const MulticastMessage& m) {
      std::lock_guard<std::mutex> lock(mu);
      checker.note_delivery(ctx.self(), m.id);
    });
    cluster.add_process(n, node);
  }

  // Closed-loop client pacing one global message per ~5ms so the kill and
  // the restart both land while traffic is in flight.
  class PacedClient : public Process {
   public:
    PacedClient(std::mutex* mu, Checker* checker, std::atomic<int>* completions)
        : mu_(mu), checker_(checker), completions_(completions) {}
    void on_start(Context& ctx) override {
      stub_.on_start(ctx);
      send_next(ctx);
    }
    void on_message(Context& ctx, NodeId from, const Message& msg) override {
      if (const auto* ack = std::get_if<AmAck>(&msg.payload)) {
        if (ack->mid == outstanding_) {
          completions_->fetch_add(1);
          outstanding_ = 0;
          if (next_seq_ < 30) {
            ctx.set_timer(milliseconds(5), [this, &ctx] { send_next(ctx); });
          }
        }
        return;
      }
      stub_.handle(ctx, from, msg);
    }

   private:
    void send_next(Context& ctx) {
      MulticastMessage m;
      m.id = make_msg_id(ctx.self(), next_seq_++);
      m.sender = ctx.self();
      m.dst = {0, 1};
      m.payload = "post";
      outstanding_ = m.id;
      {
        std::lock_guard<std::mutex> lock(*mu_);
        checker_->note_multicast(m);
      }
      stub_.amulticast(ctx, m);
    }
    GenuineClientStub stub_;
    std::mutex* mu_;
    Checker* checker_;
    std::atomic<int>* completions_;
    std::uint32_t next_seq_ = 0;
    MsgId outstanding_ = 0;
  };
  cluster.add_process(
      client_node, std::make_shared<PacedClient>(&mu, &checker, &completions));

  cluster.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool killed = false;
  bool restarted = false;
  while (completions.load() < 30 && std::chrono::steady_clock::now() < deadline) {
    if (!killed && completions.load() >= 8) {
      cluster.stop_node(victim);
      killed = true;
    }
    if (killed && !restarted && completions.load() >= 18) {
      cluster.restart_node(victim);
      restarted = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let the restarted node finish catching up before tearing down.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  cluster.stop();

  EXPECT_TRUE(killed);
  EXPECT_TRUE(restarted);
  // Zero lost client messages across the kill/restart.
  EXPECT_EQ(completions.load(), 30);
  std::lock_guard<std::mutex> lock(mu);
  // Safety-only: the restarted node may still be missing tail deliveries.
  const auto report = checker.check(/*quiesced=*/false, Checker::Level::kFull);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? ""
                                                       : report.violations[0]);
}

/// The node loop waits with nanosecond resolution, so a chain of 50 timers
/// of 100us finishes in about 5ms plus wakeup latency. Rounding each wait
/// up to whole milliseconds made the same chain take at least 50ms.
TEST(TcpCluster, SubMillisecondTimersFireOnTime) {
  Membership membership;
  membership.add_client(0);
  TcpCluster::Config cfg;
  cfg.membership = membership;
  cfg.base_port = next_port_block();
  TcpCluster cluster(std::move(cfg));

  class TimerChain : public Process {
   public:
    explicit TimerChain(std::atomic<Duration>* took) : took_(took) {}
    void on_start(Context& ctx) override {
      started_ = ctx.now();
      arm(ctx);
    }
    void on_message(Context&, NodeId, const Message&) override {}

   private:
    void arm(Context& ctx) {
      ctx.set_timer(microseconds(100), [this, &ctx] {
        if (++fired_ < 50) {
          arm(ctx);
        } else {
          took_->store(ctx.now() - started_);
        }
      });
    }
    std::atomic<Duration>* took_;
    Time started_ = 0;
    int fired_ = 0;
  };
  std::atomic<Duration> took{-1};
  cluster.add_process(0, std::make_shared<TimerChain>(&took));
  cluster.start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (took.load() < 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.stop();
  ASSERT_GE(took.load(), 0) << "the timer chain never finished";
  EXPECT_LT(took.load(), milliseconds(40));
}

TEST(TcpTransport, RebindsSamePortImmediatelyAfterDestroy) {
  const AddressBook addresses = fresh_addresses();
  // TcpCluster::restart_node rebinds a node's port right after its
  // transport closed, and listen() does not retry: SO_REUSEADDR covers
  // TIME_WAIT but not a socket still in LISTEN, so teardown must release
  // the listen socket synchronously.
  for (int round = 0; round < 5; ++round) {
    TcpTransport t(0, addresses);
    ASSERT_NO_THROW(t.listen()) << "round " << round;
    t.poll_once(0);  // the listen socket joins the pollfd array
  }  // the destructor must release the port synchronously
}

TEST(TcpTransport, DeliversBidirectionalTrafficInOrder) {
  const AddressBook addresses = fresh_addresses();
  TcpTransport a(0, addresses);
  TcpTransport b(1, addresses);
  a.listen();
  b.listen();

  constexpr std::uint64_t kCount = 300;
  std::vector<std::uint64_t> a_got, b_got;
  a.set_receive([&](NodeId from, const Message& msg) {
    EXPECT_EQ(from, 1u);
    a_got.push_back(std::get<RmAck>(msg.payload).seq);
  });
  b.set_receive([&](NodeId from, const Message& msg) {
    EXPECT_EQ(from, 0u);
    b_got.push_back(std::get<RmAck>(msg.payload).seq);
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    a.send(1, Message{RmAck{0, i}});
    b.send(0, Message{RmAck{1, i}});
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((a_got.size() < kCount || b_got.size() < kCount) &&
         std::chrono::steady_clock::now() < deadline) {
    a.poll_once(milliseconds(1));
    b.poll_once(milliseconds(1));
  }
  ASSERT_EQ(a_got.size(), kCount);
  ASSERT_EQ(b_got.size(), kCount);
  // TCP + per-peer FIFO queues: sequences arrive exactly in send order.
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(a_got[i], i);
    EXPECT_EQ(b_got[i], i);
  }
  a.close_all();
  b.close_all();
}

TEST(TcpTransport, ReassemblesLargeAndCoalescedFrames) {
  const AddressBook addresses = fresh_addresses();
  // Mixes >kMaxIov tiny frames (multi-sendmsg batching, head_offset
  // bookkeeping) with multi-megabyte frames (bigger than the socket
  // buffer, so the stream fragments and the parser must reassemble across
  // many armed receives).
  TcpTransport sender(0, addresses);
  TcpTransport receiver(1, addresses);
  sender.listen();
  receiver.listen();

  constexpr int kSmall = 200;  // > kMaxIov, forces several gather batches
  constexpr int kLarge = 4;
  const std::string blob(1 << 20, 'x');

  std::mutex mu;
  std::vector<std::uint64_t> small_seqs;
  int large_ok = 0;
  receiver.set_receive([&](NodeId from, const Message& msg) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(from, 0u);
    if (const auto* ack = std::get_if<RmAck>(&msg.payload)) {
      small_seqs.push_back(ack->seq);
      return;
    }
    const auto& data = std::get<RmData>(msg.payload);
    const auto& mm = std::get<AmStart>(data.inner).msg;
    if (mm.payload == blob) ++large_ok;
  });

  // Receiver drains on its own thread so the sender's blocking writes
  // always make progress (each object stays single-threaded).
  std::atomic<bool> stop{false};
  std::thread rx([&] {
    while (!stop.load()) receiver.poll_once(milliseconds(1));
    receiver.close_all();
  });

  for (std::uint64_t i = 0; i < kSmall; ++i) {
    sender.send(1, Message{RmAck{0, i}});
  }
  for (int i = 0; i < kLarge; ++i) {
    RmData d;
    d.origin = 0;
    d.seq = static_cast<std::uint64_t>(i);
    MulticastMessage mm;
    mm.id = make_msg_id(0, static_cast<std::uint32_t>(i));
    mm.sender = 0;
    mm.dst = {0};
    mm.payload = blob;
    d.inner = AmStart{std::move(mm)};
    sender.send(1, Message{std::move(d)});
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool done = false;
  while (!done && std::chrono::steady_clock::now() < deadline) {
    sender.poll_once(milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    done = small_seqs.size() == kSmall && large_ok == kLarge;
  }
  stop.store(true);
  rx.join();
  sender.close_all();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(small_seqs.size(), static_cast<std::size_t>(kSmall));
  for (std::uint64_t i = 0; i < kSmall; ++i) EXPECT_EQ(small_seqs[i], i);
  EXPECT_EQ(large_ok, kLarge);
}

TEST(TcpTransport, ShedsQueueBeyondBudgetWhileUnreachable) {
  const AddressBook addresses = fresh_addresses();
  TcpTransport sender(0, addresses);
  RetryPolicy rp;
  rp.base_backoff_ms = 1;
  rp.max_queued_bytes = 4 * 1024;
  sender.set_retry_policy(rp);
  sender.listen();

  // Peer 1 never listens: frames queue up to the budget, then shed.
  for (std::uint64_t i = 0; i < 2000; ++i) {
    sender.send(1, Message{RmAck{0, i}});
  }
  EXPECT_GT(sender.stats().connect_failures, 0u);
  EXPECT_GT(sender.stats().tx_frames_dropped, 0u);
  // The queue itself stays bounded (one in-flight frame of slack).
  EXPECT_LE(sender.pending_bytes(), rp.max_queued_bytes + 256);
  sender.close_all();
}

TEST(TcpTransport, ShedExportsCountersAndGaugesThenRecovers) {
  const AddressBook addresses = fresh_addresses();
  // The backpressure telemetry contract: while a peer is unreachable the
  // tx queue gauge tracks pending bytes up to the budget, overflow lands
  // in net.tx_frames_dropped, and once the peer appears the queue drains —
  // gauge back to zero, frames delivered — without recreating the
  // transport.
  obs::Observability obs;
  TcpTransport sender(0, addresses);
  RetryPolicy rp;
  rp.base_backoff_ms = 1;
  rp.max_backoff_ms = 20;
  rp.max_queued_bytes = 4 * 1024;
  sender.set_retry_policy(rp);
  sender.set_observability(&obs);
  sender.listen();

  for (std::uint64_t i = 0; i < 2000; ++i) {
    sender.send(1, Message{RmAck{0, i}});
  }
  EXPECT_GT(obs.metrics.counter_value("net.tx_frames_dropped"), 0u);
  EXPECT_EQ(obs.metrics.gauge_value("net.tx_queued_bytes"),
            static_cast<std::int64_t>(sender.pending_bytes()));
  EXPECT_GT(obs.metrics.gauge_value("net.tx_queued_bytes"), 0);
  EXPECT_LE(obs.metrics.gauge_value("net.tx_queued_bytes"),
            static_cast<std::int64_t>(rp.max_queued_bytes + 256));
  EXPECT_GE(obs.metrics.gauge_value("net.tx_queued_bytes_hwm"),
            obs.metrics.gauge_value("net.tx_queued_bytes"));

  // Peer appears: the surviving queue must flush and the gauge drain to 0.
  TcpTransport receiver(1, addresses);
  receiver.listen();
  std::atomic<std::uint64_t> got{0};
  receiver.set_receive([&](NodeId, const Message&) { got.fetch_add(1); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((got.load() == 0 || sender.pending_bytes() > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    sender.poll_once(milliseconds(1));
    receiver.poll_once(milliseconds(1));
  }
  EXPECT_GT(got.load(), 0u);
  EXPECT_EQ(sender.pending_bytes(), 0u);
  EXPECT_EQ(obs.metrics.gauge_value("net.tx_queued_bytes"), 0);
  EXPECT_GT(obs.metrics.gauge_value("net.tx_queued_bytes_hwm"), 0);
  sender.close_all();
  receiver.close_all();
}

TEST(TcpTransport, ReconnectsWithBackoffAfterPeerRestart) {
  const AddressBook addresses = fresh_addresses();
  TcpTransport sender(0, addresses);
  RetryPolicy rp;
  rp.base_backoff_ms = 1;
  rp.max_backoff_ms = 20;
  sender.set_retry_policy(rp);
  sender.listen();

  std::atomic<std::uint64_t> got{0};
  auto make_receiver = [&] {
    auto r = std::make_unique<TcpTransport>(1, addresses);
    r->set_retry_policy(rp);
    r->listen();
    r->set_receive(
        [&](NodeId, const Message&) { got.fetch_add(1); });
    return r;
  };

  auto receiver = make_receiver();
  sender.send(1, Message{RmAck{0, 1}});
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    sender.poll_once(milliseconds(1));
    receiver->poll_once(milliseconds(1));
  }
  ASSERT_EQ(got.load(), 1u);

  // Kill the receiver; keep sending until the sender notices the loss.
  receiver->close_all();
  receiver.reset();
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t seq = 2;
  while (sender.stats().disconnects == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    sender.send(1, Message{RmAck{0, seq++}});
    sender.poll_once(milliseconds(1));
  }
  ASSERT_GE(sender.stats().disconnects, 1u);

  // Peer returns: backoff reconnect must flush the queued tail.
  receiver = make_receiver();
  const std::uint64_t before = got.load();
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.load() == before &&
         std::chrono::steady_clock::now() < deadline) {
    sender.poll_once(milliseconds(1));
    receiver->poll_once(milliseconds(1));
  }
  EXPECT_GT(got.load(), before);
  EXPECT_GE(sender.stats().reconnects, 1u);
  sender.close_all();
  receiver->close_all();
}

/// Regression for a reconnect-accounting bug: try_connect consulted the *global* disconnect counter, so
/// once any peer had dropped, a clean first-try connect to a brand-new
/// peer was miscounted as a reconnect.
TEST(TcpTransport, FirstConnectToNewPeerIsNotAReconnect) {
  const AddressBook addresses = fresh_addresses();
  TcpTransport sender(0, addresses);
  RetryPolicy rp;
  rp.base_backoff_ms = 1;
  sender.set_retry_policy(rp);
  sender.listen();

  std::atomic<std::uint64_t> got1{0}, got2{0};
  {
    TcpTransport rx1(1, addresses);
    rx1.listen();
    rx1.set_receive([&](NodeId, const Message&) { got1.fetch_add(1); });
    sender.send(1, Message{RmAck{0, 1}});
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (got1.load() == 0 && std::chrono::steady_clock::now() < deadline) {
      sender.poll_once(milliseconds(1));
      rx1.poll_once(milliseconds(1));
    }
    ASSERT_EQ(got1.load(), 1u);
    rx1.close_all();
  }
  // Provoke the disconnect so the global counter is non-zero.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t seq = 2;
  while (sender.stats().disconnects == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    sender.send(1, Message{RmAck{0, seq++}});
    sender.poll_once(milliseconds(1));
  }
  ASSERT_GE(sender.stats().disconnects, 1u);
  const std::uint64_t reconnects_before = sender.stats().reconnects;

  // Fresh peer 2, already listening: its first-try connect is clean and
  // must not bump the reconnect counter.
  TcpTransport rx2(2, addresses);
  rx2.listen();
  rx2.set_receive([&](NodeId, const Message&) { got2.fetch_add(1); });
  sender.send(2, Message{RmAck{0, 100}});
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got2.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    sender.poll_once(milliseconds(1));
    rx2.poll_once(milliseconds(1));
  }
  ASSERT_EQ(got2.load(), 1u);
  EXPECT_EQ(sender.stats().reconnects, reconnects_before);
  sender.close_all();
  rx2.close_all();
}

}  // namespace
}  // namespace fastcast::net
