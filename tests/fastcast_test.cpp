// FastCast-specific behaviour: the fast path's 4δ latency, Task-6
// matching, guess accuracy, the forced-slow-path ablation, equivalence of
// delivered orders with BaseCast semantics, and the timestamp protocols'
// per-message bookkeeping (settled frontier, ToOrder, bounded state).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "fastcast/harness/experiment.hpp"

namespace fastcast::harness {
namespace {

ExperimentConfig wan_config(Protocol proto, std::size_t groups, std::size_t clients) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kEmulatedWan;
  cfg.topo.groups = groups;
  cfg.topo.clients = clients;
  cfg.topo.protocol = proto;
  cfg.warmup = milliseconds(300);
  cfg.measure = seconds(2);
  cfg.check_level = Checker::Level::kFull;
  return cfg;
}

TEST(FastCast, FourDeltaFastPathInWan) {
  // Fast path ≈ 1 RTT (two of the four delays are intra-region), versus
  // BaseCast's ≈ 2 RTT — Proposition 2.
  auto cfg = wan_config(Protocol::kFastCast, 2, 1);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  const auto r = run_experiment(cfg);
  ASSERT_GT(r.latency.count(), 10u);
  EXPECT_GT(to_milliseconds(r.latency.median()), 55.0);
  EXPECT_LT(to_milliseconds(r.latency.median()), 95.0);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_GT(r.fast_path_hits, 0u);
  EXPECT_EQ(r.slow_path_hits, 0u);  // quiet run: every guess matches
}

TEST(FastCast, FastPathHoldsUpTo16Groups) {
  for (std::size_t g : {4, 16}) {
    auto cfg = wan_config(Protocol::kFastCast, g, 1);
    cfg.dst_factory = same_dst_for_all(all_groups(g));
    const auto r = run_experiment(cfg);
    ASSERT_GT(r.latency.count(), 10u) << g << " groups";
    EXPECT_LT(to_milliseconds(r.latency.median()), 100.0) << g << " groups";
    EXPECT_TRUE(r.report.ok) << g << " groups";
  }
}

TEST(FastCast, ForcedSlowPathFallsBackToSixDelta) {
  auto cfg = wan_config(Protocol::kFastCastSlowPath, 2, 1);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  const auto r = run_experiment(cfg);
  ASSERT_GT(r.latency.count(), 5u);
  EXPECT_GT(to_milliseconds(r.latency.median()), 120.0);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_EQ(r.fast_path_hits, 0u);  // wrong guesses never match
  EXPECT_GT(r.slow_path_hits, 0u);
}

TEST(FastCast, ForcedSlowPathStillSatisfiesAllProperties) {
  auto cfg = wan_config(Protocol::kFastCastSlowPath, 3, 6);
  cfg.topo.env = Environment::kLan;
  cfg.warmup = milliseconds(10);
  cfg.measure = milliseconds(200);
  cfg.dst_factory = same_dst_for_all(random_subset(3, 2));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
}

TEST(FastCast, LocalMessagesTakeThreeDeltas) {
  auto cfg = wan_config(Protocol::kFastCast, 2, 1);
  cfg.dst_factory = same_dst_for_all(fixed_group(1));
  const auto r = run_experiment(cfg);
  ASSERT_GT(r.latency.count(), 10u);
  EXPECT_LT(to_milliseconds(r.latency.median()), 90.0);  // 1 consensus ≈ 1 RTT
  EXPECT_EQ(r.fast_path_hits, 0u);  // the fast path only exists for globals
}

TEST(FastCast, GuessesMatchInQuietRuns) {
  auto cfg = wan_config(Protocol::kFastCast, 2, 1);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(seconds(1));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(60)));
  std::uint64_t guesses = 0, mismatches = 0;
  for (NodeId n : cluster.deployment().membership.all_replicas()) {
    if (auto* fc = dynamic_cast<FastCast*>(&cluster.replica(n).protocol())) {
      guesses += fc->guesses_sent();
      mismatches += fc->guess_mismatches();
    }
  }
  EXPECT_GT(guesses, 10u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(FastCast, ConcurrentClientsMostlyFastPath) {
  auto cfg = wan_config(Protocol::kFastCast, 2, 8);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  // Under moderate concurrency the leader's batch-order guesses still
  // track the decision order: most SYNC-HARDs match via Task 6.
  EXPECT_GT(r.fast_path_hits, r.slow_path_hits);
}

TEST(FastCast, SlowPathCorrectnessUnderConcurrency) {
  auto cfg = wan_config(Protocol::kFastCastSlowPath, 4, 8);
  cfg.dst_factory = same_dst_for_all(random_subset(4, 2));
  cfg.measure = seconds(1);
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_EQ(r.fast_path_hits, 0u);
}

TEST(FastCast, FastAndSlowPathsDeliverConsistentCrossGroupOrders) {
  // Run the same workload twice — fast path on and forced slow — and check
  // both produce property-clean histories (the orders themselves may
  // differ; atomic multicast does not fix a unique order).
  for (Protocol proto : {Protocol::kFastCast, Protocol::kFastCastSlowPath}) {
    auto cfg = wan_config(proto, 3, 4);
    cfg.topo.env = Environment::kLan;
    cfg.warmup = milliseconds(10);
    cfg.measure = milliseconds(150);
    cfg.seed = 99;
    cfg.dst_factory = same_dst_for_all(random_subset(3, 2));
    const auto r = run_experiment(cfg);
    EXPECT_TRUE(r.report.ok) << to_string(proto);
  }
}

TEST(FastCast, EagerHardProposalModeIsEquallyCorrect) {
  // The Algorithm-2-verbatim variant (no SYNC-HARD deferral) must satisfy
  // the same properties; only performance differs (see bench/ablations).
  auto cfg = wan_config(Protocol::kFastCast, 3, 6);
  cfg.topo.env = Environment::kLan;
  cfg.warmup = milliseconds(10);
  cfg.measure = milliseconds(200);
  cfg.fastcast_eager_hard = true;
  cfg.dst_factory = same_dst_for_all(random_subset(3, 2));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_GT(r.fast_path_hits, 0u);
}

TEST(FastCast, SoftClockNeverTrailsHardClock) {
  auto cfg = wan_config(Protocol::kFastCast, 2, 4);
  cfg.topo.env = Environment::kLan;
  cfg.warmup = milliseconds(10);
  cfg.measure = milliseconds(150);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(milliseconds(160));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  for (NodeId n : cluster.deployment().membership.all_replicas()) {
    auto* fc = dynamic_cast<FastCast*>(&cluster.replica(n).protocol());
    ASSERT_NE(fc, nullptr);
    if (fc->guesses_sent() > 0) {  // only the leader advances CS
      EXPECT_GE(fc->soft_clock(), fc->hard_clock());
    }
  }
}

TimestampProtocolBase& timestamp_protocol(Cluster& cluster, NodeId n) {
  auto* proto =
      dynamic_cast<TimestampProtocolBase*>(&cluster.replica(n).protocol());
  FC_ASSERT(proto != nullptr);
  return *proto;
}

TEST(TimestampProtocol, SettledFrontierMatchesPerInstanceSetReference) {
  // Reference model: the frontier is the lowest decided instance holding a
  // tuple whose message is still undelivered here, else the learner's
  // cursor — computed from per-instance message sets, fed by a shadow
  // learner that sees every P2b vote sent to the replica.
  auto cfg = wan_config(Protocol::kFastCast, 3, 8);
  cfg.topo.env = Environment::kLan;
  cfg.repair.enable = true;
  cfg.dst_factory = same_dst_for_all(random_subset(3, 2));
  Cluster cluster(cfg);
  sim::Simulator& sim = cluster.simulator();

  struct Reference {
    TimestampProtocolBase* proto = nullptr;
    std::unique_ptr<paxos::Learner> shadow;
    std::map<InstanceId, std::set<MsgId>> pending;

    InstanceId frontier() {
      const InstanceId cursor = proto->consensus().learner().next_to_deliver();
      for (auto it = pending.begin(); it != pending.end();) {
        std::erase_if(it->second, [this](MsgId mid) {
          return proto->buffer().was_delivered(mid);
        });
        if (!it->second.empty()) return std::min(it->first, cursor);
        it = pending.erase(it);
      }
      return cursor;
    }
  };
  std::map<NodeId, Reference> refs;
  for (NodeId n : cluster.deployment().membership.all_replicas()) {
    Reference& ref = refs[n];
    ref.proto = &timestamp_protocol(cluster, n);
    ref.shadow = std::make_unique<paxos::Learner>(
        ref.proto->consensus().config().members);
    ref.shadow->set_decide(
        [&ref](InstanceId inst, const std::vector<std::byte>& value) {
          std::vector<Tuple> tuples;
          if (!value.empty()) {
            ASSERT_TRUE(decode_tuples(value, tuples));
          }
          for (const Tuple& t : tuples) {
            if (!ref.proto->buffer().was_delivered(t.mid)) {
              ref.pending[inst].insert(t.mid);
            }
          }
        });
  }
  sim.set_send_observer([&](NodeId, NodeId to, const Message& msg) {
    const auto* p2b = std::get_if<P2b>(&msg.payload);
    const auto it = refs.find(to);
    if (p2b == nullptr || it == refs.end()) return;
    if (p2b->group != it->second.proto->consensus().config().group) return;
    it->second.shadow->on_p2b(sim.context(to), *p2b);
  });

  const Time end = milliseconds(300);
  std::size_t checks = 0, behind = 0, mismatches = 0;
  for (Time t = microseconds(50); t < end + milliseconds(20);
       t += microseconds(50)) {
    sim.schedule_at(t, [&] {
      for (auto& [n, ref] : refs) {
        const InstanceId want = ref.frontier();
        const InstanceId got = ref.proto->settled_frontier();
        ++checks;
        if (want < ref.proto->consensus().learner().next_to_deliver()) ++behind;
        if (got != want && mismatches++ == 0) {
          ADD_FAILURE() << "node " << n << " at " << sim.now()
                        << ": settled_frontier " << got << ", reference "
                        << want;
        }
      }
    });
  }
  cluster.start();
  cluster.stop_clients(end);
  sim.run_until(end + milliseconds(50));
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(behind, checks / 10);  // pins were held, not only the cursor
  for (auto& [n, ref] : refs) {
    EXPECT_EQ(ref.proto->settle_pin_count(), 0u) << "node " << n;
    EXPECT_EQ(ref.proto->settled_frontier(),
              ref.proto->consensus().learner().next_to_deliver());
  }
}

/// Delays every client message to one replica, so that replica learns the
/// decisions about a message before its START reaches it.
class SlowClientLink final : public sim::LatencyModel {
 public:
  SlowClientLink(const Membership* membership, NodeId slow)
      : membership_(membership), slow_(slow) {}
  Duration sample(NodeId from, NodeId to, Rng&) const override {
    return nominal(from, to);
  }
  Duration nominal(NodeId from, NodeId to) const override {
    return to == slow_ && membership_->is_client(from) ? milliseconds(5)
                                                       : microseconds(50);
  }

 private:
  const Membership* membership_;
  NodeId slow_;
};

TEST(TimestampProtocol, TupleDecidedBeforeItsStartIsNotStagedAgain) {
  auto cfg = wan_config(Protocol::kFastCast, 1, 2);
  cfg.topo.env = Environment::kLan;
  cfg.dst_factory = same_dst_for_all(fixed_group(0));
  cfg.latency_factory = [](const Membership* m) {
    return std::make_unique<SlowClientLink>(m, m->members(0).back());
  };
  cfg.cpu_override = sim::CpuModel{0, 0};
  Cluster cluster(cfg);
  const NodeId slow = cluster.deployment().membership.members(0).back();
  TimestampProtocolBase& proto = timestamp_protocol(cluster, slow);
  // Just before the first START lands there, the slow replica has already
  // decided instances for messages it cannot deliver yet.
  InstanceId decided_early = 0;
  cluster.simulator().schedule_at(milliseconds(5) - 1, [&] {
    EXPECT_EQ(proto.buffer().delivered_count(), 0u);
    decided_early = proto.consensus().learner().next_to_deliver();
  });
  cluster.start();
  cluster.stop_clients(milliseconds(40));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(5)));
  EXPECT_GT(decided_early, 0u);
  EXPECT_GT(proto.buffer().delivered_count(), 10u);
  EXPECT_EQ(proto.unordered_count(), 0u);
  EXPECT_EQ(proto.staged_count(), 0u);
}

TEST(TimestampProtocol, PerMessageStateStaysBoundedOverALongRun) {
  // About 20k multicasts; the peak of each piece of per-message state in
  // the second half may not outgrow the first half's.
  auto cfg = wan_config(Protocol::kFastCast, 3, 8);
  cfg.topo.env = Environment::kLan;
  cfg.dst_factory = same_dst_for_all(random_subset(3, 2));
  Cluster cluster(cfg);
  sim::Simulator& sim = cluster.simulator();
  const std::vector<NodeId> replicas =
      cluster.deployment().membership.all_replicas();

  enum Gauge { kUnordered, kFollowerStaged, kVoteWindow, kSettlePins, kGauges };
  const char* const names[kGauges] = {"unordered", "follower staged",
                                      "vote window", "settle pins"};
  std::size_t peak[2][kGauges] = {};
  const Time end = seconds(5);
  for (Time t = milliseconds(1); t < end; t += milliseconds(1)) {
    const int half = t < end / 2 ? 0 : 1;
    sim.schedule_at(t, [&, half] {
      for (NodeId n : replicas) {
        TimestampProtocolBase& p = timestamp_protocol(cluster, n);
        const std::size_t now[kGauges] = {
            p.unordered_count(),
            p.consensus().is_leader(sim.context(n)) ? 0 : p.staged_count(),
            p.consensus().learner().vote_window_size(),
            p.settle_pin_count()};
        for (int g = 0; g < kGauges; ++g) {
          peak[half][g] = std::max(peak[half][g], now[g]);
        }
      }
    });
  }
  cluster.start();
  cluster.stop_clients(end);
  sim.run_until(end);
  EXPECT_GE(cluster.total_sent(), 18'000u);
  for (int g = 0; g < kGauges; ++g) {
    EXPECT_LE(peak[1][g], peak[0][g] + peak[0][g] / 2 + 16)
        << names[g] << ": first-half peak " << peak[0][g];
  }
}

}  // namespace
}  // namespace fastcast::harness
