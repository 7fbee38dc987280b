// The two simulated workloads. A run repeats one seeded simulation in
// whole rounds: each round builds the deployment, warms it up, measures a
// fixed simulated window, quiesces and checks its outputs. Simulated-time
// figures and counts must repeat exactly from round to round; wall-clock
// figures (CPU, set-up) are the median over the rounds.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <unordered_map>

#include "bench.hpp"
#include "checks.hpp"
#include "fastcast/amcast/client_stub.hpp"
#include "fastcast/amcast/fastcast.hpp"
#include "fastcast/amcast/multipaxos_amcast.hpp"
#include "fastcast/amcast/node.hpp"
#include "fastcast/checker/checker.hpp"
#include "fastcast/harness/client.hpp"
#include "fastcast/harness/topology.hpp"
#include "fastcast/sim/simulator.hpp"
#include "fastcast/storage/backend.hpp"
#include "fastcast/storage/storage.hpp"
#include "ledger.hpp"

namespace perfbench {

using namespace fastcast;

namespace {

struct SimSpec {
  harness::Protocol protocol = harness::Protocol::kFastCast;
  std::size_t groups = 4;           ///< destination groups
  std::size_t clients = 1;          ///< closed-loop clients
  std::size_t payload = 64;         ///< bytes per multicast
  harness::DstPicker dst;
  sim::CpuModel cpu;
  Duration warmup = milliseconds(100);
  Duration window = milliseconds(500);
  bool durable = false;             ///< in-memory WAL on every replica
  bool flow = false;                ///< admission control at the leader
  bool repair = false;              ///< watermark gossip + pruning
};

/// sim_genuine_global: FastCast, 4 groups x 3 replicas, every multicast to
/// a random 2 of the 4 groups, closed-loop clients near the knee.
SimSpec genuine_global() {
  SimSpec s;
  s.protocol = harness::Protocol::kFastCast;
  s.groups = 4;
  s.clients = 8;
  s.payload = 64;
  s.dst = harness::random_subset(4, 2);
  s.cpu = harness::cpu_for(harness::Environment::kLan);
  s.warmup = milliseconds(100);
  s.window = milliseconds(500);
  return s;
}

/// sim_ordered_durable: MultiPaxos-amcast in id-ordering mode with 2 KiB
/// payloads to 1 or 2 of 3 groups, in-memory WAL, admission control,
/// repair gossip and pruning.
SimSpec ordered_durable() {
  SimSpec s;
  s.protocol = harness::Protocol::kMultiPaxos;
  s.groups = 3;
  s.clients = 16;
  s.payload = 2048;
  s.dst = [one = harness::random_subset(3, 1),
           two = harness::random_subset(3, 2)](Rng& rng) {
    return rng.uniform(2) == 0 ? one(rng) : two(rng);
  };
  // The calibrated LAN CPU plus 1 ns per wire byte, so 2 KiB bodies cost.
  s.cpu = sim::CpuModel{microseconds(15), microseconds(2), nanoseconds(1)};
  s.warmup = milliseconds(100);
  s.window = milliseconds(500);
  s.durable = true;
  s.flow = true;
  s.repair = true;
  return s;
}

/// Storage totals gathered at the backend seam of every replica.
struct StorageCounts {
  std::uint64_t appended_bytes = 0;
  std::uint64_t syncs = 0;
  std::uint64_t snapshot_bytes = 0;  ///< write_atomic: snapshots
};

/// The deterministic in-memory WAL, with its traffic counted.
class CountingBackend final : public storage::StorageBackend {
 public:
  explicit CountingBackend(StorageCounts* counts) : counts_(counts) {}

  std::vector<std::string> list() const override { return mem_.list(); }
  bool read(const std::string& name, std::vector<std::byte>& out) const override {
    return mem_.read(name, out);
  }
  void append(const std::string& name, std::span<const std::byte> data) override {
    counts_->appended_bytes += data.size();
    mem_.append(name, data);
  }
  void sync(const std::string& name) override {
    ++counts_->syncs;
    mem_.sync(name);
  }
  void write_atomic(const std::string& name,
                    std::span<const std::byte> data) override {
    counts_->snapshot_bytes += data.size();
    mem_.write_atomic(name, data);
  }
  void remove(const std::string& name) override { mem_.remove(name); }
  void drop_unsynced(Rng* torn_rng) override { mem_.drop_unsynced(torn_rng); }

 private:
  storage::MemBackend mem_;
  StorageCounts* counts_;
};

std::shared_ptr<AtomicMulticast> make_protocol(const SimSpec& spec,
                                               const harness::Deployment& d,
                                               NodeId node) {
  const Membership& m = d.membership;
  const GroupId group = m.group_of(node);
  repair::Options repair;
  repair.enable = spec.repair;
  flow::Options flow;
  flow.enable = spec.flow;
  if (spec.protocol == harness::Protocol::kMultiPaxos) {
    MultiPaxosAmcast::Config cfg;
    cfg.consensus.group = d.ordering_group;
    cfg.consensus.members = m.members(d.ordering_group);
    for (NodeId r : m.all_replicas()) {
      if (m.group_of(r) != d.ordering_group) cfg.consensus.extra_learners.push_back(r);
    }
    cfg.consensus.repair = repair;
    cfg.my_group = group == d.ordering_group ? kNoGroup : group;
    cfg.ordering = MultiPaxosAmcast::Config::Ordering::kIds;
    cfg.batch_fill = 16;
    cfg.batch_delay = microseconds(200);
    cfg.flow = flow;
    return std::make_shared<MultiPaxosAmcast>(std::move(cfg), node);
  }
  TimestampProtocolBase::Config cfg;
  cfg.group = group;
  cfg.consensus.group = group;
  cfg.consensus.members = m.members(group);
  cfg.consensus.repair = repair;
  cfg.flow = flow;
  return std::make_shared<FastCast>(std::move(cfg), node);
}

std::unique_ptr<ClientStub> make_stub(const SimSpec& spec,
                                      const harness::Deployment& d) {
  if (spec.protocol == harness::Protocol::kMultiPaxos) {
    MultiPaxosClientStub::Config cfg;
    cfg.ordering_members = d.membership.members(d.ordering_group);
    return std::make_unique<MultiPaxosClientStub>(std::move(cfg));
  }
  return std::make_unique<GenuineClientStub>();
}

/// What one round measured.
struct Round {
  double setup_s = 0;
  double cpu_s = 0;        ///< process CPU inside the window
  double check_cpu_s = 0;  ///< CPU of the output checks
  std::uint64_t window_mcasts = 0;
  std::vector<Duration> latencies;  ///< completions inside the window
  std::uint64_t allocs = 0;
  std::int64_t live_bytes = 0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;    ///< simulator events inside the window
  std::uint64_t unicasts = 0;  ///< unicasts inside the window
  std::uint64_t fingerprint = 0;
  std::vector<std::string> errors;
  LedgerInputs ledger;
  std::vector<NodeLedger> node_ledgers;  ///< kept for the span dump
};

constexpr std::size_t kSpanCapacity = 100000;  ///< spans kept per traced run

double nearest_rank_ms(const std::vector<Duration>& samples, double p) {
  return percentile(std::vector<std::int64_t>(samples.begin(), samples.end()), p) /
         static_cast<double>(kMillisecond);
}


Round run_round(const SimSpec& spec, std::uint64_t seed, bool traced,
                Duration window, bool keep_spans, std::int64_t epoch_ns) {
  Round out;
  const double t_setup = wall_s();

  harness::TopologyConfig topo;
  topo.env = harness::Environment::kLan;
  topo.groups = spec.groups;
  topo.clients = spec.clients;
  topo.protocol = spec.protocol;
  const harness::Deployment d = harness::build_deployment(topo);
  const Membership& m = d.membership;

  sim::SimConfig sc;
  sc.seed = seed;
  sc.cpu = spec.cpu;
  // Traced runs move the codec round trip to the send seam, where it is
  // timed; the simulated behaviour is the same either way.
  sc.serialize_messages = !traced;
  sim::Simulator sim(m, sim::make_paper_lan(), sc);

  const Window win{spec.warmup, spec.warmup + window};
  std::vector<NodeLedger> ledgers(m.node_count());
  if (traced && keep_spans) {
    for (auto& l : ledgers) l.spans.reserve(kSpanCapacity / ledgers.size());
  }
  auto add = [&](NodeId n, std::shared_ptr<Process> p) {
    if (traced) {
      p = std::make_shared<TracedNode>(std::move(p), &ledgers[n], win,
                                       m.is_client(n), CodecAtSeam::kRoundTrip,
                                       epoch_ns);
    }
    sim.add_process(n, std::move(p));
  };

  Checker checker(&m);
  DeliveryLogs logs;
  logs.replicas = m.all_replicas();
  logs.logs.resize(logs.replicas.size());
  SentMap sent;

  StorageCounts storage_counts;
  std::vector<std::unique_ptr<storage::NodeStorage>> storages;
  std::vector<std::shared_ptr<FastCast>> fastcasts;
  for (std::size_t i = 0; i < logs.replicas.size(); ++i) {
    const NodeId n = logs.replicas[i];
    auto protocol = make_protocol(spec, d, n);
    if (auto fc = std::dynamic_pointer_cast<FastCast>(protocol)) {
      fastcasts.push_back(std::move(fc));
    }
    if (spec.durable) {
      storage::NodeStorage::Config cfg;
      cfg.fsync.mode = storage::FsyncPolicy::Mode::kAlways;
      storages.push_back(std::make_unique<storage::NodeStorage>(
          std::make_unique<CountingBackend>(&storage_counts), cfg));
      protocol->restore_durable(storages.back()->state());
      sim.set_node_storage(n, storages.back().get());
    }
    auto replica = std::make_shared<ReplicaNode>(std::move(protocol));
    replica->add_observer([log = &logs.logs[i], &checker](
                              Context& ctx, const MulticastMessage& msg) {
      log->push_back(msg.id);
      checker.note_delivery(ctx.self(), msg.id);
    });
    add(n, std::move(replica));
  }

  auto metrics = std::make_shared<harness::Metrics>();
  std::vector<std::shared_ptr<harness::ClientProcess>> clients;
  for (std::size_t i = 0; i < d.clients.size(); ++i) {
    harness::ClientProcess::Config cc;
    cc.stub = make_stub(spec, d);
    cc.dst = spec.dst;
    cc.payload_size = spec.payload;
    // Stagger starts over half the warm-up so load ramps smoothly.
    cc.first_send_at = static_cast<Time>(spec.warmup / 2 *
                                         static_cast<Duration>(i) /
                                         static_cast<Duration>(d.clients.size()));
    auto client = std::make_shared<harness::ClientProcess>(std::move(cc), metrics);
    client->add_multicast_observer([&sent, &checker](const MulticastMessage& msg) {
      sent.emplace(msg.id, msg.dst);
      checker.note_multicast(msg);
    });
    clients.push_back(client);
    add(d.clients[i], std::move(client));
  }

  auto storage_records = [&] {
    std::uint64_t total = 0;
    for (const auto& st : storages) total += st->last_lsn();
    return total;
  };
  auto path_stats = [&] {
    std::pair<std::uint64_t, std::uint64_t> p{0, 0};
    for (const auto& fc : fastcasts) {
      p.first += fc->fast_path_hits();
      p.second += fc->slow_path_hits();
    }
    return p;
  };

  // Warm up: every event before the window opens.
  sim.start();
  sim.run_until(win.open - 1);
  metrics->open_window(win.open, win.close, window / 10);
  out.setup_s = wall_s() - t_setup;

  const StorageCounts st0 = storage_counts;
  const std::uint64_t rec0 = storage_records();
  const auto paths0 = path_stats();
  const std::uint64_t events0 = sim.events_processed();
  const std::uint64_t unicasts0 = sim.messages_sent();
  const HeapSnapshot heap0 = heap_snapshot();
  const double cpu0 = process_cpu_s();

  sim.run_until(win.close - 1);

  const double cpu1 = process_cpu_s();
  const HeapSnapshot heap1 = heap_snapshot();
  metrics->close_window();
  out.cpu_s = cpu1 - cpu0;
  out.allocs = heap1.allocs - heap0.allocs;
  out.live_bytes = heap1.live_bytes;
  out.events = sim.events_processed() - events0;
  out.unicasts = sim.messages_sent() - unicasts0;
  out.latencies = metrics->latency().samples();
  out.window_mcasts = out.latencies.size();

  LedgerInputs& li = out.ledger;
  li.simulated = true;
  li.mcasts = static_cast<double>(out.window_mcasts);
  li.cpu_s = out.cpu_s;
  li.sim_events = static_cast<double>(out.events);
  li.storage_records = static_cast<double>(storage_records() - rec0);
  li.storage_bytes =
      static_cast<double>(storage_counts.appended_bytes - st0.appended_bytes);
  li.snapshot_bytes =
      static_cast<double>(storage_counts.snapshot_bytes - st0.snapshot_bytes);
  li.storage_syncs = static_cast<double>(storage_counts.syncs - st0.syncs);
  const auto paths1 = path_stats();
  li.fast_path = static_cast<double>(paths1.first - paths0.first);
  li.slow_path = static_cast<double>(paths1.second - paths0.second);

  // Quiesce: no new multicasts, then wait until every request is answered
  // and every destination replica has delivered. The durable workload
  // never goes idle (its replicas keep polling for catch-up and gossiping
  // watermarks), so it is not drained with run_to_idle.
  for (auto& c : clients) c->set_stop(win.close);
  std::uint64_t expected = 0;
  auto in_flight = [&] {
    std::size_t total = 0;
    for (const auto& c : clients) total += c->in_flight_count();
    return total;
  };
  auto delivered = [&] {
    std::uint64_t total = 0;
    for (const auto& log : logs.logs) total += log.size();
    return total;
  };
  const Time limit = win.close + seconds(5);
  if (spec.durable) {
    while (in_flight() > 0 && sim.now() < limit) sim.run_for(milliseconds(1));
    for (const auto& [mid, dst] : sent) {
      for (GroupId g : dst) expected += m.members(g).size();
    }
    while (delivered() < expected && sim.now() < limit) {
      sim.run_for(milliseconds(1));
    }
  } else {
    if (!sim.run_to_idle(limit)) out.errors.push_back("simulation did not drain");
    for (const auto& [mid, dst] : sent) {
      for (GroupId g : dst) expected += m.members(g).size();
    }
  }

  // Output checks, timed as the checker layer.
  const double c0 = process_cpu_s();
  for (std::string& e : check_outputs(m, logs, sent, checker)) {
    out.errors.push_back(std::move(e));
  }
  out.check_cpu_s = process_cpu_s() - c0;
  li.check_cpu_s = out.check_cpu_s;
  li.latency_p50_ms = nearest_rank_ms(out.latencies, 50);
  li.latency_p99_ms = nearest_rank_ms(out.latencies, 99);

  std::uint64_t sent_total = 0;
  for (const auto& c : clients) sent_total += c->sent_count();
  out.sent = sent_total;
  out.completed = metrics->completions_total();
  if (out.completed != out.sent || in_flight() != 0) {
    out.errors.push_back("sent " + std::to_string(out.sent) + " multicasts, " +
                         std::to_string(out.completed) + " completed");
  }
  if (metrics->rejected_total() + metrics->expired_total() +
          metrics->timeouts_total() + metrics->busy_total() !=
      0) {
    out.errors.push_back("admission control refused or delayed a multicast");
  }
  out.fingerprint = fingerprint(logs);

  for (const NodeLedger& l : ledgers) li.totals.add_counts(l);
  if (traced && keep_spans) out.node_ledgers = std::move(ledgers);
  return out;
}

}  // namespace

Outcome run_sim_workload(const RunArgs& args) {
  Outcome out;
  const SimSpec spec =
      args.workload == "sim_genuine_global" ? genuine_global() : ordered_durable();
  const std::int64_t epoch = steady_ns();
  const double start = wall_s();

  // Whole rounds, as many as fit in the run time. Every round is checked
  // and compared with the first (determinism); the first round of the
  // process also warms caches and the allocator, so wall-clock figures
  // are the median over the others.
  std::vector<Round> rounds;
  rounds.push_back(run_round(spec, args.seed, args.trace, spec.window,
                             /*keep_spans=*/args.trace, epoch));
  // Another round starts only if, at the mean round time so far, it ends
  // within the run time.
  auto elapsed = [&] { return wall_s() - start; };
  while (rounds.size() < 3 ||
         elapsed() * static_cast<double>(rounds.size() + 1) /
                 static_cast<double>(rounds.size()) <=
             args.seconds) {
    rounds.push_back(run_round(spec, args.seed, args.trace, spec.window,
                               /*keep_spans=*/false, epoch));
  }

  const Round& first = rounds.front();
  for (const Round& r : rounds) {
    for (const std::string& e : r.errors) out.fail(e);
    out.attempted += r.sent;
    out.failed += r.sent - std::min(r.sent, r.completed);
    // Determinism: same seed, same simulated behaviour, computed afresh.
    if (r.fingerprint != first.fingerprint || r.latencies != first.latencies ||
        r.sent != first.sent || r.events != first.events ||
        r.unicasts != first.unicasts) {
      out.fail("two rounds with seed " + std::to_string(args.seed) +
               " diverged (delivery fingerprint " +
               std::to_string(first.fingerprint) + " vs " +
               std::to_string(r.fingerprint) + ")");
    }
  }
  // A different seed must change the delivery order. Compared on short
  // rounds of both seeds so the difference is the seed alone.
  const Duration short_window = milliseconds(20);
  const Round a = run_round(spec, args.seed, false, short_window, false, epoch);
  const Round b = run_round(spec, args.seed + 1, false, short_window, false, epoch);
  if (a.fingerprint == b.fingerprint) {
    out.fail("seeds " + std::to_string(args.seed) + " and " +
             std::to_string(args.seed + 1) + " gave the same delivery order");
  }

  const double window_s = to_seconds(spec.window);
  const double mcasts = static_cast<double>(first.window_mcasts);
  const std::span<const Round> timed(rounds.data() + 1, rounds.size() - 1);
  std::vector<double> cpu, allocs, live, setup;
  for (const Round& r : timed) {
    const double n = static_cast<double>(std::max<std::uint64_t>(r.window_mcasts, 1));
    cpu.push_back(r.cpu_s * 1e6 / n);
    allocs.push_back(static_cast<double>(r.allocs) / n);
    live.push_back(static_cast<double>(r.live_bytes) / (1024.0 * 1024.0));
    setup.push_back(r.setup_s);
  }
  out.note("rounds " + std::to_string(rounds.size()) + " x " +
           std::to_string(spec.window / kMillisecond) +
           " ms simulated window; latency samples per round " +
           std::to_string(first.latencies.size()) + "; delivery fingerprint " +
           std::to_string(first.fingerprint));

  if (!args.trace) {
    out.note("without a bound (see README): latency_p50_ms " +
             std::to_string(nearest_rank_ms(first.latencies, 50)) +
             " ms, latency_p99_ms " +
             std::to_string(nearest_rank_ms(first.latencies, 99)) +
             " ms, cpu_us_per_mcast " + std::to_string(median(cpu)) + " us");
    out.add("throughput_mps", mcasts / window_s, "1/s");
    out.add("allocs_per_mcast", median(allocs), "count");
    out.add("live_heap_mb", median(live), "MiB");
    out.add("setup_s", median(setup), "s");
    return out;
  }

  std::vector<LedgerInputs> ledgers;
  for (const Round& r : timed) ledgers.push_back(r.ledger);
  add_ledger_medians(out, ledgers);
  if (!args.spans_path.empty() &&
      !write_chrome_trace(args.spans_path, first.node_ledgers)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans_path.c_str());
  }
  return out;
}

}  // namespace perfbench
