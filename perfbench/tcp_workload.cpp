// tcp_local: FastCast on 1 group x 3 replicas over loopback TCP through
// TcpCluster (poll backend), plus one client node running the benchmark's
// open-loop generator: 4 node threads in all. The generator keeps a
// due-time schedule at a fixed rate well under capacity, sends every
// multicast that has come due whenever its timer fires, and times each one
// from its due time, so a late timer shows up as latency.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "checks.hpp"
#include "fastcast/amcast/client_stub.hpp"
#include "fastcast/amcast/fastcast.hpp"
#include "fastcast/amcast/node.hpp"
#include "fastcast/checker/checker.hpp"
#include "fastcast/common/rng.hpp"
#include "fastcast/net/tcp_cluster.hpp"
#include "ledger.hpp"

namespace perfbench {

using namespace fastcast;

namespace {

constexpr Duration kInterval = microseconds(250);  ///< 4,000 multicasts/s
constexpr Duration kStartAt = milliseconds(20);    ///< first due time
constexpr Duration kWarmup = milliseconds(300);
constexpr std::size_t kPayload = 64;
constexpr int kRounds = 3;
/// The window is cut into slices of >= 1,000 samples. Latency percentiles
/// are taken per slice and reported as the lower quartile over the slices of
/// all rounds: a slice hit by a stall of the shared host (vCPU steal,
/// neighbours) shows a tail several times longer, and the lower quartile
/// reads the program's own tail as long as a quarter of the slices are
/// quiet. CPU and allocations per multicast are the median over slices.
constexpr Duration kSlice = milliseconds(250);

/// Counters the main thread polls while node threads run.
struct Progress {
  std::atomic<std::int64_t> epoch_ns{0};  ///< steady time of ctx time 0
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> acked{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> issued_all{false};  ///< the schedule has run out
};

class Generator final : public Process {
 public:
  Generator(Progress* progress, Window window, std::size_t capacity,
            std::uint64_t seed)
      : progress_(progress), window_(window), rng_(seed) {
    due_.reserve(capacity);
    acked_at_.reserve(capacity);
    issued_.reserve(capacity);
  }

  void on_start(Context& ctx) override {
    stub_.on_start(ctx);
    progress_->epoch_ns.store(steady_ns() - ctx.now(), std::memory_order_release);
    next_due_ = kStartAt;
    tick(ctx);
  }

  void on_message(Context& ctx, NodeId from, const Message& msg) override {
    const auto* ack = std::get_if<AmAck>(&msg.payload);
    if (ack == nullptr) {
      stub_.handle(ctx, from, msg);
      return;
    }
    const std::size_t seq = msg_id_seq(ack->mid);
    if (seq >= acked_at_.size() || acked_at_[seq] != 0) return;  // later acks
    acked_at_[seq] = ctx.now();
    progress_->acked.fetch_add(1, std::memory_order_release);
  }

  // Read after the node thread has been joined.
  const std::vector<Time>& due() const { return due_; }
  const std::vector<Time>& acked_at() const { return acked_at_; }
  const std::vector<MulticastMessage>& issued() const { return issued_; }
  double mean_lateness_ms() const {
    return late_count_ == 0 ? 0
                            : to_milliseconds(late_sum_) /
                                  static_cast<double>(late_count_);
  }

 private:
  void tick(Context& ctx) {
    const Time now = ctx.now();
    while (next_due_ <= now && next_due_ < window_.close) {
      if (window_.contains(next_due_)) {
        late_sum_ += now - next_due_;
        ++late_count_;
      }
      MulticastMessage m;
      m.id = make_msg_id(ctx.self(), static_cast<std::uint32_t>(due_.size()));
      m.sender = ctx.self();
      m.dst = {0};
      m.payload.resize(kPayload);
      for (char& c : m.payload) c = static_cast<char>('a' + rng_.uniform(26));
      due_.push_back(next_due_);
      acked_at_.push_back(0);
      issued_.push_back(m);
      progress_->issued.fetch_add(1, std::memory_order_release);
      stub_.amulticast(ctx, m);
      next_due_ += kInterval;
    }
    if (next_due_ < window_.close) {
      ctx.set_timer(next_due_ - now, [this, &ctx] { tick(ctx); });
    } else {
      progress_->issued_all.store(true, std::memory_order_release);
    }
  }

  GenuineClientStub stub_;
  Progress* progress_;
  Window window_;
  Rng rng_;  ///< payload bytes
  Time next_due_ = 0;
  std::vector<Time> due_;
  std::vector<Time> acked_at_;
  std::vector<MulticastMessage> issued_;
  Duration late_sum_ = 0;
  std::uint64_t late_count_ = 0;
};

bool ports_free(std::uint16_t base, int count) {
  std::vector<int> fds;
  bool ok = true;
  for (int i = 0; i < count && ok; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    fds.push_back(fd);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }
  for (int fd : fds) ::close(fd);
  return ok;
}

std::uint64_t voluntary_switches(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
      return std::stoull(line.substr(line.find(':') + 1));
    }
  }
  return 0;
}

double thread_cpu_s(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void sleep_until_ns(std::int64_t t) {
  const std::int64_t now = steady_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

/// Figures of one slice of the window.
struct Slice {
  double p50_ms = 0;  ///< latency of the multicasts due in the slice
  double p99_ms = 0;
  double cpu_us_per_mcast = 0;  ///< over the acks that arrived in the slice
  double allocs_per_mcast = 0;
};

struct Round {
  double setup_s = 0;
  double cpu_s = 0;
  std::int64_t live_bytes = 0;
  std::uint64_t window_acks = 0;  ///< acks that arrived inside the window
  double ack_rate = 0;            ///< acks per second across the window
  std::size_t samples = 0;        ///< latency samples in the window
  std::vector<Slice> slices;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::vector<std::string> errors;
  LedgerInputs ledger;
  std::vector<NodeLedger> node_ledgers;
};

constexpr std::size_t kSpanCapacity = 100000;  ///< spans kept per traced run

Round run_round(std::uint64_t seed, bool traced, Duration window, int round_no,
                bool keep_spans, std::int64_t span_epoch) {
  Round out;
  const double t_setup = wall_s();

  Membership m;
  m.add_group(3, {0, 0, 0});
  const NodeId client_node = m.add_client(0);

  const Window win{kWarmup, kWarmup + window};
  Progress progress;
  const auto capacity =
      static_cast<std::size_t>((win.close - kStartAt) / kInterval + 16);
  auto generator = std::make_shared<Generator>(&progress, win, capacity, seed);

  DeliveryLogs logs;
  logs.replicas = m.all_replicas();
  logs.logs.resize(logs.replicas.size());
  for (auto& log : logs.logs) log.reserve(capacity);

  std::vector<NodeLedger> ledgers(m.node_count());
  if (traced && keep_spans) {
    for (auto& l : ledgers) l.spans.reserve(kSpanCapacity / ledgers.size());
  }
  std::vector<std::shared_ptr<TracedNode>> traced_nodes;
  std::vector<std::pair<NodeId, std::shared_ptr<Process>>> processes;
  for (std::size_t i = 0; i < logs.replicas.size(); ++i) {
    const NodeId n = logs.replicas[i];
    TimestampProtocolBase::Config pc;
    pc.group = 0;
    pc.consensus.group = 0;
    pc.consensus.members = m.members(0);
    auto replica = std::make_shared<ReplicaNode>(std::make_shared<FastCast>(pc, n));
    replica->add_observer([log = &logs.logs[i], &progress](
                              Context&, const MulticastMessage& msg) {
      log->push_back(msg.id);
      progress.delivered.fetch_add(1, std::memory_order_release);
    });
    processes.emplace_back(n, std::move(replica));
  }
  processes.emplace_back(client_node, generator);

  // A fresh block of ports per round; the seed does not pick them.
  std::unique_ptr<net::TcpCluster> cluster;
  auto base = static_cast<std::uint16_t>(
      20000 + (static_cast<unsigned>(::getpid()) * 97 + round_no * 8) % 30000);
  for (int attempt = 0; attempt < 64 && !cluster; ++attempt, base += 8) {
    if (!ports_free(base, static_cast<int>(m.node_count()))) continue;
    net::TcpCluster::Config cfg;
    cfg.membership = m;
    cfg.base_port = base;
    cfg.backend = net::BackendKind::kPoll;
    auto c = std::make_unique<net::TcpCluster>(std::move(cfg));
    traced_nodes.clear();
    for (const auto& [n, p] : processes) {
      if (traced) {
        auto t = std::make_shared<TracedNode>(p, &ledgers[n], win, n == client_node,
                                              CodecAtSeam::kShadow, span_epoch);
        traced_nodes.push_back(t);
        c->add_process(n, t);
      } else {
        c->add_process(n, p);
      }
    }
    try {
      c->start();
      cluster = std::move(c);
    } catch (const std::runtime_error&) {
      continue;  // lost a race for the port block; try the next one
    }
  }
  if (!cluster) {
    out.errors.push_back("no free block of loopback ports");
    return out;
  }

  while (progress.epoch_ns.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::int64_t epoch = progress.epoch_ns.load(std::memory_order_acquire);
  if (traced) {
    for (const auto& t : traced_nodes) {
      while (!t->thread_known()) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  auto node_cpu = [&] {
    double total = 0;
    for (const auto& t : traced_nodes) total += thread_cpu_s(t->cpu_clock());
    return total;
  };
  auto switches = [&] {
    std::uint64_t total = 0;
    for (const auto& t : traced_nodes) total += voluntary_switches(t->tid());
    return total;
  };

  sleep_until_ns(epoch + win.open);
  out.setup_s = wall_s() - t_setup;
  const double node_cpu0 = node_cpu();
  const std::uint64_t sw0 = switches();
  // Process CPU and allocations at every slice edge.
  const std::size_t n_slices = static_cast<std::size_t>(window / kSlice);
  std::vector<double> cpu_at;
  std::vector<std::uint64_t> allocs_at;
  for (std::size_t k = 0; k <= n_slices; ++k) {
    sleep_until_ns(epoch + win.open + static_cast<Duration>(k) * kSlice);
    cpu_at.push_back(process_cpu_s());
    allocs_at.push_back(heap_snapshot().allocs);
  }
  out.live_bytes = heap_snapshot().live_bytes;
  const std::uint64_t sw1 = switches();
  const double node_cpu1 = node_cpu();
  out.cpu_s = cpu_at.back() - cpu_at.front();

  // Quiesce: the generator has issued its whole schedule (its last timer
  // may fire after the window closes), and every multicast is acknowledged
  // and delivered by all three replicas.
  const std::int64_t deadline = steady_ns() + 5 * kSecond;
  auto quiet = [&] {
    if (!progress.issued_all.load(std::memory_order_acquire)) return false;
    const std::uint64_t issued = progress.issued.load(std::memory_order_acquire);
    return progress.acked.load(std::memory_order_acquire) == issued &&
           progress.delivered.load(std::memory_order_acquire) == 3 * issued;
  };
  while (steady_ns() < deadline && !quiet()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster->stop();

  // Window accounting from the generator's own records.
  const auto& due = generator->due();
  const auto& acked_at = generator->acked_at();
  std::vector<std::vector<std::int64_t>> latencies(n_slices);
  std::vector<std::uint64_t> acks(n_slices, 0);
  Time first_ack = 0;
  Time last_ack = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (acked_at[i] == 0) continue;
    ++out.completed;
    if (win.contains(acked_at[i])) {
      if (out.window_acks++ == 0) first_ack = acked_at[i];
      last_ack = std::max(last_ack, acked_at[i]);
      ++acks[static_cast<std::size_t>((acked_at[i] - win.open) / kSlice)];
    }
    if (win.contains(due[i])) {
      latencies[static_cast<std::size_t>((due[i] - win.open) / kSlice)].push_back(
          acked_at[i] - due[i]);
      ++out.samples;
    }
  }
  if (out.window_acks > 1 && last_ack > first_ack) {
    out.ack_rate = static_cast<double>(out.window_acks - 1) /
                   to_seconds(last_ack - first_ack);
  }
  for (std::size_t k = 0; k < n_slices; ++k) {
    const double n = static_cast<double>(std::max<std::uint64_t>(acks[k], 1));
    out.slices.push_back(Slice{
        percentile(latencies[k], 50) / 1e6, percentile(latencies[k], 99) / 1e6,
        (cpu_at[k + 1] - cpu_at[k]) * 1e6 / n,
        static_cast<double>(allocs_at[k + 1] - allocs_at[k]) / n});
  }
  out.sent = due.size();
  if (out.completed != out.sent) {
    out.errors.push_back("sent " + std::to_string(out.sent) + " multicasts, " +
                         std::to_string(out.completed) + " acknowledged");
  }

  // Output checks, timed as the checker layer.
  const double c0 = process_cpu_s();
  SentMap sent;
  Checker checker(&m);
  for (const MulticastMessage& msg : generator->issued()) {
    sent.emplace(msg.id, msg.dst);
    checker.note_multicast(msg);
  }
  for (std::size_t r = 0; r < logs.replicas.size(); ++r) {
    for (MsgId mid : logs.logs[r]) checker.note_delivery(logs.replicas[r], mid);
  }
  for (std::string& e : check_outputs(m, logs, sent, checker)) {
    out.errors.push_back(std::move(e));
  }
  const double check_cpu = process_cpu_s() - c0;

  LedgerInputs& li = out.ledger;
  li.simulated = false;
  li.mcasts = static_cast<double>(out.window_acks);
  li.cpu_s = out.cpu_s;
  li.node_cpu_s = node_cpu1 - node_cpu0;
  li.ctx_switches = static_cast<double>(sw1 - sw0);
  li.timer_late_ms = generator->mean_lateness_ms();
  std::vector<double> slice_p50;
  std::vector<double> slice_p99;
  for (const Slice& sl : out.slices) {
    slice_p50.push_back(sl.p50_ms);
    slice_p99.push_back(sl.p99_ms);
  }
  li.latency_p50_ms = lower_quartile(slice_p50);
  li.latency_p99_ms = lower_quartile(slice_p99);
  li.check_cpu_s = check_cpu;
  for (const NodeLedger& l : ledgers) li.totals.add_counts(l);
  if (traced && keep_spans) out.node_ledgers = std::move(ledgers);
  return out;
}

}  // namespace

Outcome run_tcp_workload(const RunArgs& args) {
  Outcome out;
  const std::int64_t epoch = steady_ns();
  // A first, shorter round only warms the process up (a cold process runs
  // its first seconds with visibly longer tails); its outputs are checked
  // but not measured. Three measured rounds share the rest of the run
  // time, each paying its own set-up.
  const double round_s =
      (args.seconds - 1.5) / kRounds - to_seconds(kWarmup) - 0.2;
  const Duration window =
      std::max<Duration>(2, static_cast<Duration>(round_s / to_seconds(kSlice))) *
      kSlice;

  std::vector<Round> rounds;
  const Round warm = run_round(args.seed, args.trace, 2 * kSlice, 0, false, epoch);
  for (const std::string& e : warm.errors) out.fail(e);
  out.attempted += warm.sent;
  out.failed += warm.sent - std::min(warm.sent, warm.completed);
  for (int i = 1; i <= kRounds; ++i) {
    rounds.push_back(run_round(args.seed, args.trace, window, i,
                               /*keep_spans=*/args.trace && i == 1, epoch));
  }

  std::vector<double> rate, p50, p99, cpu, allocs, live, setup;
  std::size_t samples = 0;
  for (const Round& r : rounds) {
    for (const std::string& e : r.errors) out.fail(e);
    out.attempted += r.sent;
    out.failed += r.sent - std::min(r.sent, r.completed);
    rate.push_back(r.ack_rate);
    for (const Slice& sl : r.slices) {
      p50.push_back(sl.p50_ms);
      p99.push_back(sl.p99_ms);
      cpu.push_back(sl.cpu_us_per_mcast);
      allocs.push_back(sl.allocs_per_mcast);
    }
    live.push_back(static_cast<double>(r.live_bytes) / (1024.0 * 1024.0));
    setup.push_back(r.setup_s);
    samples += r.samples;
  }
  out.note("rounds " + std::to_string(kRounds) + " x " +
           std::to_string(window / kMillisecond) + " ms window at " +
           std::to_string(kSecond / kInterval) + " multicasts/s; " +
           std::to_string(p50.size()) + " slices of " +
           std::to_string(kSlice / kMillisecond) + " ms; latency samples " +
           std::to_string(samples));

  if (!args.trace) {
    out.note("without a bound (see README): latency_p50_ms " +
             std::to_string(lower_quartile(p50)) + " ms, latency_p99_ms " +
             std::to_string(lower_quartile(p99)) + " ms, cpu_us_per_mcast " +
             std::to_string(median(cpu)) + " us");
    out.add("throughput_mps", median(rate), "1/s");
    out.add("allocs_per_mcast", median(allocs), "count");
    out.add("live_heap_mb", median(live), "MiB");
    out.add("setup_s", median(setup), "s");
    return out;
  }

  std::vector<LedgerInputs> ledgers;
  for (const Round& r : rounds) ledgers.push_back(r.ledger);
  add_ledger_medians(out, ledgers);
  if (!args.spans_path.empty() &&
      !write_chrome_trace(args.spans_path, rounds.front().node_ledgers)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans_path.c_str());
  }
  return out;
}

}  // namespace perfbench
