#include "ledger.hpp"

#include <pthread.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <optional>
#include <type_traits>

#include "bench.hpp"
#include "fastcast/common/assert.hpp"

namespace perfbench {

using namespace fastcast;

namespace {

Layer replica_layer(const Message& msg) {
  return std::visit(
      [](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, RmData> || std::is_same_v<T, RmAck>) {
          return Layer::kRmcast;
        } else if constexpr (std::is_same_v<T, MpSubmit> ||
                             std::is_same_v<T, MpBody> ||
                             std::is_same_v<T, MpBodyRequest>) {
          return Layer::kMultipaxos;
        } else if constexpr (std::is_same_v<T, WatermarkAnnounce> ||
                             std::is_same_v<T, RepairRequest> ||
                             std::is_same_v<T, RepairSnapshot>) {
          return Layer::kRepair;
        } else if constexpr (std::is_same_v<T, AmAck> ||
                             std::is_same_v<T, Busy>) {
          return Layer::kClient;  // client-bound replies
        } else {
          return Layer::kPaxos;
        }
      },
      msg.payload);
}

}  // namespace

MsgId mid_of(const Message& msg) {
  return std::visit(
      [](const auto& p) -> MsgId {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, RmData>) {
          return fastcast::mid_of(p.inner);
        } else if constexpr (std::is_same_v<T, MpSubmit> ||
                             std::is_same_v<T, MpBody>) {
          return p.msg.id;
        } else if constexpr (std::is_same_v<T, AmAck> ||
                             std::is_same_v<T, Busy> ||
                             std::is_same_v<T, MpBodyRequest>) {
          return p.mid;
        } else {
          return 0;
        }
      },
      msg.payload);
}

void NodeLedger::add_counts(const NodeLedger& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    layers[i].count += other.layers[i].count;
    layers[i].ns += other.layers[i].ns;
    layers[i].allocs += other.layers[i].allocs;
  }
  wire_bytes += other.wire_bytes;
  instances += other.instances;
  catchup_polls += other.catchup_polls;
}

/// The Context the wrapped process sees: everything forwards to the real
/// one, except that sends and timer callbacks pass through the ledger.
class TracedNode::Proxy final : public Context {
 public:
  Proxy(TracedNode* owner, Context& real) : owner_(owner), real_(&real) {
    set_observability(real.obs());
    set_storage(real.storage());
  }

  NodeId self() const override { return real_->self(); }
  Time now() const override { return real_->now(); }
  // No move-in overload: the round trip sends a decoded copy, and the TCP
  // transport serializes from a const reference.
  void send(NodeId to, const Message& msg) override { owner_->send(to, msg); }
  TimerId set_timer(Duration delay, std::function<void()> cb) override {
    // The wrapper is the ledger's own cost: keep its allocation out of the
    // span that armed the timer.
    const std::uint64_t a0 = thread_allocs();
    std::function<void()> wrapped = [owner = owner_, cb = std::move(cb)] {
      owner->run_timer(cb);
    };
    if (owner_->span_open_) owner_->child_allocs_ += thread_allocs() - a0;
    return real_->set_timer(delay, std::move(wrapped));
  }
  void cancel_timer(TimerId id) override { real_->cancel_timer(id); }
  Rng& rng() override { return real_->rng(); }
  const Membership& membership() const override { return real_->membership(); }

  Context& real() { return *real_; }

 private:
  TracedNode* owner_;
  Context* real_;
};

TracedNode::TracedNode(std::shared_ptr<Process> inner, NodeLedger* ledger,
                       Window window, bool client_node, CodecAtSeam codec,
                       std::int64_t epoch_ns)
    : inner_(std::move(inner)),
      ledger_(ledger),
      window_(window),
      client_node_(client_node),
      codec_(codec),
      epoch_ns_(epoch_ns) {}

TracedNode::~TracedNode() = default;

void TracedNode::bind(Context& ctx) {
  proxy_ = std::make_unique<Proxy>(this, ctx);
  pthread_getcpuclockid(pthread_self(), &cpu_clock_);
  tid_.store(static_cast<pid_t>(::syscall(SYS_gettid)),
             std::memory_order_release);
}

void TracedNode::on_start(Context& ctx) {
  bind(ctx);
  inner_->on_start(*proxy_);
}

void TracedNode::on_recover(Context& ctx) {
  bind(ctx);
  inner_->on_recover(*proxy_);
}

template <typename Body>
void TracedNode::timed(Layer layer, SpanType type, const char* kind, MsgId mid,
                       NodeId peer, Body&& body) {
  span_open_ = true;
  child_ns_ = 0;
  child_allocs_ = 0;
  const std::uint64_t a0 = thread_allocs();
  const std::int64_t t0 = steady_ns();
  body();
  const std::int64_t t1 = steady_ns();
  const std::uint64_t a1 = thread_allocs();
  span_open_ = false;
  LayerTotals& l = (*ledger_)[layer];
  ++l.count;
  l.ns += (t1 - t0) - child_ns_;
  l.allocs += (a1 - a0) - child_allocs_;
  record(type, kind, mid, peer, t0, t1);
}

void TracedNode::on_message(Context& ctx, NodeId from, const Message& msg) {
  (void)ctx;
  if (!window_.contains(proxy_->now())) {
    inner_->on_message(*proxy_, from, msg);
    return;
  }
  timed(client_node_ ? Layer::kClient : replica_layer(msg), SpanType::kDispatch,
        message_kind(msg), mid_of(msg), from,
        [&] { inner_->on_message(*proxy_, from, msg); });
}

void TracedNode::run_timer(const std::function<void()>& cb) {
  if (!window_.contains(proxy_->now())) {
    cb();
    return;
  }
  timed(client_node_ ? Layer::kClient : Layer::kTimer, SpanType::kTimer, "timer",
        0, proxy_->self(), cb);
}

void TracedNode::send(NodeId to, const Message& msg) {
  const std::uint64_t a0 = thread_allocs();
  const std::int64_t t0 = steady_ns();
  encode_message_into(msg, scratch_);
  const std::int64_t t1 = steady_ns();
  std::optional<Message> decoded(std::in_place);
  FC_ASSERT_MSG(decode_message(scratch_, *decoded), "codec round-trip failed");
  // A shadow copy is released inside the decode interval, not in the span
  // of whoever sent.
  if (codec_ == CodecAtSeam::kShadow) decoded.reset();
  const std::int64_t t2 = steady_ns();
  if (decoded) {
    proxy_->real().send(to, std::move(*decoded));
  } else {
    proxy_->real().send(to, msg);
  }
  const std::int64_t t3 = steady_ns();
  const std::uint64_t a1 = thread_allocs();
  if (!window_.contains(proxy_->now())) return;

  NodeLedger& led = *ledger_;
  ++led[Layer::kEncode].count;
  led[Layer::kEncode].ns += t1 - t0;
  ++led[Layer::kDecode].count;
  led[Layer::kDecode].ns += t2 - t1;
  ++led[Layer::kSend].count;
  led[Layer::kSend].ns += t3 - t2;
  led[Layer::kSend].allocs += a1 - a0;
  led.wire_bytes += scratch_.size();
  if (const auto* p2a = std::get_if<P2a>(&msg.payload)) {
    // A leader sends one P2a per acceptor; count each instance once.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(p2a->group) << 48) ^ p2a->instance;
    if (key != last_p2a_) ++led.instances;
    last_p2a_ = key;
  } else if (std::holds_alternative<P2bRequest>(msg.payload)) {
    ++led.catchup_polls;
  }
  if (span_open_) {
    child_ns_ += t3 - t0;
    child_allocs_ += a1 - a0;
  }
  record(SpanType::kSend, message_kind(msg), mid_of(msg), to, t0, t3);
}

void TracedNode::record(SpanType type, const char* kind, MsgId mid, NodeId peer,
                        std::int64_t start, std::int64_t end) {
  std::vector<Span>& spans = ledger_->spans;
  if (spans.size() == spans.capacity()) return;
  spans.push_back(Span{start - epoch_ns_, end - epoch_ns_, mid,
                       static_cast<std::uint32_t>(proxy_->self()),
                       static_cast<std::uint32_t>(peer), type, kind});
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<NodeLedger>& nodes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const NodeLedger& n : nodes) {
    for (const Span& s : n.spans) {
      const char* cat = s.type == SpanType::kSend    ? "send"
                        : s.type == SpanType::kTimer ? "timer"
                                                     : "dispatch";
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"%s\":%u,"
                   "\"mid\":%llu}}",
                   first ? "" : ",\n", s.kind, cat, s.node,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   s.type == SpanType::kSend ? "to" : "from", s.peer,
                   static_cast<unsigned long long>(s.mid));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::vector<Metric> ledger_metrics(const LedgerInputs& in) {
  const NodeLedger& t = in.totals;
  const double n = in.mcasts > 0 ? in.mcasts : 1;
  auto msgs = [&](Layer l) { return static_cast<double>(t[l].count) / n; };
  auto us = [&](Layer l) { return static_cast<double>(t[l].ns) / 1e3 / n; };
  auto allocs = [&](Layer l) { return static_cast<double>(t[l].allocs) / n; };

  double seam_us = 0;
  for (const LayerTotals& l : t.layers) seam_us += static_cast<double>(l.ns) / 1e3;
  seam_us /= n;
  // The rest of the measured CPU is the runtime around the seams: the
  // simulator's event loop, or the TCP node threads' poll loops.
  const double rest_us =
      (in.simulated ? in.cpu_s : in.node_cpu_s) * 1e6 / n - seam_us;
  const double sim_self_us = in.simulated ? rest_us : 0;
  const double net_loop_us = in.simulated ? 0 : rest_us;
  const double ordered = in.fast_path + in.slow_path;

  return {
      {"rmcast.msgs_per_mcast", msgs(Layer::kRmcast), "count"},
      {"rmcast.handler_us_per_mcast", us(Layer::kRmcast), "us"},
      {"rmcast.allocs_per_mcast", allocs(Layer::kRmcast), "count"},
      {"paxos.msgs_per_mcast", msgs(Layer::kPaxos), "count"},
      {"paxos.handler_us_per_mcast", us(Layer::kPaxos), "us"},
      {"paxos.allocs_per_mcast", allocs(Layer::kPaxos), "count"},
      {"paxos.mcasts_per_instance",
       t.instances > 0 ? in.mcasts / static_cast<double>(t.instances) : 0,
       "count"},
      {"paxos.catchup_polls_per_mcast",
       static_cast<double>(t.catchup_polls) / n, "count"},
      {"multipaxos.msgs_per_mcast", msgs(Layer::kMultipaxos), "count"},
      {"multipaxos.handler_us_per_mcast", us(Layer::kMultipaxos), "us"},
      {"multipaxos.allocs_per_mcast", allocs(Layer::kMultipaxos), "count"},
      {"amcast.fast_path_ratio", ordered > 0 ? in.fast_path / ordered : 0,
       "count"},
      {"repair.msgs_per_mcast", msgs(Layer::kRepair), "count"},
      {"client.handler_us_per_mcast", us(Layer::kClient), "us"},
      {"client.latency_p50_ms", in.latency_p50_ms, "ms"},
      {"client.latency_p99_ms", in.latency_p99_ms, "ms"},
      {"timer.us_per_mcast", us(Layer::kTimer), "us"},
      {"send.us_per_mcast", us(Layer::kSend), "us"},
      {"send.allocs_per_mcast", allocs(Layer::kSend), "count"},
      {"codec.wire_kb_per_mcast", static_cast<double>(t.wire_bytes) / 1024 / n,
       "KiB"},
      {"codec.encode_us_per_mcast", us(Layer::kEncode), "us"},
      {"codec.decode_us_per_mcast", us(Layer::kDecode), "us"},
      {"sim.events_per_mcast", in.sim_events / n, "count"},
      {"sim.self_us_per_mcast", sim_self_us, "us"},
      {"storage.records_per_mcast", in.storage_records / n, "count"},
      {"storage.kb_per_mcast", in.storage_bytes / 1024 / n, "KiB"},
      {"storage.snapshot_kb_per_mcast", in.snapshot_bytes / 1024 / n, "KiB"},
      {"storage.syncs_per_mcast", in.storage_syncs / n, "count"},
      {"net.loop_us_per_mcast", net_loop_us, "us"},
      {"net.ctx_switches_per_mcast", in.ctx_switches / n, "count"},
      {"net.timer_late_ms", in.timer_late_ms, "ms"},
      {"checker.us_per_mcast", in.check_cpu_s * 1e6 / n, "us"},
      {"ledger.sum_us_per_mcast", seam_us + rest_us, "us"},
      {"traced.cpu_us_per_mcast", in.cpu_s * 1e6 / n, "us"},
  };
}

void add_ledger_medians(Outcome& out, const std::vector<LedgerInputs>& rounds) {
  std::vector<std::vector<Metric>> per_round;
  for (const LedgerInputs& r : rounds) per_round.push_back(ledger_metrics(r));
  for (std::size_t i = 0; i < per_round.front().size(); ++i) {
    std::vector<double> v;
    for (const auto& pr : per_round) v.push_back(pr[i].value);
    out.add(per_round.front()[i].name, median(v), per_round.front()[i].unit);
  }
}

}  // namespace perfbench
