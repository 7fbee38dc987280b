#pragma once

#include <sys/types.h>

#include <array>
#include <atomic>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fastcast/runtime/context.hpp"

/// \file ledger.hpp
/// The per-layer ledger of traced runs, measured from outside the program.
///
/// TracedNode wraps a node's Process and hands the wrapped process a proxy
/// Context, so every seam the program crosses is timed without touching its
/// code: Process::on_message (charged to the layer of the payload kind it
/// dispatches), timer callbacks, Context::send and the codec's
/// encode/decode. A dispatch's self time and allocations exclude the sends
/// made inside it. Only work whose start falls inside the measured window is
/// charged.

namespace perfbench {

enum class Layer : std::uint8_t {
  kRmcast,      ///< RmData / RmAck dispatched at a replica
  kPaxos,       ///< P1a..P2bMore, Nack, heartbeats dispatched at a replica
  kMultipaxos,  ///< MpSubmit / MpBody / MpBodyRequest at a replica
  kRepair,      ///< watermark gossip and repair transfers at a replica
  kClient,      ///< every dispatch and timer on a client node
  kTimer,       ///< timer callbacks on replicas
  kSend,        ///< Context::send, codec excluded
  kEncode,      ///< encode of each sent message
  kDecode,      ///< decode of each sent message
};
inline constexpr std::size_t kLayerCount = 9;

struct LayerTotals {
  std::uint64_t count = 0;   ///< dispatches, timer firings or sends
  std::int64_t ns = 0;       ///< self wall time
  std::uint64_t allocs = 0;  ///< self allocations
};

enum class SpanType : std::uint8_t { kDispatch, kTimer, kSend };

struct Span {
  std::int64_t start_ns = 0;  ///< steady clock, relative to the run's epoch
  std::int64_t end_ns = 0;
  fastcast::MsgId mid = 0;    ///< 0 when the payload carries none
  std::uint32_t node = 0;
  std::uint32_t peer = 0;     ///< sender of a dispatch, target of a send
  SpanType type = SpanType::kDispatch;
  const char* kind = "";      ///< payload kind (message_kind) or "timer"
};

/// What one node's seams cost inside the measured window. Written only by
/// the node's own thread; read once the run has stopped.
struct NodeLedger {
  std::array<LayerTotals, kLayerCount> layers{};
  std::uint64_t wire_bytes = 0;     ///< encoded bytes of every send
  std::uint64_t instances = 0;      ///< consensus instances proposed (P2a)
  std::uint64_t catchup_polls = 0;  ///< learner catch-up polls (P2bRequest)
  std::vector<Span> spans;          ///< bounded: recording stops at capacity

  LayerTotals& operator[](Layer l) { return layers[static_cast<std::size_t>(l)]; }
  const LayerTotals& operator[](Layer l) const {
    return layers[static_cast<std::size_t>(l)];
  }
  void add_counts(const NodeLedger& other);
};

/// The measured window in the node's own clock (simulated or wall).
struct Window {
  fastcast::Time open = 0;
  fastcast::Time close = 0;
  bool contains(fastcast::Time t) const { return t >= open && t < close; }
};

/// kRoundTrip: the seam itself encodes and decodes every send and passes the
/// decoded copy on (the simulator's serialize mode, moved outside it).
/// kShadow: the transport encodes on its own, so the seam times a second
/// encode/decode of each send as the codec's cost and passes the original.
enum class CodecAtSeam : std::uint8_t { kRoundTrip, kShadow };

class TracedNode final : public fastcast::Process {
 public:
  TracedNode(std::shared_ptr<fastcast::Process> inner, NodeLedger* ledger,
             Window window, bool client_node, CodecAtSeam codec,
             std::int64_t epoch_ns);
  ~TracedNode() override;

  TracedNode(const TracedNode&) = delete;
  TracedNode& operator=(const TracedNode&) = delete;

  void on_start(fastcast::Context& ctx) override;
  void on_recover(fastcast::Context& ctx) override;
  void on_message(fastcast::Context& ctx, fastcast::NodeId from,
                  const fastcast::Message& msg) override;

  /// Thread that runs this node, known once on_start has run there.
  bool thread_known() const { return tid_.load(std::memory_order_acquire) != 0; }
  pid_t tid() const { return tid_.load(std::memory_order_acquire); }
  clockid_t cpu_clock() const { return cpu_clock_; }

 private:
  class Proxy;

  void bind(fastcast::Context& ctx);
  /// Runs `body` as one dispatch or timer span charged to `layer`.
  template <typename Body>
  void timed(Layer layer, SpanType type, const char* kind, fastcast::MsgId mid,
             fastcast::NodeId peer, Body&& body);
  void run_timer(const std::function<void()>& cb);
  void send(fastcast::NodeId to, const fastcast::Message& msg);
  void record(SpanType type, const char* kind, fastcast::MsgId mid,
              fastcast::NodeId peer, std::int64_t start, std::int64_t end);

  std::shared_ptr<fastcast::Process> inner_;
  std::unique_ptr<Proxy> proxy_;
  NodeLedger* ledger_;
  Window window_;
  bool client_node_;
  CodecAtSeam codec_;
  std::int64_t epoch_ns_;
  std::vector<std::byte> scratch_;  ///< reused encode buffer
  std::uint64_t last_p2a_ = ~std::uint64_t{0};

  // Sends and timer wrappers made inside the open dispatch/timer span are
  // subtracted from its self time and allocations.
  bool span_open_ = false;
  std::int64_t child_ns_ = 0;
  std::uint64_t child_allocs_ = 0;

  std::atomic<pid_t> tid_{0};
  clockid_t cpu_clock_{};
};

/// Chrome trace-event JSON (opens in Perfetto): one complete event per span.
bool write_chrome_trace(const std::string& path,
                        const std::vector<NodeLedger>& nodes);

/// Multicast id carried by a payload, 0 if none.
fastcast::MsgId mid_of(const fastcast::Message& msg);

/// Everything one traced round measured, beyond the summed node ledgers.
struct LedgerInputs {
  NodeLedger totals;           ///< summed over every node
  double mcasts = 0;           ///< multicasts acknowledged in the window
  double cpu_s = 0;            ///< traced run's process CPU in the window
  double node_cpu_s = 0;       ///< TCP: CPU of the node threads in the window
  double sim_events = 0;       ///< simulator events in the window
  double ctx_switches = 0;     ///< TCP: voluntary switches of node threads
  double timer_late_ms = 0;    ///< TCP: mean generator lateness
  double latency_p50_ms = 0;   ///< the round's p50, as the timed run takes it
  double latency_p99_ms = 0;   ///< the round's p99, as the timed run takes it
  double storage_records = 0;
  double storage_bytes = 0;
  double snapshot_bytes = 0;
  double storage_syncs = 0;
  double fast_path = 0;        ///< FastCast fast-path hits in the window
  double slow_path = 0;        ///< FastCast slow-path orderings in the window
  double check_cpu_s = 0;      ///< output checks after the window
  bool simulated = true;
};

/// The per-layer metrics of one traced round, in BENCHMARK.json order.
std::vector<Metric> ledger_metrics(const LedgerInputs& in);

/// Adds every per-layer metric to `out` as its median over the rounds.
void add_ledger_medians(Outcome& out, const std::vector<LedgerInputs>& rounds);

}  // namespace perfbench
