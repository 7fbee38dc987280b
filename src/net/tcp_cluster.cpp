#include "fastcast/net/tcp_cluster.hpp"

#include <algorithm>
#include <chrono>

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"
#include "fastcast/net/timer_heap.hpp"
#include "fastcast/obs/observability.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast::net {

namespace {
Time steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

/// Context over a TcpTransport plus a local timer heap; single-threaded.
class TcpCluster::NodeRuntime final : public Context {
 public:
  NodeRuntime(TcpCluster* cluster, NodeId self, const AddressBook& addresses,
              std::uint64_t seed)
      : cluster_(cluster),
        self_(self),
        transport_(self, addresses),
        rng_(seed) {
    transport_.set_receive([this](NodeId from, const Message& msg) {
      if (c_received_) c_received_->inc();
      process_->on_message(*this, from, msg);
    });
    if (obs::Observability* o = cluster_->config_.observability) {
      set_observability(o);
      transport_.set_observability(o);
      c_sent_ = &o->metrics.counter("net.unicasts");
      c_received_ = &o->metrics.counter("net.received");
    }
    if (storage::StorageManager* sm = cluster_->config_.storage) {
      set_storage(sm->node(self_));
    }
  }

  void set_process(std::shared_ptr<Process> p) { process_ = std::move(p); }
  bool has_process() const { return process_ != nullptr; }
  void listen() { transport_.listen(); }

  // Context ------------------------------------------------------------------
  NodeId self() const override { return self_; }
  Time now() const override { return steady_now_ns() - epoch_; }
  Rng& rng() override { return rng_; }
  const Membership& membership() const override {
    return cluster_->config_.membership;
  }
  void send(NodeId to, const Message& msg) override {
    if (c_sent_) c_sent_->inc();
    transport_.send(to, msg);
  }

  TimerId set_timer(Duration delay, std::function<void()> cb) override {
    return timers_.schedule(now() + delay, std::move(cb));
  }
  void cancel_timer(TimerId id) override { timers_.cancel(id); }

  // Node thread main loop ----------------------------------------------------
  void run(std::atomic<bool>& running, int poll_interval_ms, Time epoch,
           bool recovering) {
    epoch_ = epoch;
    active_.store(true, std::memory_order_relaxed);
    if (recovering) {
      // Crash semantics: timers armed before the kill are gone; the
      // process re-arms what it needs from on_recover.
      timers_.clear();
      process_->on_recover(*this);
    } else {
      process_->on_start(*this);
    }
    while (running.load(std::memory_order_relaxed) &&
           active_.load(std::memory_order_relaxed)) {
      Duration timeout = milliseconds(poll_interval_ms);
      Time due = 0;
      if (timers_.next_due(due)) {
        timeout = std::clamp<Duration>(due - now(), 0, timeout);
      }
      transport_.poll_once(timeout);
      timers_.fire_due(now());
    }
    transport_.close_all();
  }

  void deactivate() { active_.store(false, std::memory_order_relaxed); }
  Time epoch() const { return epoch_; }

 private:
  TcpCluster* cluster_;
  NodeId self_;
  TcpTransport transport_;
  Rng rng_;
  obs::Counter* c_sent_ = nullptr;
  obs::Counter* c_received_ = nullptr;
  std::shared_ptr<Process> process_;
  Time epoch_ = 0;
  std::atomic<bool> active_{false};
  TimerHeap timers_;
};

TcpCluster::TcpCluster(Config config) : config_(std::move(config)) {
  Rng seeder(0x7cf0c1);
  nodes_.resize(config_.membership.node_count());
  AddressBook addresses;
  addresses.base_port = config_.base_port;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i] = std::make_unique<NodeRuntime>(this, static_cast<NodeId>(i),
                                              addresses, seeder.next());
  }
}

TcpCluster::~TcpCluster() { stop(); }

void TcpCluster::add_process(NodeId node, std::shared_ptr<Process> process) {
  FC_ASSERT(node < nodes_.size());
  nodes_[node]->set_process(std::move(process));
}

void TcpCluster::start() {
  for (auto& n : nodes_) {
    FC_ASSERT_MSG(n->has_process(), "every node needs a process");
    n->listen();
  }
  running_.store(true);
  const Time epoch = steady_now_ns();
  threads_.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    threads_[i] = std::thread([this, node = nodes_[i].get(), epoch] {
      node->run(running_, config_.poll_interval_ms, epoch, /*recovering=*/false);
    });
  }
}

void TcpCluster::stop() {
  if (!running_.exchange(false)) return;
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void TcpCluster::stop_node(NodeId node) {
  FC_ASSERT(node < nodes_.size());
  FC_ASSERT_MSG(running_.load(), "cluster not running");
  nodes_[node]->deactivate();
  if (threads_[node].joinable()) threads_[node].join();
  if (config_.storage) {
    // Process death: gated externalizations whose records never became
    // durable are gone for good — replay after restart must not see them.
    config_.storage->node(node)->drop_pending();
  }
  if (config_.observability) {
    config_.observability->metrics.counter("fault.crashes").inc();
  }
}

void TcpCluster::restart_node(NodeId node) { restart_node(node, nullptr); }

void TcpCluster::restart_node(NodeId node, std::shared_ptr<Process> replacement) {
  FC_ASSERT(node < nodes_.size());
  FC_ASSERT_MSG(running_.load(), "cluster not running");
  FC_ASSERT_MSG(!threads_[node].joinable(), "node still running");
  NodeRuntime* n = nodes_[node].get();
  if (replacement != nullptr) n->set_process(std::move(replacement));
  n->listen();  // SO_REUSEADDR: rebinding the same port succeeds promptly
  const Time epoch = n->epoch();
  threads_[node] = std::thread([this, n, epoch] {
    n->run(running_, config_.poll_interval_ms, epoch, /*recovering=*/true);
  });
  if (config_.observability) {
    config_.observability->metrics.counter("fault.recoveries").inc();
  }
}

}  // namespace fastcast::net
