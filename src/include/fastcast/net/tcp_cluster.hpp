#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "fastcast/net/tcp_transport.hpp"
#include "fastcast/runtime/context.hpp"

/// \file tcp_cluster.hpp
/// Runs a whole deployment over real TCP sockets inside one OS process:
/// one thread per node, each with its own TcpTransport-backed Context.
/// The protocol objects are exactly the ones the simulator runs — this is
/// the "deploy the same code on a real network" demonstrator used by the
/// tcp_cluster example and the net integration tests.
///
/// Every node's Process runs strictly on its own thread; cross-thread
/// interaction happens only through sockets. Observers installed on
/// processes are invoked on node threads and must synchronise themselves.

namespace fastcast {
namespace obs {
class Observability;
}
namespace storage {
class StorageManager;
}

namespace net {

/// Single-value leftover of the removed transport-engine choice: the
/// end-to-end benchmark (perfbench/tcp_workload.cpp) still sets
/// TcpCluster::Config::backend. Nothing reads it; it goes with the next
/// change to that benchmark.
enum class BackendKind { kPoll };

class TcpCluster {
 public:
  struct Config {
    Membership membership;
    std::uint16_t base_port = 17400;
    int poll_interval_ms = 2;
    BackendKind backend = BackendKind::kPoll;  ///< unused, see BackendKind
    /// Optional run-wide metrics/tracing bundle shared by all node threads
    /// (instruments are thread-safe). Must outlive the cluster.
    obs::Observability* observability = nullptr;
    /// Optional durable storage. When set, each node's Context carries its
    /// NodeStorage (created lazily, one WAL directory per node), so the
    /// protocol stack logs and gates exactly as it does in simulation.
    /// Must outlive the cluster. Each NodeStorage is only ever touched from
    /// its own node thread (plus restart plumbing after that thread joined).
    storage::StorageManager* storage = nullptr;
  };

  explicit TcpCluster(Config config);
  ~TcpCluster();

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  void add_process(NodeId node, std::shared_ptr<Process> process);

  /// Binds all listeners, then spawns node threads (on_start runs on the
  /// node's own thread before its loop begins).
  void start();

  /// Signals all loops to exit and joins the threads.
  void stop();

  /// Kills one running node: its loop exits, sockets close, armed timers
  /// are lost. Peers keep queueing frames for it under backoff reconnect.
  /// With storage attached, gated externalizations that never became
  /// durable are dropped — exactly what a process death loses.
  void stop_node(NodeId node);

  /// Restarts a stopped node with its retained Process object. Without
  /// storage this over-approximates durability (all in-memory state
  /// survives, as if everything had been on disk); with storage attached
  /// prefer the replacement overload, which models a real process death.
  /// Re-binds the listener and runs on_recover on the fresh node thread so
  /// the process re-arms its timers and re-joins.
  void restart_node(NodeId node);

  /// Restarts a stopped node with a fresh Process (typically rebuilt from
  /// storage::NodeStorage::reset_and_recover + restore_durable), discarding
  /// the old object and every bit of state that was not on disk.
  void restart_node(NodeId node, std::shared_ptr<Process> replacement);

  const Membership& membership() const { return config_.membership; }

 private:
  class NodeRuntime;

  Config config_;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  std::vector<std::thread> threads_;  ///< indexed by NodeId
};

}  // namespace net
}  // namespace fastcast
