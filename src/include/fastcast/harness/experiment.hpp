#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "fastcast/amcast/fastcast.hpp"
#include "fastcast/amcast/node.hpp"
#include "fastcast/checker/checker.hpp"
#include "fastcast/harness/client.hpp"
#include "fastcast/harness/topology.hpp"
#include "fastcast/obs/observability.hpp"
#include "fastcast/storage/storage.hpp"

/// \file experiment.hpp
/// Builds a full cluster (replicas + protocol + clients + checker) inside
/// the simulator and runs the paper's warm-up / measurement-window /
/// drain regimen. Benches call run_experiment(); tests that inject faults
/// mid-run drive a Cluster directly.

namespace fastcast::harness {

struct ExperimentConfig {
  TopologyConfig topo;

  /// Destination picker per client index (e.g. Fig. 3 pins client i to
  /// group i % G). Use same_dst_for_all() when all clients share one.
  std::function<DstPicker(std::size_t client_idx)> dst_factory;

  Duration warmup = milliseconds(400);
  Duration measure = seconds(2);
  Duration slice = milliseconds(100);
  std::uint64_t seed = 1;

  /// Stop clients at window end and drain in-flight traffic; enables the
  /// quiesced (agreement/validity) checks. Forced off when timers would
  /// never let the event queue empty (lossy links / heartbeats).
  bool drain = true;
  Duration drain_grace = seconds(30);

  bool run_checker = true;
  Checker::Level check_level = Checker::Level::kFast;

  // Environment/fault knobs.
  bool serialize_messages = false;  ///< codec round-trip on every unicast
  double drop_probability = 0.0;    ///< fair-lossy links
  bool heartbeats = false;          ///< leader re-election on
  RmConfig::Relay relay = RmConfig::Relay::kNone;

  // Protocol knobs.
  std::size_t consensus_window = 32;
  /// MultiPaxos ordering mode (mirrors MultiPaxosAmcast::Config::Ordering
  /// without pulling in the protocol header): kPayload runs full message
  /// batches through consensus, kIds disseminates bodies out-of-band and
  /// orders compact id records.
  enum class MpOrdering { kPayload, kIds };
  MpOrdering mp_ordering = MpOrdering::kPayload;
  /// Id-mode batch accumulation thresholds (see MultiPaxosAmcast::Config).
  std::size_t mp_batch_fill = 1;
  Duration mp_batch_delay = 0;
  /// State transfer + watermark pruning (src/repair). Off by default so
  /// baseline message counts are untouched; lag scenarios switch it on.
  repair::Options repair;
  TimestampProtocolBase::Config::HardSend hard_send =
      TimestampProtocolBase::Config::HardSend::kLeaderOnly;
  std::size_t payload_size = 64;
  /// >0 switches every client to an open loop: a new multicast every
  /// interval regardless of outstanding acks, so offered load is
  /// clients / interval instead of tracking service rate. 0 keeps the
  /// paper's closed loop.
  Duration open_loop_interval = 0;
  /// Server-side admission control (DESIGN.md §14): the MultiPaxos
  /// ordering leader rejects with Busy when shedding; genuine group
  /// leaders send advisory Busy. Off by default.
  flow::Options flow;
  /// Client-side robustness (deadlines, timeouts, backoff, retry budget).
  flow::ClientOptions client_flow;
  /// Ablation: Algorithm-2-verbatim eager SYNC-HARD proposals in FastCast.
  bool fastcast_eager_hard = false;

  // Durability. With durable on, every replica gets a storage::NodeStorage
  // (in-memory backend unless wal_dir names a real directory) attached to
  // its simulator Context, so acceptor promises/accepts, rmcast staging and
  // a-deliveries are logged and their externalizations gated on commit.
  struct DurabilityOptions {
    bool durable = false;
    storage::FsyncPolicy fsync;       ///< commit policy for every replica
    std::string wal_dir;              ///< empty → deterministic MemBackend
    std::uint64_t snapshot_every = 4096;  ///< records between snapshots
  };
  DurabilityOptions durability;

  // Observability.
  bool observe = false;        ///< attach a metrics registry to the run
  bool trace = false;          ///< also record per-message spans (implies observe)
  std::string metrics_out;     ///< write metrics JSON here (implies observe)
  /// Nominal one-way delay for empirical δ-accounting; with trace on and
  /// delta > 0 the result carries a DeltaSummary of hop counts.
  Duration delta = 0;

  // Environment overrides (δ-accounting uses a jitter-free uniform latency).
  std::function<std::unique_ptr<sim::LatencyModel>(const Membership*)>
      latency_factory;                     ///< replaces make_latency(env)
  std::optional<sim::CpuModel> cpu_override;  ///< replaces cpu_for(env)
};

inline std::function<DstPicker(std::size_t)> same_dst_for_all(DstPicker p) {
  return [p = std::move(p)](std::size_t) { return p; };
}

struct ExperimentResult {
  LatencyRecorder latency;          ///< completion latencies in the window
  ThroughputSummary throughput;     ///< completions/s across window slices
  Checker::Report report;
  bool drained = false;
  std::uint64_t events_processed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t fast_path_hits = 0;  ///< FastCast Task-6 matches (all replicas)
  std::uint64_t slow_path_hits = 0;  ///< SYNC-HARDs ordered via consensus
  /// A-deliveries externalized by all replicas in the measurement
  /// window (completion-independent: open-loop saturation shows up here
  /// even when ack latency grows without bound).
  std::uint64_t window_deliveries = 0;

  // Overload accounting (flow layer). `window_goodput` counts windowed
  // completions that met their deadline — what benches report as goodput,
  // distinct from raw deliveries. The terminal buckets are exclusive per
  // request: sent == completions + rejected + expired + timed_out +
  // in_flight_end (the conservation law overload chaos asserts).
  std::uint64_t sent = 0;             ///< primary sends across all clients
  std::uint64_t completions = 0;      ///< acked requests (window-independent)
  std::uint64_t window_goodput = 0;
  std::uint64_t rejected = 0;         ///< terminal Busy/kOverload
  std::uint64_t expired = 0;          ///< terminal Busy/kExpired
  std::uint64_t timed_out = 0;        ///< client gave up waiting
  std::uint64_t deadline_miss = 0;    ///< completed but past deadline
  std::uint64_t suppressed = 0;       ///< open-loop ticks shed in backoff
  std::uint64_t retries = 0;          ///< budgeted resubmits
  std::uint64_t busy_received = 0;    ///< Busy frames seen (incl. advisory)
  std::uint64_t in_flight_end = 0;    ///< unresolved at run end
  /// Per-slice completion counts of the measurement window (the data behind
  /// `throughput`); lets callers see duty-cycling a mean would hide.
  std::vector<std::uint64_t> slices;
  /// Run-wide metrics/spans; null unless observe/trace/metrics_out was set.
  std::shared_ptr<obs::Observability> obs;
  /// Filled when trace is on and delta > 0.
  obs::DeltaSummary delta_summary;
};

/// A fully wired cluster. Lifetime: construct → start() → run via
/// simulator() → collect results.
class Cluster {
 public:
  explicit Cluster(const ExperimentConfig& config);

  sim::Simulator& simulator() { return *sim_; }
  Checker& checker() { return checker_; }
  Metrics& metrics() { return *metrics_; }
  /// Null unless the config asked for observability.
  const std::shared_ptr<obs::Observability>& observability() const {
    return obs_;
  }
  const Deployment& deployment() const { return deployment_; }
  const ExperimentConfig& config() const { return config_; }

  void start() { sim_->start(); }

  /// Forbids new client sends from `at` on (closed loops go idle).
  void stop_clients(Time at);

  ReplicaNode& replica(NodeId node);
  ClientProcess& client(std::size_t idx);
  std::size_t replica_count() const { return replicas_.size(); }
  std::size_t client_count() const { return clients_.size(); }

  /// Sums sent counts / unresolved requests over all clients (overload
  /// conservation accounting).
  std::uint64_t total_sent() const;
  std::uint64_t total_in_flight() const;

  /// Sums FastCast fast/slow path counters over all replicas.
  std::pair<std::uint64_t, std::uint64_t> path_stats() const;

  /// Sums a-deliveries externalized so far over all replicas.
  std::uint64_t total_deliveries() const;

  /// Null unless the config asked for durability.
  storage::StorageManager* storage() { return storage_.get(); }

  /// Crash-recovers one replica as a real process death would: discards the
  /// old protocol/ReplicaNode objects, re-reads the node's snapshot + WAL
  /// (storage::NodeStorage::reset_and_recover), and builds a fresh stack
  /// seeded only from that durable state. The returned process is what the
  /// simulator's recovery factory installs before on_recover runs.
  std::shared_ptr<Process> rebuild_replica(NodeId node);

 private:
  std::shared_ptr<AtomicMulticast> make_protocol(NodeId node, GroupId group);
  std::unique_ptr<ClientStub> make_stub();

  std::shared_ptr<ReplicaNode> make_replica(NodeId node,
                                            std::shared_ptr<AtomicMulticast>);

  ExperimentConfig config_;
  Deployment deployment_;
  std::shared_ptr<obs::Observability> obs_;
  std::unique_ptr<storage::StorageManager> storage_;
  std::unique_ptr<sim::Simulator> sim_;
  Checker checker_;
  std::shared_ptr<Metrics> metrics_;
  std::vector<std::shared_ptr<ReplicaNode>> replicas_;        // by replica idx
  std::vector<std::shared_ptr<AtomicMulticast>> protocols_;   // parallel
  std::vector<std::shared_ptr<ClientProcess>> clients_;
  /// Durable runs: per-node delivery ids already reported to the checker.
  /// Outlives replica rebuilds so re-externalized in-doubt deliveries are
  /// observed exactly once.
  std::map<NodeId, std::set<MsgId>> seen_deliveries_;
};

/// The standard regimen: warm up, measure, optionally drain, check.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace fastcast::harness
