// Open-loop saturation sweep for the dissemination/ordering split.
//
// The MultiPaxos baseline is non-genuine: one fixed ordering group
// sequences every multicast, so its leader is the system bottleneck. This
// bench drives that bottleneck with open-loop clients (a new multicast
// every interval, regardless of outstanding acks) at increasing offered
// load and contrasts the two ordering modes at equal safety:
//
//   payload — full message batches travel through consensus (P2a/P2b carry
//             the payload bytes to every acceptor);
//   ids     — bodies are disseminated out-of-band to destination members
//             while consensus orders compact id records.
//
// To make the contrast visible the CPU model charges a per-byte
// serialization cost (CpuModel::per_byte, off everywhere else), so frames
// that carry payload cost send-side CPU proportional to their size — the
// simulator analogue of NIC/memcpy bandwidth. Under that model the payload
// mode saturates when the ordering leader's outbound bytes do; id mode
// keeps consensus frames small and saturates later.
//
// Reported per (mode, offered load): deliveries/s summed over all replicas
// in the measurement window (completion-independent, so saturation shows
// even when ack latency grows without bound), delivered payload bytes/s,
// and completion latency percentiles under load.
//
// Emits BENCH_openloop.json (override with --json); --smoke shrinks the
// sweep so CI can run it as a schema/regression smoke test.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fastcast/net/cpu_affinity.hpp"

namespace fastcast::bench {
namespace {

constexpr std::size_t kGroups = 3;
constexpr std::size_t kClients = 24;
constexpr std::size_t kPayloadBytes = 2048;

struct OpenLoopRow {
  std::string mode;              // "payload" | "ids"
  std::string overload;          // "none" (base sweep) | "off" | "on"
  double offered_per_sec = 0;    // clients / interval
  double deliveries_per_sec = 0; // replica a-deliveries in the window
  double delivered_bytes_per_sec = 0;
  double goodput_per_sec = 0;    // windowed completions that met deadline
  double median_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  std::uint64_t latency_samples = 0;
  std::uint64_t rejected = 0;      // terminal Busy/kOverload (run total)
  std::uint64_t expired = 0;       // terminal Busy/kExpired
  std::uint64_t timed_out = 0;     // client gave up waiting
  std::uint64_t suppressed = 0;    // injection ticks shed in backoff
  std::uint64_t deadline_miss = 0; // completed but past deadline
  bool check_ok = true;
};

/// Past-saturation sweep control: kNone is the base dissemination/ordering
/// sweep (no deadlines, flow dark — bit-for-bit the historical workload);
/// kOff stamps a deadline so goodput is measurable but leaves every
/// control off (the collapse column); kOn arms the full flow layer
/// (admission at the ordering leader, client timeout/backoff/retry).
enum class Overload { kNone, kOff, kOn };

harness::ExperimentConfig make_config(harness::ExperimentConfig::MpOrdering mode,
                                      Duration interval, bool smoke,
                                      std::uint64_t seed,
                                      Overload overload = Overload::kNone) {
  using namespace harness;
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = kGroups;
  cfg.topo.clients = kClients;
  cfg.topo.protocol = Protocol::kMultiPaxos;
  cfg.seed = seed;
  cfg.mp_ordering = mode;
  if (mode == ExperimentConfig::MpOrdering::kIds) {
    // Accumulate ids so consensus instances carry batches, exercising the
    // pipeline the way a loaded deployment would.
    cfg.mp_batch_fill = 16;
    cfg.mp_batch_delay = microseconds(200);
  }
  cfg.payload_size = kPayloadBytes;
  cfg.open_loop_interval = interval;
  // Single destination group per message: the ordering group's extra work
  // is pure overhead of non-genuineness, which is exactly the cost the
  // dissemination/ordering split attacks.
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    return fixed_group(static_cast<GroupId>(i % kGroups));
  };
  // Same CPU/latency floor as the calibrated LAN model, plus a 1 ns/byte
  // (~1 GB/s per node) serialization term so payload-carrying frames are
  // no longer free.
  cfg.cpu_override =
      sim::CpuModel{microseconds(15), microseconds(2), nanoseconds(1)};
  cfg.warmup = milliseconds(smoke ? 20 : 250);
  cfg.measure = milliseconds(smoke ? 80 : 400);
  cfg.slice = cfg.measure / 8;
  cfg.drain = false;  // open loop: we want behaviour *under* load
  cfg.check_level = Checker::Level::kFast;
  if (overload != Overload::kNone) {
    // Both columns stamp the same deadline so "goodput" means the same
    // thing; only the on column gets any machinery to protect it.
    cfg.client_flow.deadline = milliseconds(50);
    if (overload == Overload::kOn) {
      cfg.flow.enable = true;
      cfg.flow.target_delay = milliseconds(10);
      cfg.flow.trigger_window = milliseconds(4);
      cfg.client_flow.request_timeout = milliseconds(150);
      cfg.client_flow.backoff_base = milliseconds(1);
      cfg.client_flow.backoff_max = milliseconds(16);
      cfg.client_flow.retry_budget = 0.25;
      cfg.client_flow.max_retries = 2;
      cfg.client_flow.pace_increase = 0.002;
    }
  }
  return cfg;
}

OpenLoopRow run_point(harness::ExperimentConfig::MpOrdering mode,
                      Duration interval, bool smoke,
                      Overload overload = Overload::kNone) {
  const harness::ExperimentConfig cfg =
      make_config(mode, interval, smoke, 1, overload);
  const harness::ExperimentResult r = run_configured(cfg);
  check_or_warn(r, "openloop_throughput");

  OpenLoopRow row;
  row.mode =
      mode == harness::ExperimentConfig::MpOrdering::kIds ? "ids" : "payload";
  row.overload = overload == Overload::kNone ? "none"
                 : overload == Overload::kOn ? "on"
                                             : "off";
  row.offered_per_sec =
      static_cast<double>(kClients) / to_seconds(interval);
  const double window_s = to_seconds(cfg.measure);
  row.deliveries_per_sec =
      static_cast<double>(r.window_deliveries) / window_s;
  row.delivered_bytes_per_sec =
      row.deliveries_per_sec * static_cast<double>(kPayloadBytes);
  row.goodput_per_sec = static_cast<double>(r.window_goodput) / window_s;
  if (!r.latency.empty()) {
    row.median_ms = to_milliseconds(r.latency.median());
    row.p95_ms = to_milliseconds(r.latency.percentile(95));
    row.p99_ms = to_milliseconds(r.latency.percentile(99));
    row.latency_samples = r.latency.count();
  }
  row.rejected = r.rejected;
  row.expired = r.expired;
  row.timed_out = r.timed_out;
  row.suppressed = r.suppressed;
  row.deadline_miss = r.deadline_miss;
  row.check_ok = r.report.ok;
  return row;
}

/// Summary of the graceful-degradation proof: goodput with control on at
/// 2x the saturation offered rate, against the best goodput any
/// control-off point achieves (the saturation plateau).
struct OverloadHeadline {
  bool present = false;
  double saturation_goodput = 0;  // best "off" goodput across the sweep
  double on_2x_goodput = 0;       // "on" goodput at 2x the knee
  double off_2x_goodput = 0;      // "off" goodput at 2x the knee (collapse)
  bool ok = true;
};

int write_json(const std::string& path, const std::vector<OpenLoopRow>& rows,
               const OverloadHeadline& headline, bool smoke, int host_cpus) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "openloop_throughput: cannot write %s\n",
                 path.c_str());
    return 1;
  }
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("bench", "openloop_throughput");
  write_build_flavor(w);
  w.kv("smoke", smoke);
  w.kv("host_cpus", static_cast<std::int64_t>(host_cpus));
  w.kv("groups", static_cast<std::int64_t>(kGroups));
  w.kv("clients", static_cast<std::int64_t>(kClients));
  w.kv("payload_bytes", static_cast<std::int64_t>(kPayloadBytes));
  w.key("rows").begin_array();
  for (const OpenLoopRow& row : rows) {
    w.begin_object();
    w.kv("mode", row.mode);
    w.kv("overload", row.overload);
    w.kv("offered_per_sec", row.offered_per_sec);
    w.kv("deliveries_per_sec", row.deliveries_per_sec);
    w.kv("delivered_bytes_per_sec", row.delivered_bytes_per_sec);
    w.kv("goodput_per_sec", row.goodput_per_sec);
    w.kv("median_ms", row.median_ms);
    w.kv("p95_ms", row.p95_ms);
    w.kv("p99_ms", row.p99_ms);
    w.kv("latency_samples", row.latency_samples);
    w.kv("rejected", row.rejected);
    w.kv("expired", row.expired);
    w.kv("timed_out", row.timed_out);
    w.kv("suppressed", row.suppressed);
    w.kv("deadline_miss", row.deadline_miss);
    w.kv("check_ok", row.check_ok);
    w.end_object();
  }
  w.end_array();
  if (headline.present) {
    w.key("overload_headline").begin_object();
    w.kv("saturation_goodput_per_sec", headline.saturation_goodput);
    w.kv("on_2x_goodput_per_sec", headline.on_2x_goodput);
    w.kv("off_2x_goodput_per_sec", headline.off_2x_goodput);
    w.kv("holds_80pct", headline.ok);
    w.end_object();
  }
  w.end_object();
  out << '\n';
  return 0;
}

int bench_main(int argc, char** argv) {
  warn_if_not_benchmark_grade("openloop_throughput");
  bool smoke = false;
  std::string json_path = "BENCH_openloop.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: openloop_throughput [--smoke] [--json <path>]\n"
          "  --smoke  reduced sweep / short windows (CI smoke test)\n"
          "  --json   output path (default BENCH_openloop.json)\n");
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }

  // Offered load per point = kClients / interval. The full sweep brackets
  // the calibrated single-node saturation (~66 k handled msgs/s at 15 us
  // per message) from well below to well past it.
  std::vector<std::int64_t> offered = smoke
                                          ? std::vector<std::int64_t>{4000, 24000}
                                          : std::vector<std::int64_t>{4000, 8000,
                                                                      16000, 24000,
                                                                      32000, 48000};

  using Mode = harness::ExperimentConfig::MpOrdering;
  std::vector<OpenLoopRow> rows;
  bool all_safe = true;
  std::printf("open-loop saturation, fixed ordering group (%zu groups, %zu "
              "clients, %zu B payload)\n",
              kGroups, kClients, kPayloadBytes);
  std::printf("%-8s %12s %14s %12s %10s %10s\n", "mode", "offered/s",
              "deliveries/s", "MB/s", "median ms", "p95 ms");
  for (Mode mode : {Mode::kPayload, Mode::kIds}) {
    for (std::int64_t rate : offered) {
      const Duration interval =
          kSecond * static_cast<Duration>(kClients) / rate;
      OpenLoopRow row = run_point(mode, interval, smoke);
      all_safe = all_safe && row.check_ok;
      std::printf("%-8s %12.0f %14.0f %12.2f %10.3f %10.3f\n",
                  row.mode.c_str(), row.offered_per_sec,
                  row.deliveries_per_sec,
                  row.delivered_bytes_per_sec / 1e6, row.median_ms,
                  row.p95_ms);
      rows.push_back(std::move(row));
    }
  }

  // Headline: at the top offered rate, id ordering must deliver at least
  // what payload-through-consensus does (it saturates later).
  double payload_peak = 0, ids_peak = 0;
  for (const OpenLoopRow& row : rows) {
    double& peak = row.mode == "ids" ? ids_peak : payload_peak;
    if (row.deliveries_per_sec > peak) peak = row.deliveries_per_sec;
  }
  std::printf("peak deliveries/s: payload %.0f, ids %.0f (%+.1f%%)\n",
              payload_peak, ids_peak,
              payload_peak > 0
                  ? 100.0 * (ids_peak - payload_peak) / payload_peak
                  : 0.0);

  // Graceful-degradation sweep (id mode, 50 ms deadline in both columns):
  // offered load from half the knee to 4x past it. The "off" column has no
  // protection, so past saturation queues grow without bound, acks land
  // past the deadline and goodput collapses; "on" arms admission control
  // at the ordering leader plus client timeout/backoff/retry, so goodput
  // must hold at >= 80% of the saturation plateau (the knee is calibrated
  // from the base sweep: deliveries stop scaling near 33k offered/s).
  constexpr std::int64_t kKnee = 33000;
  const std::vector<std::int64_t> ov_offered =
      smoke ? std::vector<std::int64_t>{2 * kKnee}
            : std::vector<std::int64_t>{kKnee / 2, kKnee, 2 * kKnee, 3 * kKnee,
                                        4 * kKnee};
  std::printf("\noverload sweep (ids mode, 50 ms deadline)\n");
  std::printf("%-5s %12s %12s %12s %10s %10s %10s %10s\n", "ctl", "offered/s",
              "goodput/s", "rejected", "expired", "timedout", "suppress",
              "p99 ms");
  OverloadHeadline headline;
  headline.present = true;
  for (std::int64_t rate : ov_offered) {
    for (Overload ctl : {Overload::kOff, Overload::kOn}) {
      const Duration interval =
          kSecond * static_cast<Duration>(kClients) / rate;
      OpenLoopRow row = run_point(Mode::kIds, interval, smoke, ctl);
      all_safe = all_safe && row.check_ok;
      std::printf("%-5s %12.0f %12.0f %12llu %10llu %10llu %10llu %10.3f\n",
                  row.overload.c_str(), row.offered_per_sec,
                  row.goodput_per_sec,
                  static_cast<unsigned long long>(row.rejected),
                  static_cast<unsigned long long>(row.expired),
                  static_cast<unsigned long long>(row.timed_out),
                  static_cast<unsigned long long>(row.suppressed),
                  row.p99_ms);
      if (row.overload == "off") {
        headline.saturation_goodput =
            std::max(headline.saturation_goodput, row.goodput_per_sec);
        if (rate == 2 * kKnee) headline.off_2x_goodput = row.goodput_per_sec;
      } else if (rate == 2 * kKnee) {
        headline.on_2x_goodput = row.goodput_per_sec;
      }
      rows.push_back(std::move(row));
    }
  }
  headline.ok = headline.on_2x_goodput >= 0.8 * headline.saturation_goodput;
  std::printf("goodput at 2x saturation: off %.0f/s, on %.0f/s "
              "(plateau %.0f/s) -> control %s\n",
              headline.off_2x_goodput, headline.on_2x_goodput,
              headline.saturation_goodput,
              headline.ok ? "holds >=80%" : "BELOW 80% of plateau");

  const int rc =
      write_json(json_path, rows, headline, smoke, net::online_cpu_count());
  if (rc != 0) return rc;
  if (!all_safe) {
    std::fprintf(stderr, "openloop_throughput: checker violations\n");
    return 1;
  }
  if (!smoke && !headline.ok) {
    // The smoke sweep's windows are too short for a stable plateau figure,
    // so only the full run enforces the degradation bound.
    std::fprintf(stderr,
                 "openloop_throughput: goodput under overload fell below "
                 "80%% of the saturation plateau\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fastcast::bench

int main(int argc, char** argv) {
  return fastcast::bench::bench_main(argc, argv);
}
