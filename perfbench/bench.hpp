#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file bench.hpp
/// Shared pieces of the end-to-end benchmark: the heap and clock probes
/// read at the edges of a measured window, and the outcome every workload
/// hands back to main() for printing.

namespace perfbench {

// --- heap accounting (alloc_count.cpp replaces global new/delete) ---------

struct HeapSnapshot {
  std::uint64_t allocs = 0;     ///< allocations since process start, all threads
  std::int64_t live_bytes = 0;  ///< malloc_usable_size of every live block
};

HeapSnapshot heap_snapshot();

/// Allocations made so far by the calling thread.
std::uint64_t thread_allocs();

// --- clocks -----------------------------------------------------------------

std::int64_t steady_ns();
double wall_s();
double process_cpu_s();

// --- arguments and results ---------------------------------------------------

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< traced runs write Chrome trace JSON here
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::vector<std::string> errors;  ///< failed output checks
  std::uint64_t attempted = 0;      ///< multicasts issued by clients
  std::uint64_t failed = 0;         ///< issued but never acknowledged
  std::vector<Metric> metrics;
  /// Human-readable context (sample counts, spreads) printed before the
  /// JSON line.
  std::vector<std::string> notes;

  bool correct() const { return errors.empty(); }
  void fail(std::string why) { errors.push_back(std::move(why)); }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string text) { notes.push_back(std::move(text)); }
};

Outcome run_sim_workload(const RunArgs& args);
Outcome run_tcp_workload(const RunArgs& args);

/// Median of `v` (mean of the two middle values for even sizes).
double median(std::vector<double> v);

/// Lower quartile of `v` (nearest rank).
double lower_quartile(std::vector<double> v);

/// Nearest-rank percentile of unsorted samples (p in [0, 100]).
double percentile(std::vector<std::int64_t> v, double p);

}  // namespace perfbench
