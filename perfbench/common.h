// Shared plumbing for the perfbench program: options, timers, order
// statistics, the metric sink, and the run-conditions stamp.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ncc/stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  ///< tiny inputs and windows for the smoke test
  double load_at_start = -1;  ///< 1-minute load average before set-up
};

/// Set-up runs this many times per run; setup_s is the median.
inline int setup_repetitions(const Options& opt) { return opt.smoke ? 2 : 3; }

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed so far by the whole process (every thread) or by
/// the calling thread. With paravirtual steal accounting, as on shared
/// virtual machines, time a vCPU spends descheduled by the host is not
/// counted, so CPU time stays steady where wall time swings with host load.
double process_cpu_seconds();
double thread_cpu_seconds();

/// Peak resident set size in MiB since the last bench::reset_peak_rss(),
/// read from VmHWM. getrusage's ru_maxrss, which bench::peak_rss_bytes()
/// returns, never drops below the high-water mark of the image the process
/// was exec'd from, so under a larger launcher (python3 run.py) it reports
/// the launcher's footprint instead of ours.
double peak_rss_mib();

/// Median of a non-empty sample (mean of the middle pair when even).
double median(std::vector<double> v);

/// Linear-interpolated q-quantile, q in [0, 1], of a non-empty sample.
double quantile(std::vector<double> v, double q);

/// The highest whole percentile that still has at least 10 samples beyond
/// it (99 once there are 1000 samples); 50 when the sample is too small to
/// say anything beyond the median.
int tail_percentile(std::size_t samples);

/// Index of the median element of `v` by value (the lower middle when the
/// count is even), so per-layer breakdowns can be read off one real
/// operation and still add up.
std::size_t median_index(const std::vector<double>& v);

/// FNV-1a over 64-bit words; the per-operation output fingerprint.
std::uint64_t fingerprint(const std::vector<std::uint64_t>& words);

/// Metric sink: name -> (value, unit), emitted as the last stdout line.
class Report {
 public:
  struct Value {
    double value;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// A workload-specific figure: printed on the details line ahead of the
  /// result line, not in the result's metrics, which hold exactly the
  /// metrics BENCHMARK.json declares for the run.
  void detail(const std::string& name, double value, const std::string& unit) {
    details_[name] = {value, unit};
  }
  /// Operations attempted, and those that failed or produced output that
  /// did not match the reference.
  void count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Successful operations over attempted ones (1 when nothing failed).
  double ok_frac() const {
    return attempted_ == 0
               ? 0.0
               : static_cast<double>(attempted_ - failed_) /
                     static_cast<double>(attempted_);
  }
  /// Prints the details line {"details": {...}}, then the result line
  /// {"correct", "attempted", "failed", "metrics"}.
  void print() const;

 private:
  std::map<std::string, Value> metrics_;
  std::map<std::string, Value> details_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The per-layer figures every workload's traced run reports: one field
/// per per_layer metric of BENCHMARK.json, so no workload can leave one
/// out. Engine figures describe one operation (a realization; on
/// serve-mixed, the mean over the re-run requests).
struct Layers {
  double realize_s = 0;         ///< untraced operation wall time
  double realize_traced_s = 0;  ///< traced operation wall time
  double trace_overhead = 0;    ///< traced over untraced wall time
  double gen_s = 0;             ///< input generation
  double bootstrap_s = 0;       ///< path + BBST + skip-link bootstrap
  double validate_s = 0;        ///< referee
  double pool_reuse_frac = 0;   ///< ArenaPool reuses over acquires
  double knowledge = 0;         ///< IDs known across all nodes at the end
  dgr::ncc::NetStats net;       ///< of the traced operation
};

/// Adds `s` into `into` (sums; maxima for the per-round maxima).
void add_stats(dgr::ncc::NetStats& into, const dgr::ncc::NetStats& s);

/// Sets every per_layer metric from `l`; ncc.referee_s is the traced wall
/// time minus the engine phases, so the two add up to realize_traced_s.
void report_layers(const Layers& l, Report& out);

/// Input regime of one realization input, in the paper's terms: n, m,
/// Δ, √(2m) and Lemma 10's phase guard min{√(2m), 2Δ}.
struct Regime {
  std::string label;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t max_degree = 0;
};
Regime regime_of(const std::string& label,
                 const std::vector<std::uint64_t>& degree);

/// Prints one stdout line stamping the run's conditions (nproc, CPU model,
/// date, load average at start, worker threads, oversubscription) and the
/// input regimes, ahead of the result line.
void print_conditions(const Options& opt, unsigned threads,
                      const std::vector<Regime>& regimes);

/// Workload entry points. Each fills `out` and returns normally; any
/// exception escaping is a benchmark error (exit code != 0).
void run_degree_powerlaw(const Options& opt, Report& out);
void run_threshold_tree(const Options& opt, Report& out);
void run_serve_mixed(const Options& opt, Report& out);

}  // namespace perfbench
