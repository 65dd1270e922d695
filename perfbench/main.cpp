// perfbench: end-to-end realization benchmark over dgr's public API.
//
//   perfbench --workload <degree-powerlaw|threshold-tree|serve-mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Prints a run-conditions line, then, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics of an untraced run; --trace 1 reports the
// per-layer metrics of a traced run. See README.md for the metric table.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <limits>
#include <string>

#include "bench/occupancy.h"
#include "bench/rss.h"
#include "common.h"

namespace perfbench {

namespace {

double cpu_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double load = -1;
  in >> load;
  return load;
}

}  // namespace

double process_cpu_seconds() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_seconds() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return static_cast<double>(dgr::bench::peak_rss_bytes()) / (1024.0 * 1024.0);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

int tail_percentile(std::size_t samples) {
  for (int p = 99; p > 50; --p) {
    if (static_cast<double>(samples) * (100 - p) / 100.0 >= 10.0) return p;
  }
  return 50;
}

std::size_t median_index(const std::vector<double>& v) {
  std::vector<std::size_t> idx(v.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return idx[(idx.size() - 1) / 2];
}

std::uint64_t fingerprint(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t w : words) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (w >> b) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

namespace {

void print_values(const std::map<std::string, Report::Value>& values) {
  bool first = true;
  for (const auto& [name, v] : values) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v.value, v.unit.c_str());
    first = false;
  }
}

}  // namespace

void Report::print() const {
  std::printf("{\"details\": {");
  print_values(details_);
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  print_values(metrics_);
  std::printf("}}\n");
  std::fflush(stdout);
}

Regime regime_of(const std::string& label,
                 const std::vector<std::uint64_t>& degree) {
  Regime r;
  r.label = label;
  r.n = degree.size();
  std::uint64_t sum = 0;
  for (const std::uint64_t d : degree) {
    sum += d;
    r.max_degree = std::max(r.max_degree, d);
  }
  r.m = sum / 2;
  return r;
}

void print_conditions(const Options& opt, unsigned threads,
                      const std::vector<Regime>& regimes) {
  const bool over = dgr::bench::warn_if_oversubscribed(threads, "perfbench");
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::printf("{\"conditions\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"smoke\": %d, \"nproc\": %u, "
              "\"cpu\": \"%s\", \"date\": \"%s\", \"load_at_start\": %.2f, "
              "\"threads\": %u, \"oversubscribed\": %d, \"regimes\": [",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, opt.smoke ? 1 : 0,
              dgr::bench::hardware_cores(), json_escape(cpu_model()).c_str(),
              date, opt.load_at_start, threads, over ? 1 : 0);
  for (std::size_t i = 0; i < regimes.size(); ++i) {
    const Regime& r = regimes[i];
    const double root = std::sqrt(2.0 * static_cast<double>(r.m));
    const double guard =
        std::min(root, 2.0 * static_cast<double>(r.max_degree));
    std::printf("%s{\"input\": \"%s\", \"n\": %llu, \"m\": %llu, "
                "\"max_degree\": %llu, \"sqrt_2m\": %.1f, "
                "\"phase_guard\": %.1f}",
                i == 0 ? "" : ", ", r.label.c_str(),
                static_cast<unsigned long long>(r.n),
                static_cast<unsigned long long>(r.m),
                static_cast<unsigned long long>(r.max_degree), root, guard);
  }
  std::printf("]}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <degree-powerlaw|threshold-tree|"
               "serve-mixed> --seed N --seconds S --trace 0|1 [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.load_at_start = perfbench::load_average();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) != "0";
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0)) return usage();

  perfbench::Report report;
  try {
    if (opt.workload == "degree-powerlaw") {
      perfbench::run_degree_powerlaw(opt, report);
    } else if (opt.workload == "threshold-tree") {
      perfbench::run_threshold_tree(opt, report);
    } else if (opt.workload == "serve-mixed") {
      perfbench::run_serve_mixed(opt, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return 0;
}
