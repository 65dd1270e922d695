// serve-mixed: a RealizationService fed by one open-loop generator thread.
//
// The request stream is generated up front from the seed: a hot set of
// repeated degree sequences (warmed during set-up, so they hit the cache),
// fresh seed-advanced sequences that run cold (a share of them sent twice
// in the same arrival slot, so the twin can coalesce), and a small share of
// in-range non-graphic sequences, all at small n in both kExact and
// kEnvelope modes. The generator sends on a fixed schedule regardless of
// completions and each latency is timed from the request's scheduled send
// time, so a stall shows up in every request queued behind it.
//
// The window runs a fixed ladder of arrival rates, lowest first; the
// first, longest rung is the reference for the per-request figures. A rung meets
// the SLO when its p90 latency and its drain time (last send to last
// answer, which grows with any backlog) both stay within the limit.
//
// The service runs its Networks internally, so the traced run (--trace 1)
// gets its engine, primitives and realization figures by re-running the
// reference rung's distinct cold requests directly on the engine after the
// ladder, each once untraced and once with phase timing on, with the
// service's configuration; every re-run must reproduce the service's
// answer. Serve-layer figures go to the details line.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/rss.h"
#include "common.h"
#include "graph/degree_sequence.h"
#include "graph/generators.h"
#include "ncc/arena.h"
#include "ncc/network.h"
#include "primitives/bbst.h"
#include "primitives/path.h"
#include "primitives/skiplinks.h"
#include "realization/implicit_degree.h"
#include "realization/validate.h"
#include "serve/service.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using dgr::serve::Mode;
using dgr::serve::RealizationService;
using dgr::serve::Request;

// SLO of max_rps_at_slo; BENCHMARK.json records the same limit in the
// serve-mixed workload's description.
constexpr double kSloMs = 100.0;
constexpr double kSloQuantile = 0.90;

enum class Kind : std::uint8_t { kHot, kFresh, kTwin, kNonGraphic };

struct Planned {
  Kind kind;
  std::size_t key;  ///< index into the key table
};

struct Rung {
  double rate;   ///< requests per second
  double share;  ///< share of the window
};

struct Sent {
  Clock::time_point due;
  double lag_ms = 0;
  double latency_ms = -1;
  bool immediate = false;  ///< answered inside submit (a cache hit)
  std::shared_ptr<const dgr::serve::Realization> answer;
};

struct Traffic {
  std::vector<Request> keys;      ///< distinct requests
  std::size_t hot = 0;            ///< keys [0, hot) are the hot set
  std::vector<Planned> stream;    ///< the whole send order
};

/// Heavy-tailed and clamped at Δ = 16, so a request's phase count sits
/// near the 2Δ guard and rounds vary little between requests.
std::vector<std::uint64_t> graphic_degrees(std::size_t n, dgr::Rng& rng) {
  return dgr::graph::powerlaw_sequence(n, std::min<std::size_t>(16, n - 1),
                                       1.45, rng);
}

/// In-range (every degree <= n-1) but not graphic: three near-universal
/// hubs need every other node at degree >= 3, yet most sit at 1.
std::vector<std::uint64_t> non_graphic_degrees(std::size_t n, dgr::Rng& rng) {
  for (;;) {
    auto d = graphic_degrees(n, rng);
    std::sort(d.begin(), d.end(), std::greater<>());
    d[0] = d[1] = d[2] = n - 1;
    std::uint64_t sum = 0;
    for (const auto x : d) sum += x;
    if (sum % 2 != 0) {
      if (d[3] < n - 1) {
        ++d[3];
      } else {
        --d[3];
      }
    }
    if (!dgr::graph::erdos_gallai_graphic(d)) return d;
  }
}

/// Envelope requests carry raw (unrepaired) degrees, so the envelope has
/// real work to do and its edge count can exceed Σd/2.
std::vector<std::uint64_t> raw_degrees(std::size_t n, dgr::Rng& rng) {
  std::vector<std::uint64_t> d(n);
  for (auto& x : d) x = 1 + rng.below(std::min<std::size_t>(12, n - 1));
  return d;
}

/// `slots` arrivals; a twin shares its original's arrival slot. The mix is
/// stratified so that seeds change the sequences, not the proportions:
/// sizes follow a golden-ratio sequence over [n_lo, n_hi] from a seeded
/// start, every third graphic key asks for an envelope, and each block of
/// 20 slots holds exactly 5 hot requests, 13 fresh ones (3 with a twin)
/// and 2 non-graphic ones in seeded order.
Traffic make_traffic(const Options& opt, std::size_t slots) {
  Traffic t;
  dgr::Rng rng(dgr::hash_mix(opt.seed, 0x5e77));
  const std::size_t n_lo = opt.smoke ? 32 : 64;
  const std::size_t n_hi = opt.smoke ? 64 : 256;
  const double phase = rng.uniform();
  std::uint64_t next_seed = dgr::hash_mix(opt.seed, 0x5eed);
  std::size_t graphic = 0;
  auto new_key = [&](Kind kind) {
    const double u = phase + 0.6180339887498949 * static_cast<double>(t.keys.size());
    const std::size_t n =
        n_lo + static_cast<std::size_t>((u - static_cast<std::uint64_t>(u)) *
                                        static_cast<double>(n_hi - n_lo + 1));
    Request r;
    r.seed = next_seed++;
    const bool envelope = kind != Kind::kNonGraphic && graphic++ % 3 == 2;
    r.mode = envelope ? Mode::kEnvelope : Mode::kExact;
    if (kind == Kind::kNonGraphic) {
      r.degrees = non_graphic_degrees(n, rng);
    } else {
      r.degrees = envelope ? raw_degrees(n, rng) : graphic_degrees(n, rng);
    }
    // Clients send the multiset in arbitrary order.
    for (std::size_t i = r.degrees.size(); i > 1; --i) {
      std::swap(r.degrees[i - 1], r.degrees[rng.below(i)]);
    }
    t.keys.push_back(std::move(r));
    return t.keys.size() - 1;
  };
  t.hot = opt.smoke ? 4 : 24;
  for (std::size_t i = 0; i < t.hot; ++i) new_key(Kind::kHot);
  // 25% hot hits, 65% fresh, 10% non-graphic: the median request runs
  // cold, well away from the hits. kTwin in a block marks a fresh slot
  // that carries a twin.
  std::vector<Kind> block;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    if (block.empty()) {
      block.assign(5, Kind::kHot);
      block.insert(block.end(), 3, Kind::kTwin);
      block.insert(block.end(), 10, Kind::kFresh);
      block.insert(block.end(), 2, Kind::kNonGraphic);
      for (std::size_t i = block.size(); i > 1; --i) {
        std::swap(block[i - 1], block[rng.below(i)]);
      }
    }
    const Kind kind = block.back();
    block.pop_back();
    if (kind == Kind::kHot) {
      t.stream.push_back({Kind::kHot, rng.below(t.hot)});
    } else if (kind == Kind::kNonGraphic) {
      t.stream.push_back({Kind::kNonGraphic, new_key(Kind::kNonGraphic)});
    } else {
      const std::size_t k = new_key(Kind::kFresh);
      t.stream.push_back({Kind::kFresh, k});
      if (kind == Kind::kTwin) t.stream.push_back({Kind::kTwin, k});
    }
  }
  return t;
}

dgr::serve::ServiceConfig service_config(std::size_t keys) {
  dgr::serve::ServiceConfig cfg;
  cfg.drivers = 2;
  cfg.net_threads = 1;
  cfg.batch_max = 8;
  cfg.queue_capacity = 64;
  // Room for every distinct key: nothing is evicted, so cold runs equal
  // distinct keys and rounds stay exact.
  cfg.cache_capacity = keys + 16;
  return cfg;
}

/// A ready future's answer; a request that failed with an exception has
/// none, which the correctness pass counts as a failed operation.
RealizationService::Result answer_of(
    std::future<RealizationService::Result>& fut) {
  try {
    return fut.get();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: request threw: %s\n", e.what());
    return nullptr;
  }
}

/// Polls outstanding futures and stamps completion times; hits answered
/// inside submit() are stamped by the generator itself.
class Collector {
 public:
  explicit Collector(std::vector<Sent>& sent) : sent_(sent) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Collector() {
    stop_ = true;
    thread_.join();
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void watch(std::size_t i, std::future<RealizationService::Result> f) {
    std::scoped_lock lk(mu_);
    incoming_.push_back({i, std::move(f)});
    ++outstanding_;
  }
  std::size_t outstanding() const { return outstanding_.load(); }
  /// CPU seconds the polling thread has used so far.
  double cpu_seconds() const { return cpu_.load(); }

 private:
  struct Item {
    std::size_t index;
    std::future<RealizationService::Result> fut;
  };
  void loop() {
    std::vector<Item> live;
    while (!stop_ || !live.empty() || outstanding_ > 0) {
      {
        std::scoped_lock lk(mu_);
        for (auto& it : incoming_) live.push_back(std::move(it));
        incoming_.clear();
      }
      bool any = false;
      for (std::size_t k = 0; k < live.size();) {
        if (live[k].fut.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          const auto now = Clock::now();
          Sent& s = sent_[live[k].index];
          s.answer = answer_of(live[k].fut);
          s.latency_ms =
              std::chrono::duration<double, std::milli>(now - s.due).count();
          live[k] = std::move(live.back());
          live.pop_back();
          --outstanding_;
          any = true;
        } else {
          ++k;
        }
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(100));
      cpu_ = thread_cpu_seconds();
    }
  }

  std::vector<Sent>& sent_;
  std::mutex mu_;
  std::vector<Item> incoming_;  // guarded by mu_
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<double> cpu_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the members it uses
};

/// One request re-run on the engine as the service's cold path runs it.
struct Replay {
  bool ok = false;  ///< referee passed and the service's answer reproduced
  double wall = 0;  ///< bootstrap + Algorithm 3, referee excluded
  double bootstrap_s = 0;
  double validate_s = 0;
  dgr::ncc::NetStats stats;
  std::uint64_t knowledge = 0;
};

Replay replay(const Request& req, const dgr::serve::Realization& answer,
              bool traced, dgr::ncc::ArenaPool* pool) {
  const dgr::serve::CacheKey key = dgr::serve::key_of(req);
  dgr::ncc::Config cfg;
  cfg.seed = key.seed;
  cfg.threads = 1;
  cfg.arena_pool = pool;
  dgr::ncc::Network net(key.degrees.size(), cfg);
  net.set_phase_timing(traced);
  const auto mode = key.mode == Mode::kExact
                        ? dgr::realize::DegreeMode::kExact
                        : dgr::realize::DegreeMode::kEnvelope;
  Replay r;
  const auto t0 = Clock::now();
  auto path = dgr::prim::undirect_initial_path(net);
  const auto tree = dgr::prim::build_bbst(net, path);
  const auto skip = dgr::prim::build_skiplinks(net, path);
  r.bootstrap_s = seconds_since(t0);
  const auto res = dgr::realize::realize_degrees_on_path(net, path, skip, tree,
                                                         key.degrees, mode);
  r.wall = seconds_since(t0);
  r.stats = net.stats();
  r.knowledge = net.total_knowledge();

  const auto t1 = Clock::now();
  bool valid = false;
  if (!res.realizable) {
    valid = !dgr::graph::erdos_gallai_graphic(key.degrees);
  } else if (key.mode == Mode::kExact) {
    valid = dgr::realize::validate_degree_realization(net, key.degrees,
                                                      res.stored)
                .ok;
  } else {
    valid =
        dgr::realize::validate_upper_envelope(net, key.degrees, res.stored).ok;
  }
  r.validate_s = seconds_since(t1);

  // The service returns no edges for a refused request.
  std::vector<dgr::serve::Edge> edges;
  for (std::size_t s = 0; res.realizable && s < res.stored.size(); ++s) {
    for (const dgr::ncc::NodeId id : res.stored[s]) {
      const std::size_t t = net.slot_of(id);
      edges.push_back({static_cast<std::uint32_t>(std::min(s, t)),
                       static_cast<std::uint32_t>(std::max(s, t))});
    }
  }
  std::sort(edges.begin(), edges.end());
  r.ok = valid && res.realizable == answer.realizable &&
         res.phases == answer.phases && res.rounds == answer.rounds &&
         edges == answer.edges;
  return r;
}

}  // namespace

void run_serve_mixed(const Options& opt, Report& out) {
  // The first rung is the reference: about half of capacity, and half the
  // window. The rungs above it find where the SLO breaks.
  const std::vector<Rung> ladder = {
      {40, 0.5}, {60, 0.125}, {80, 0.125}, {120, 0.125}, {160, 0.125}};
  auto slots_of = [&](const Rung& r) {
    return static_cast<std::size_t>(r.rate * r.share * opt.seconds) + 1;
  };
  std::size_t slots = 0;
  for (const Rung& r : ladder) slots += slots_of(r);

  std::vector<double> setup_s, gen_s;
  Traffic traffic;
  std::unique_ptr<RealizationService> svc;
  std::vector<std::shared_ptr<const dgr::serve::Realization>> reference;
  bool warm_ok = true;
  for (int rep = 0; rep < setup_repetitions(opt); ++rep) {
    const auto t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    traffic = make_traffic(opt, slots);
    gen_s.push_back(seconds_since(t0));
    svc.reset();
    svc = std::make_unique<RealizationService>(
        service_config(traffic.keys.size()));
    // Warm-up: the hot set runs cold once; the service's referee verdict
    // on each answer is checked before anything is timed.
    std::vector<std::future<RealizationService::Result>> warm;
    for (std::size_t k = 0; k < traffic.hot; ++k) {
      warm.push_back(svc->submit(traffic.keys[k]));
    }
    reference.assign(traffic.keys.size(), nullptr);
    for (std::size_t k = 0; k < traffic.hot; ++k) {
      reference[k] = answer_of(warm[k]);
      const bool ok = reference[k] != nullptr && reference[k]->validated;
      warm_ok = warm_ok && ok;
      out.count(ok);
    }
    setup_s.push_back(process_cpu_seconds() - c0);
  }
  // The regime of the largest hot request stands for the small-n mix.
  std::size_t largest = 0;
  for (std::size_t k = 1; k < traffic.hot; ++k) {
    if (traffic.keys[k].degrees.size() > traffic.keys[largest].degrees.size()) {
      largest = k;
    }
  }
  print_conditions(opt, 2,
                   {regime_of("largest_hot", traffic.keys[largest].degrees)});
  std::fprintf(stderr, "perfbench: SLO p%.0f <= %.0f ms\n",
               100 * kSloQuantile, kSloMs);

  const auto stats0 = svc->stats();
  const auto cache0 = svc->cache_stats();
  std::vector<Sent> sent(traffic.stream.size());
  struct RungResult {
    std::size_t begin = 0, end = 0;
    double drain_ms = 0;
    double service_cpu_s = 0;  ///< process CPU minus generator and collector
  };
  std::vector<RungResult> rungs;
  double peak_mb = 0;
  dgr::bench::reset_peak_rss();
  {
    Collector collector(sent);
    std::size_t next = 0;
    for (const Rung& r : ladder) {
      RungResult rr;
      rr.begin = next;
      const double cpu0 = process_cpu_seconds() - thread_cpu_seconds() -
                          collector.cpu_seconds();
      const auto start = Clock::now();
      const std::size_t count = slots_of(r);
      for (std::size_t slot = 0; slot < count; ++slot) {
        const auto due = start + std::chrono::nanoseconds(static_cast<
                                     std::int64_t>(1e9 * slot / r.rate));
        std::this_thread::sleep_until(due);
        // The slot's request, then its twin if it has one.
        do {
          Sent& s = sent[next];
          s.due = due;
          s.lag_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - due)
                  .count();
          auto fut = svc->submit(traffic.keys[traffic.stream[next].key]);
          if (fut.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            s.immediate = true;
            s.answer = answer_of(fut);
            s.latency_ms =
                std::chrono::duration<double, std::milli>(Clock::now() - due)
                    .count();
          } else {
            collector.watch(next, std::move(fut));
          }
          ++next;
        } while (next < sent.size() &&
                 traffic.stream[next].kind == Kind::kTwin);
      }
      rr.end = next;
      // Drain before the next rung so each rung is measured on its own.
      const auto last_due = sent[rr.end - 1].due;
      while (collector.outstanding() > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      rr.drain_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              last_due)
                        .count();
      rr.service_cpu_s = process_cpu_seconds() - thread_cpu_seconds() -
                         collector.cpu_seconds() - cpu0;
      // Peak RSS of the reference rung alone: how far the ladder climbs
      // (and so how many results the cache holds) depends on timing.
      if (rungs.empty()) peak_mb = peak_rss_mib();
      rungs.push_back(rr);
      if (rr.drain_ms > 4 * kSloMs) break;  // far past the knee: stop
    }
  }
  const auto stats1 = svc->stats();
  const auto cache1 = svc->cache_stats();

  // Correctness: every answer carries a passing referee verdict, graphic
  // exact requests are realized and the non-graphic ones refused, and
  // every repeat of a key is identical to its first answer.
  std::set<std::size_t> distinct_cold;
  for (std::size_t i = 0; i < rungs.back().end; ++i) {
    const Planned& p = traffic.stream[i];
    const auto& a = sent[i].answer;
    bool ok = a != nullptr && a->validated &&
              a->realizable == (p.kind != Kind::kNonGraphic);
    if (ok && reference[p.key] == nullptr) reference[p.key] = a;
    ok = ok && warm_ok && *a == *reference[p.key];
    out.count(ok);
    if (p.kind != Kind::kHot) distinct_cold.insert(p.key);
  }
  const std::uint64_t cold_runs = stats1.cold_runs - stats0.cold_runs;
  if (cold_runs != distinct_cold.size()) {
    std::fprintf(stderr,
                 "perfbench: %llu cold runs for %zu distinct cold keys\n",
                 static_cast<unsigned long long>(cold_runs),
                 distinct_cold.size());
  }

  double max_rps = 0;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    std::vector<double> lat;
    for (std::size_t i = rungs[r].begin; i < rungs[r].end; ++i) {
      lat.push_back(sent[i].latency_ms);
    }
    const double tail = quantile(lat, kSloQuantile);
    const bool meets = tail <= kSloMs && rungs[r].drain_ms <= kSloMs;
    std::fprintf(stderr,
                 "perfbench: rung %.0f/s: %zu requests, p50 %.2f ms, p90 "
                 "%.2f ms, drain %.1f ms%s\n",
                 ladder[r].rate, lat.size(), quantile(lat, 0.5), tail,
                 rungs[r].drain_ms, meets ? "" : " (misses SLO)");
    if (meets && (r == 0 || max_rps == ladder[r - 1].rate)) {
      max_rps = ladder[r].rate;
    }
  }
  const RungResult& ref = rungs.front();

  std::vector<double> lat, hit_lat, cold_lat, lag;
  std::set<std::size_t> ref_keys;
  for (std::size_t i = ref.begin; i < ref.end; ++i) {
    lat.push_back(sent[i].latency_ms);
    lag.push_back(sent[i].lag_ms);
    const Kind k = traffic.stream[i].kind;
    if (sent[i].immediate) hit_lat.push_back(sent[i].latency_ms);
    if (k == Kind::kFresh || k == Kind::kNonGraphic) {
      cold_lat.push_back(sent[i].latency_ms);
    }
    ref_keys.insert(traffic.stream[i].key);
  }
  if (!opt.trace) {
    double rounds = 0;
    for (const std::size_t k : ref_keys) {
      rounds += static_cast<double>(reference[k]->rounds);
    }
    out.set("cpu_ms_per_op",
            1e3 * ref.service_cpu_s / static_cast<double>(lat.size()), "ms");
    out.set("rounds", rounds / static_cast<double>(ref_keys.size()), "count");
    out.set("peak_rss_mb", peak_mb, "MiB");
    out.set("setup_s", median(setup_s), "s");
    out.set("ok_frac", out.ok_frac(), "ratio");
    return;
  }

  const int tail = tail_percentile(lat.size());
  std::fprintf(stderr, "perfbench: serve_p99_ms reports p%d of %zu samples\n",
               tail, lat.size());
  out.detail("serve_p50_ms", median(lat), "ms");
  out.detail("serve_p99_ms", quantile(lat, tail / 100.0), "ms");
  out.detail("max_rps_at_slo", max_rps, "1/s");
  const double submitted =
      static_cast<double>(stats1.submitted - stats0.submitted);
  out.detail("serve.hit_frac",
             static_cast<double>(stats1.submit_hits - stats0.submit_hits +
                                 stats1.run_hits - stats0.run_hits) /
                 submitted,
             "ratio");
  out.detail("serve.coalesced",
             static_cast<double>(stats1.coalesced - stats0.coalesced),
             "count");
  out.detail("serve.mean_batch",
             static_cast<double>(stats1.batched_requests -
                                 stats0.batched_requests) /
                 static_cast<double>(stats1.batches - stats0.batches),
             "count");
  out.detail("serve.admission_waits",
             static_cast<double>(stats1.admission_waits -
                                 stats0.admission_waits),
             "count");
  out.detail("serve.cold_runs", static_cast<double>(cold_runs), "count");
  out.detail("serve.cache_evictions",
             static_cast<double>(cache1.evictions - cache0.evictions),
             "count");
  out.detail("serve.hit_p50_ms", median(hit_lat), "ms");
  out.detail("serve.cold_p50_ms", median(cold_lat), "ms");
  double ratio = 0;
  std::size_t envelopes = 0;
  for (const std::size_t k : ref_keys) {
    if (traffic.keys[k].mode != Mode::kEnvelope) continue;
    double sum = 0;
    for (const auto d : traffic.keys[k].degrees) sum += static_cast<double>(d);
    ratio += static_cast<double>(reference[k]->edges.size()) / (sum / 2.0);
    ++envelopes;
  }
  out.detail("approx_ratio", ratio / static_cast<double>(envelopes), "ratio");
  out.detail("bench.gen_lag_ms", median(lag), "ms");

  // Engine, primitives and realization figures: the reference rung's
  // distinct cold requests re-run untraced and traced (alternating which
  // goes first), reported as means per request.
  dgr::ncc::ArenaPool pool;
  Layers l;
  double plain_wall = 0, traced_wall = 0, bootstrap = 0, validate = 0;
  double knowledge = 0, phases = 0;
  std::size_t replays = 0;
  for (const std::size_t k : ref_keys) {
    if (k < traffic.hot) continue;
    const auto& answer = *reference[k];
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass + replays) % 2 == 1;
      const Replay r = replay(traffic.keys[k], answer, traced, &pool);
      out.count(r.ok);
      if (!traced) {
        plain_wall += r.wall;
        continue;
      }
      traced_wall += r.wall;
      bootstrap += r.bootstrap_s;
      validate += r.validate_s;
      knowledge += static_cast<double>(r.knowledge);
      add_stats(l.net, r.stats);
    }
    phases += static_cast<double>(answer.phases);
    ++replays;
  }
  if (replays == 0) throw std::runtime_error("no cold request to re-run");
  const double per = 1.0 / static_cast<double>(replays);
  auto mean = [&](std::uint64_t& v) { v /= replays; };
  mean(l.net.rounds);
  mean(l.net.messages_sent);
  mean(l.net.messages_delivered);
  mean(l.net.messages_bounced);
  mean(l.net.messages_dropped);
  for (auto& [name, r] : l.net.scope_rounds) mean(r);
  mean(l.net.phase_ns.body);
  mean(l.net.phase_ns.sort);
  mean(l.net.phase_ns.rng);
  mean(l.net.phase_ns.placement);
  mean(l.net.phase_ns.learn);
  l.realize_s = plain_wall * per;
  l.realize_traced_s = traced_wall * per;
  l.trace_overhead = traced_wall / plain_wall;
  l.gen_s = median(gen_s);
  l.bootstrap_s = bootstrap * per;
  l.validate_s = validate * per;
  l.knowledge = knowledge * per;
  const auto ps = pool.stats();
  l.pool_reuse_frac =
      static_cast<double>(ps.reuses) / static_cast<double>(ps.acquires);
  report_layers(l, out);
  out.detail("realization.phases", phases * per, "count");
  out.detail("bench.replays", static_cast<double>(replays), "count");
}

}  // namespace perfbench
