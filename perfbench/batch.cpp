// Batch workloads: closed-loop realizations, one after another, each on a
// fresh Network built from the same seeded input.
//
// Set-up (repeated, median reported as setup_s) generates the input,
// builds an ArenaPool and Network, runs one untimed warm-up realization
// and checks it with the matching realization::validate_* referee. The
// warm-up's canonical edge-list fingerprint is the reference every timed
// operation must reproduce: outputs are a pure function of the seed, so a
// mismatch is a wrong answer and counts as a failed operation.
//
// The traced run (--trace 1) switches on engine phase timing and times
// each layer's public entry points separately; it alternates traced and
// untraced operations so their ratio gives the tracing overhead.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/rss.h"
#include "common.h"
#include "graph/generators.h"
#include "ncc/arena.h"
#include "ncc/executor.h"
#include "ncc/network.h"
#include "primitives/bbst.h"
#include "primitives/path.h"
#include "primitives/skiplinks.h"
#include "realization/connectivity.h"
#include "realization/explicit_degree.h"
#include "realization/implicit_degree.h"
#include "realization/tree_realization.h"
#include "realization/validate.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using dgr::ncc::NetStats;
using dgr::ncc::Network;
using dgr::ncc::NodeId;

/// One realization's outcome as the benchmark sees it.
struct Op {
  double wall = 0;  ///< realization wall time (s), referee excluded
  double cpu = 0;   ///< process CPU time of the same calls (s)
  std::uint64_t fp = 0;
  NetStats stats;   ///< summed over the operation's Networks
  std::uint64_t knowledge = 0;
  std::uint64_t edges = 0;                ///< realized (implicit) edges
  double bootstrap_s = 0;                 ///< primitives bootstrap (traced)
  std::map<std::string, double> layer_s;  ///< realization stage timers (traced)
};

/// Folds one Network's end state into the operation: stats, knowledge, and
/// the canonical edge list (slot pairs, each edge once) of `stored` plus,
/// when given, the per-slot sorted adjacency.
void absorb(Op& op, const Network& net,
            const std::vector<std::vector<NodeId>>& stored,
            const std::vector<std::vector<NodeId>>* adjacency,
            std::vector<std::uint64_t>& words) {
  add_stats(op.stats, net.stats());
  op.knowledge += net.total_knowledge();
  std::vector<std::uint64_t> edges;
  for (std::size_t s = 0; s < stored.size(); ++s) {
    for (const NodeId id : stored[s]) {
      const std::uint64_t t = net.slot_of(id);
      edges.push_back(std::min<std::uint64_t>(s, t) << 32 |
                      std::max<std::uint64_t>(s, t));
    }
  }
  op.edges += edges.size();
  std::sort(edges.begin(), edges.end());
  words.push_back(edges.size());
  words.insert(words.end(), edges.begin(), edges.end());
  if (adjacency == nullptr) return;
  for (std::size_t s = 0; s < adjacency->size(); ++s) {
    std::vector<std::uint64_t> row;
    for (const NodeId id : (*adjacency)[s]) row.push_back(net.slot_of(id));
    std::sort(row.begin(), row.end());
    words.push_back(row.size());
    words.insert(words.end(), row.begin(), row.end());
  }
}

/// What one set-up repetition hands the timed loop.
struct Setup {
  double gen_s = 0;
  double validate_s = 0;
  bool valid = false;  ///< the warm-up passed its referee
  Op reference;        ///< the warm-up operation
  std::vector<Regime> regimes;
};

/// A batch workload: `setup` builds inputs and runs the checked warm-up,
/// `op(traced)` runs one realization on fresh Networks.
struct Batch {
  unsigned threads = 1;
  std::function<Setup()> setup;
  std::function<Op(bool traced)> op;
};

template <class Get>
std::vector<double> collect(const std::vector<Op>& ops, Get get) {
  std::vector<double> v;
  for (const Op& o : ops) v.push_back(get(o));
  return v;
}

std::uint64_t scope_sum(const NetStats& s, const std::string& prefix) {
  std::uint64_t r = 0;
  for (const auto& [name, rounds] : s.scope_rounds) {
    if (name.rfind(prefix, 0) == 0) r += rounds;
  }
  return r;
}

/// Runs the set-ups and the timed window, reports the end-to-end metrics
/// (untraced run) and returns the per-layer figures of the traced run for
/// the workload to complete with its pool and bootstrap figures.
Layers run_batch(const Options& opt, Report& out, Batch& b) {
  std::vector<double> setup_s, setup_cpu_s, gen_s, validate_s;
  Setup last;
  for (int i = 0; i < setup_repetitions(opt); ++i) {
    const auto t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    last = b.setup();
    setup_cpu_s.push_back(process_cpu_seconds() - c0);
    setup_s.push_back(seconds_since(t0));
    gen_s.push_back(last.gen_s);
    validate_s.push_back(last.validate_s);
    out.count(last.valid);
  }
  print_conditions(opt, b.threads, last.regimes);

  const auto exec0 = dgr::ncc::Executor::instance().stats();
  dgr::bench::reset_peak_rss();
  std::vector<Op> plain, traced;
  const auto window = Clock::now();
  // At least five operations, so the traced run has both kinds.
  for (std::size_t i = 0; i < 5 || seconds_since(window) < opt.seconds; ++i) {
    // The traced run alternates traced and untraced operations.
    const bool trace_this = opt.trace && i % 2 == 0;
    try {
      Op o = b.op(trace_this);
      out.count(last.valid && o.fp == last.reference.fp);
      (trace_this ? traced : plain).push_back(std::move(o));
    } catch (const std::exception& e) {
      out.count(false);
      std::fprintf(stderr, "perfbench: operation %zu threw: %s\n", i, e.what());
    }
  }
  if (plain.empty() || (opt.trace && traced.empty())) {
    throw std::runtime_error("no timed operation completed");
  }
  const double peak_mb = peak_rss_mib();
  const auto exec1 = dgr::ncc::Executor::instance().stats();

  const std::vector<double> plain_walls =
      collect(plain, [](const Op& o) { return o.wall; });
  const std::vector<double> plain_cpu =
      collect(plain, [](const Op& o) { return o.cpu; });
  std::fprintf(stderr,
               "perfbench: %zu untraced + %zu traced operations; untraced "
               "median wall %.4f s, cpu %.4f s; set-up wall %.4f s, cpu "
               "%.4f s\n",
               plain.size(), traced.size(), median(plain_walls),
               median(plain_cpu), median(setup_s), median(setup_cpu_s));
  if (!opt.trace) {
    out.set("cpu_ms_per_op", 1e3 * median(plain_cpu), "ms");
    out.set("rounds", static_cast<double>(last.reference.stats.rounds),
            "count");
    out.set("peak_rss_mb", peak_mb, "MiB");
    out.set("setup_s", median(setup_cpu_s), "s");
    out.set("ok_frac", out.ok_frac(), "ratio");
    return {};
  }

  // Per-layer numbers come from the median traced operation, so engine
  // phases + referee time add up to its wall time (realize_traced_s).
  const std::vector<double> walls =
      collect(traced, [](const Op& o) { return o.wall; });
  const Op& mid = traced[median_index(walls)];
  Layers l;
  l.realize_s = median(plain_walls);
  l.realize_traced_s = mid.wall;
  l.trace_overhead = median(walls) / median(plain_walls);
  l.gen_s = median(gen_s);
  l.bootstrap_s = mid.bootstrap_s;
  l.validate_s = median(validate_s);
  l.knowledge = static_cast<double>(mid.knowledge);
  l.net = mid.stats;
  for (const auto& [name, s] : mid.layer_s) out.detail(name, s, "s");
  if (exec1.tasks > exec0.tasks) {
    out.detail("ncc.worker_task_frac",
               static_cast<double>(exec1.worker_tasks - exec0.worker_tasks) /
                   static_cast<double>(exec1.tasks - exec0.tasks),
               "ratio");
  }
  return l;
}

dgr::ncc::Config net_config(std::uint64_t seed, unsigned threads,
                           dgr::ncc::ArenaPool* pool) {
  dgr::ncc::Config cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.arena_pool = pool;
  return cfg;
}

/// ArenaPool reuses over acquires since `since`.
double reuse_frac(const dgr::ncc::ArenaPool& pool,
                  const dgr::ncc::ArenaPool::Stats& since) {
  const auto now = pool.stats();
  return static_cast<double>(now.reuses - since.reuses) /
         static_cast<double>(now.acquires - since.acquires);
}

}  // namespace

void add_stats(NetStats& into, const NetStats& s) {
  into.rounds += s.rounds;
  into.messages_sent += s.messages_sent;
  into.messages_delivered += s.messages_delivered;
  into.messages_bounced += s.messages_bounced;
  into.messages_dropped += s.messages_dropped;
  into.max_send_in_round = std::max(into.max_send_in_round, s.max_send_in_round);
  into.max_recv_in_round = std::max(into.max_recv_in_round, s.max_recv_in_round);
  for (const auto& [name, r] : s.scope_rounds) into.scope_rounds[name] += r;
  into.phase_ns.body += s.phase_ns.body;
  into.phase_ns.sort += s.phase_ns.sort;
  into.phase_ns.rng += s.phase_ns.rng;
  into.phase_ns.placement += s.phase_ns.placement;
  into.phase_ns.learn += s.phase_ns.learn;
}

void report_layers(const Layers& l, Report& out) {
  const NetStats& st = l.net;
  const auto& ph = st.phase_ns;
  out.set("realize_s", l.realize_s, "s");
  out.set("realize_traced_s", l.realize_traced_s, "s");
  out.set("bench.trace_overhead", l.trace_overhead, "ratio");
  out.set("ncc.body_s", 1e-9 * static_cast<double>(ph.body), "s");
  out.set("ncc.sort_s", 1e-9 * static_cast<double>(ph.sort), "s");
  out.set("ncc.rng_s", 1e-9 * static_cast<double>(ph.rng), "s");
  out.set("ncc.placement_s", 1e-9 * static_cast<double>(ph.placement), "s");
  out.set("ncc.learn_s", 1e-9 * static_cast<double>(ph.learn), "s");
  out.set("ncc.referee_s",
          l.realize_traced_s - 1e-9 * static_cast<double>(ph.total()), "s");
  out.set("ncc.msgs_per_s",
          static_cast<double>(st.messages_sent) / l.realize_traced_s, "1/s");
  out.set("messages", static_cast<double>(st.messages_sent), "count");
  out.set("ncc.delivered_frac",
          static_cast<double>(st.messages_delivered) /
              static_cast<double>(st.messages_sent),
          "ratio");
  out.set("ncc.bounced", static_cast<double>(st.messages_bounced), "count");
  out.set("ncc.max_recv_in_round", static_cast<double>(st.max_recv_in_round),
          "count");
  out.set("ncc.knowledge_total", l.knowledge, "count");
  out.set("ncc.pool_reuse_frac", l.pool_reuse_frac, "ratio");
  out.set("primitives.bootstrap_s", l.bootstrap_s, "s");
  // Flat scope attribution: nested scopes overlap (a sort inside a bbst
  // counts toward both), so these do not sum to `rounds`.
  out.set("primitives.sort_rounds", static_cast<double>(scope_sum(st, "sort")),
          "count");
  out.set("primitives.bbst_rounds", static_cast<double>(scope_sum(st, "bbst/")),
          "count");
  out.set("primitives.skiplinks_rounds",
          static_cast<double>(scope_sum(st, "skiplinks/")), "count");
  out.set("primitives.aggregate_rounds",
          static_cast<double>(scope_sum(st, "aggregate")), "count");
  out.set("primitives.broadcast_rounds",
          static_cast<double>(scope_sum(st, "broadcast")), "count");
  out.set("primitives.range_cast_rounds",
          static_cast<double>(scope_sum(st, "range_cast")), "count");
  out.set("realization.validate_s", l.validate_s, "s");
  out.set("graph.gen_s", l.gen_s, "s");
}

// ---------------------------------------------------------------------------
// degree-powerlaw: Algorithm 3 + explicitization (Theorem 12) at one thread.
// ---------------------------------------------------------------------------
void run_degree_powerlaw(const Options& opt, Report& out) {
  // A heavy tail clamped at Δ = dmax puts √(2m) next to 2Δ, so Lemma 10's
  // guard min{√(2m), 2Δ} sits near 128 and the phase count (~125) varies
  // little from seed to seed.
  const std::size_t n = opt.smoke ? 256 : 1024;
  const std::uint64_t dmax = opt.smoke ? 16 : 64;
  const double alpha = 1.45;
  const std::uint64_t net_seed = dgr::hash_mix(opt.seed, 0xdec);

  std::vector<std::uint64_t> degree;
  auto pool = std::make_unique<dgr::ncc::ArenaPool>();
  auto pool_stats0 = pool->stats();
  std::uint64_t phases = 0;

  Batch b;
  b.threads = 1;
  b.op = [&](bool traced) {
    Network net(n, net_config(net_seed, 1, pool.get()));
    Op o;
    std::vector<std::uint64_t> words;
    const double c0 = process_cpu_seconds();
    if (!traced) {
      const auto t0 = Clock::now();
      const auto imp = dgr::realize::realize_degrees_implicit(net, degree);
      const auto ex = dgr::realize::make_explicit(net, imp);
      o.wall = seconds_since(t0);
      o.cpu = process_cpu_seconds() - c0;
      absorb(o, net, imp.stored, &ex.adjacency, words);
    } else {
      // realize_degrees_implicit, decomposed into its public stages.
      net.set_phase_timing(true);
      const auto t0 = Clock::now();
      auto path = dgr::prim::undirect_initial_path(net);
      const auto tree = dgr::prim::build_bbst(net, path);
      const auto skip = dgr::prim::build_skiplinks(net, path);
      const auto t1 = Clock::now();
      const auto imp = dgr::realize::realize_degrees_on_path(
          net, path, skip, tree, degree, dgr::realize::DegreeMode::kExact);
      const auto t2 = Clock::now();
      const auto ex = dgr::realize::make_explicit(net, imp);
      o.wall = seconds_since(t0);
      o.cpu = process_cpu_seconds() - c0;
      o.bootstrap_s = std::chrono::duration<double>(t1 - t0).count();
      o.layer_s["realization.phase_loop_s"] =
          std::chrono::duration<double>(t2 - t1).count();
      o.layer_s["realization.explicit_s"] = seconds_since(t2);
      absorb(o, net, imp.stored, &ex.adjacency, words);
    }
    o.fp = fingerprint(words);
    return o;
  };
  b.setup = [&] {
    Setup s;
    auto t0 = Clock::now();
    dgr::Rng rng(dgr::hash_mix(opt.seed, 0x9e01));
    degree = dgr::graph::powerlaw_sequence(n, dmax, alpha, rng);
    s.gen_s = seconds_since(t0);
    pool = std::make_unique<dgr::ncc::ArenaPool>();
    Network net(n, net_config(net_seed, 1, pool.get()));
    const auto imp = dgr::realize::realize_degrees_implicit(net, degree);
    const auto ex = dgr::realize::make_explicit(net, imp);
    t0 = Clock::now();
    s.valid = imp.realizable &&
              dgr::realize::validate_degree_realization(net, degree,
                                                        imp.stored)
                  .ok &&
              dgr::realize::validate_explicit_adjacency(net, imp.stored,
                                                        ex.adjacency)
                  .ok;
    s.validate_s = seconds_since(t0);
    std::vector<std::uint64_t> words;
    absorb(s.reference, net, imp.stored, &ex.adjacency, words);
    s.reference.fp = fingerprint(words);
    s.regimes = {regime_of("powerlaw", degree)};
    phases = imp.phases;
    pool_stats0 = pool->stats();
    return s;
  };
  Layers l = run_batch(opt, out, b);
  if (opt.trace) {
    l.pool_reuse_frac = reuse_frac(*pool, pool_stats0);
    report_layers(l, out);
    out.detail("realization.phases", static_cast<double>(phases), "count");
  }
}

// ---------------------------------------------------------------------------
// threshold-tree: NCC0 connectivity thresholds (Algorithm 6) followed by
// the greedy minimum-diameter tree (Algorithm 5), four engine threads.
// ---------------------------------------------------------------------------
void run_threshold_tree(const Options& opt, Report& out) {
  const std::size_t n_conn = opt.smoke ? 256 : 8192;
  const std::size_t n_tree = opt.smoke ? 256 : 16384;
  const std::uint64_t rmax = opt.smoke ? 8 : 24;
  const double alpha = 2.0;
  const unsigned threads = 4;
  const std::uint64_t conn_seed = dgr::hash_mix(opt.seed, 0xc044);
  const std::uint64_t tree_seed = dgr::hash_mix(opt.seed, 0x7733);

  std::vector<std::uint64_t> rho, tree_degree;
  auto pool = std::make_unique<dgr::ncc::ArenaPool>();
  auto pool_stats0 = pool->stats();
  double approx_ratio = 0;

  Batch b;
  b.threads = threads;
  b.op = [&](bool traced) {
    Op o;
    std::vector<std::uint64_t> words;
    {
      Network net(n_conn, net_config(conn_seed, threads, pool.get()));
      net.set_phase_timing(traced);
      const auto t0 = Clock::now();
      const double c0 = process_cpu_seconds();
      const auto c = dgr::realize::realize_connectivity_ncc0(net, rho);
      const double dt = seconds_since(t0);
      o.wall += dt;
      o.cpu += process_cpu_seconds() - c0;
      if (traced) o.layer_s["realization.connectivity_s"] = dt;
      absorb(o, net, c.stored, &c.adjacency, words);
    }
    {
      Network net(n_tree, net_config(tree_seed, threads, pool.get()));
      net.set_phase_timing(traced);
      const auto t0 = Clock::now();
      const double c0 = process_cpu_seconds();
      const auto t = dgr::realize::realize_tree_greedy(net, tree_degree);
      const double dt = seconds_since(t0);
      o.wall += dt;
      o.cpu += process_cpu_seconds() - c0;
      if (traced) o.layer_s["realization.tree_s"] = dt;
      absorb(o, net, t.stored, nullptr, words);
    }
    o.fp = fingerprint(words);
    return o;
  };
  b.setup = [&] {
    Setup s;
    auto t0 = Clock::now();
    dgr::Rng rng(dgr::hash_mix(opt.seed, 0x7e02));
    rho = dgr::graph::zipf_thresholds(n_conn, rmax, alpha, rng);
    tree_degree = dgr::graph::random_tree_sequence(n_tree, rng);
    s.gen_s = seconds_since(t0);
    pool = std::make_unique<dgr::ncc::ArenaPool>();
    std::vector<std::uint64_t> words;
    Network cnet(n_conn, net_config(conn_seed, threads, pool.get()));
    const auto c = dgr::realize::realize_connectivity_ncc0(cnet, rho);
    Network tnet(n_tree, net_config(tree_seed, threads, pool.get()));
    const auto t = dgr::realize::realize_tree_greedy(tnet, tree_degree);
    t0 = Clock::now();
    s.valid = c.realizable && t.realizable &&
              dgr::realize::validate_connectivity_thresholds(cnet, rho,
                                                             c.stored,
                                                             opt.seed)
                  .ok &&
              dgr::realize::validate_explicit_adjacency(cnet, c.stored,
                                                        c.adjacency)
                  .ok &&
              dgr::realize::validate_tree_realization(tnet, tree_degree,
                                                      t.stored)
                  .ok;
    s.validate_s = seconds_since(t0);
    absorb(s.reference, cnet, c.stored, &c.adjacency, words);
    // Realized edges over the Σρ/2 lower bound on any valid overlay.
    double sum_rho = 0;
    for (const auto r : rho) sum_rho += static_cast<double>(r);
    approx_ratio = static_cast<double>(s.reference.edges) / (sum_rho / 2.0);
    absorb(s.reference, tnet, t.stored, nullptr, words);
    s.reference.fp = fingerprint(words);
    s.regimes = {regime_of("thresholds", rho), regime_of("tree", tree_degree)};
    pool_stats0 = pool->stats();
    return s;
  };
  Layers l = run_batch(opt, out, b);
  if (opt.trace) {
    l.pool_reuse_frac = reuse_frac(*pool, pool_stats0);
    // The realizations bootstrap internally, so the primitives layer is
    // timed on its own: path, BBST and skip links on fresh Networks of
    // both inputs' sizes at the workload's thread count (median of 3).
    std::vector<double> boot;
    for (int i = 0; i < 3; ++i) {
      double sum = 0;
      for (const auto& [n, seed] :
           {std::pair{n_conn, conn_seed}, std::pair{n_tree, tree_seed}}) {
        Network net(n, net_config(seed, threads, pool.get()));
        const auto t0 = Clock::now();
        auto path = dgr::prim::undirect_initial_path(net);
        dgr::prim::build_bbst(net, path);
        dgr::prim::build_skiplinks(net, path);
        sum += seconds_since(t0);
      }
      boot.push_back(sum);
    }
    l.bootstrap_s = median(boot);
    report_layers(l, out);
    out.detail("approx_ratio", approx_ratio, "ratio");
  }
}

}  // namespace perfbench
