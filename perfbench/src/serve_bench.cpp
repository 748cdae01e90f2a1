// The serve phases: the client's side. An in-process TcpServer serves a
// synthetic store over loopback; the benchmark's own client (client.h)
// drives it and checks every response against an in-process mirror service.
//
// Read phase: a store of 8 labels x 125 tier patterns and every read verb,
// over more distinct (label, pattern) keys than the result cache holds
// (8 shards x 256), with about 10% of the pattern queries on patterns no
// tier contains (the filtered-matcher fallback). Closed loop first
// (read_qps), then open loop at a fixed rate (read latency). Admission, the
// WAL and index rebuilds are not exercised.
//
// Mixed phase: a durable store (WAL fsync on every admit). Three
// connections read a hot set that fits the cache at a fixed rate, one
// connection admits freshly generated views (new subgraphs, some never-seen
// codes) at a fixed rate and saves periodically; at the end the store is
// closed and reopened from base + delta chain + WAL tail. Reads only target
// labels that are never admitted, so they stay byte-checkable; the reopened
// state is checked against a mirror that folds the same admissions in
// order.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "explain/view_io.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "serve/serve_protocol.h"
#include "serve/synthetic_store.h"
#include "serve/view_service.h"
#include "store/recovery.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using gvex::ExplanationView;
using gvex::Pattern;
using gvex::Rng;
using gvex::ViewService;
using gvex::ViewServiceOptions;
namespace synthetic = gvex::synthetic;

namespace {

constexpr int kNumLabels = 8;
// A phase's set-up time is the median of this many set-ups: the read
// phase's take about 0.6 s each, the mixed phase's smaller store a few
// milliseconds.
constexpr int kSetups = 5;
constexpr int kMixedSetups = 41;

// Fixed load. Rates are constants, not derived from a measured saturation,
// so two commits are always compared at the same offered load.
constexpr int kServerWorkers = 2;
// One closed-loop connection keeps two threads busy (client and server
// worker) on a 4-vCPU host. With two connections all four vCPUs were busy
// and read_qps spread 0.21 over five same-seed runs, against 0.10 with one.
constexpr int kClosedConns = 1;
constexpr int kClosedDepth = 16;
constexpr int kOpenConns = 3;
constexpr double kReadRate = 10000;        // read phase open loop, req/s
constexpr double kMixedReadRate = 3000;    // mixed phase reads, req/s
// Mixed phase admit connection, req/s. An admit that follows an idle gap
// on its core runs about 50% slower (measured in-process on a 4-vCPU VM:
// 8-9 ms back to back, 13-15 ms for a fifth of admits after 15 ms gaps and
// for half of them after 50 ms gaps). At 16 admits/s the two modes were
// about equal, so the p50 flipped between them from run to run; at 40/s
// the p50 lies in the fast mode and the p95 in the slow one.
constexpr double kAdmitRate = 40;
constexpr int kSaveEvery = 60;  // every 60th admit-conn request: ~1.5 s
// Admits per measured pass, at least: ten lie beyond the p95. A pass that
// --seconds makes shorter is extended until it holds them.
constexpr size_t kMinAdmits = 210;
// Reopens per pass (about 3 s with the recovery plans between them):
// serve.reopen_s is their median. Host contention on a shared machine
// comes in bursts of up to a couple of seconds, which 45 back-to-back
// reopens (about 1.6 s) could sit inside entirely. The reopen time is a
// per-layer metric, not an end-to-end one: it depends on the final views
// the seed draws (seeds 407 and 410 reopened 35-50% slower than the rest
// in both workloads), and its spread over ten seeds reached 0.32.
constexpr int kReopens = 61;

// A run is invalid when the generator's median lateness exceeds this share
// of the median latency it measures.
constexpr double kMaxLatenessShare = 0.2;

// Read phase: 8 labels x 125 tier patterns (1000, about 600 distinct
// codes) over 128 database graphs; five node types give each label its
// 125 distinct patterns.
synthetic::SyntheticStoreOptions ReadStoreShape() {
  synthetic::SyntheticStoreOptions opt;
  opt.num_labels = kNumLabels;
  opt.graphs_per_label = 16;
  opt.patterns_per_label = 125;
  opt.min_nodes = 10;
  opt.max_nodes = 16;
  opt.num_types = 5;
  opt.pattern_max_nodes = 5;
  return opt;
}

// Mixed phase: every admit rebuilds the whole index today, so the store is
// sized (8 labels x 16 patterns, 32 database graphs) for admits of about
// 10-20 ms on a 4-core VM, leaving room for reads on the shared worker.
synthetic::SyntheticStoreOptions MixedStoreShape() {
  synthetic::SyntheticStoreOptions opt;
  opt.num_labels = kNumLabels;
  opt.graphs_per_label = 4;
  opt.patterns_per_label = 16;
  opt.min_nodes = 8;
  opt.max_nodes = 12;
  return opt;
}

const std::vector<std::string>& ReadVerbs() {
  static const std::vector<std::string> kVerbs = {
      "labels",   "patterns",       "graphs",    "labelsof",
      "dbgraphs", "discriminative", "graphsall", "mcs"};
  return kVerbs;
}

ViewServiceOptions ServiceOptions() {
  ViewServiceOptions opt;
  opt.store.wal_sync_every = 1;
  return opt;
}

// A store and the service built over it (the service points into db).
struct Served {
  synthetic::SyntheticStore store;
  std::unique_ptr<ViewService> service;
};

// Set-up as setup_s times it: store generation and the first index build
// (the in-memory admission of the store's views). Null on failure.
std::unique_ptr<Served> SetUpStore(uint64_t seed,
                                   const synthetic::SyntheticStoreOptions& shape) {
  auto s = std::make_unique<Served>();
  s->store = synthetic::MakeSyntheticStore(seed, shape);
  s->service = std::make_unique<ViewService>(&s->store.db, ServiceOptions());
  if (!s->service->AdmitViews(s->store.views).ok()) return nullptr;
  return s;
}

// The in-process reference: same database and views, result cache off.
std::unique_ptr<ViewService> MakeMirror(
    const gvex::GraphDatabase& db, const std::vector<ExplanationView>& views) {
  ViewServiceOptions opt;
  opt.cache_capacity = 0;
  auto mirror = std::make_unique<ViewService>(&db, opt);
  (void)mirror->AdmitViews(views);
  return mirror;
}

std::string PatternBlock(const Pattern& p) {
  return gvex::SerializeGraph(p.graph());
}

struct Latency {
  double p50_ms = 0;
  double tail_ms = 0;  // p99 (reads) or p95 (admits)
  double mean_ms = 0;
};

// Quantiles over the whole sample.
Latency Summarize(const std::vector<double>& seconds, double tail_q) {
  Latency l;
  l.p50_ms = Quantile(seconds, 0.5) * 1e3;
  l.tail_ms = Quantile(seconds, tail_q) * 1e3;
  double sum = 0;
  for (double s : seconds) sum += s;
  l.mean_ms = seconds.empty() ? 0 : sum / seconds.size() * 1e3;
  return l;
}

// Read latency: p50 and p99 of each 1 s window (by response time), then
// the median over windows. Host contention on a shared machine comes in
// bursts of a few seconds; a burst then moves a window or two instead of
// the whole run's tail. Every window holds >= 1000 reads at the fixed
// rates, so each window's p99 has >= 10 samples beyond it.
Latency SummarizeWindows(const std::vector<double>& latency,
                         const std::vector<double>& done_at) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < latency.size(); ++i) {
    const size_t w = static_cast<size_t>(std::max(0.0, done_at[i]));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency[i]);
  }
  std::vector<double> p50, p99;
  for (const std::vector<double>& w : windows) {
    if (w.size() < 1000) continue;  // the partial last window
    p50.push_back(Quantile(w, 0.5));
    p99.push_back(Quantile(w, 0.99));
  }
  Latency l = Summarize(latency, 0.99);
  l.p50_ms = Median(p50) * 1e3;
  l.tail_ms = Median(p99) * 1e3;
  return l;
}

// Sequences of `count` draws from `table`, one per connection, seeded.
std::vector<const Request*> Draw(const std::vector<Request>& table,
                                 size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<const Request*> seq;
  seq.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    seq.push_back(&table[rng.NextUint(table.size())]);
  }
  return seq;
}

// Runs one plan per connection on its own thread and joins them all.
std::vector<ConnStats> RunConnections(const std::vector<int>& fds,
                                      const std::vector<LoopPlan>& plans) {
  std::vector<ConnStats> stats(fds.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < fds.size(); ++i) {
    threads.emplace_back(
        [&, i] { stats[i] = RunLoop(fds[i], plans[i]); });
  }
  for (std::thread& t : threads) t.join();
  return stats;
}

// Samples of several connections, pooled.
struct Pooled {
  std::vector<double> latency, lateness, done_at;
  uint64_t completed = 0;
  uint64_t failed = 0;
};

Pooled Pool(const std::vector<ConnStats>& stats) {
  Pooled p;
  for (const ConnStats& s : stats) {
    p.latency.insert(p.latency.end(), s.latency.begin(), s.latency.end());
    p.lateness.insert(p.lateness.end(), s.lateness.begin(), s.lateness.end());
    p.done_at.insert(p.done_at.end(), s.done_at.begin(), s.done_at.end());
    p.completed += s.completed;
    p.failed += s.failed;
  }
  return p;
}

// Median over 0.5 s windows of completions per second.
double WindowedRate(const std::vector<double>& done_at, double seconds) {
  const double window = 0.5;
  const int windows = static_cast<int>(seconds / window);
  if (windows < 1) return done_at.size() / seconds;
  std::vector<double> counts(static_cast<size_t>(windows), 0);
  for (double t : done_at) {
    const int w = static_cast<int>(t / window);
    if (w >= 0 && w < windows) counts[static_cast<size_t>(w)] += 1;
  }
  for (double& c : counts) c /= window;
  return Median(counts);
}

// Generator lateness check: records lateness and fails the run when it is
// a material share of the latency measured.
void CheckLateness(const std::string& what, const Pooled& p, Result* out) {
  const double late50 = Quantile(p.lateness, 0.5);
  const double late99 = Quantile(p.lateness, 0.99);
  const double lat50 = Quantile(p.latency, 0.5);
  out->Info(what + "_lateness_p50_ms", late50 * 1e3);
  out->Info(what + "_lateness_p99_ms", late99 * 1e3);
  if (late50 > kMaxLatenessShare * lat50) {
    out->Fail(what + ": generator lateness p50 " +
              std::to_string(late50 * 1e3) + " ms is over " +
              std::to_string(kMaxLatenessShare) + " of latency p50 " +
              std::to_string(lat50 * 1e3) + " ms: run invalid");
  }
}

// Server-side deltas between two metric scrapes.
struct ServerDeltas {
  double exec_read_us = 0;  // mean execute time of read verbs
  double cache_hits = 0;
  double cache_misses = 0;
  double index_builds = 0;
  double index_build_s = 0;
  double backpressure_pauses = 0;
  double admit_batch_views = 0;  // mean views per published batch
  double wal_append_s = 0;       // mean per append
  double wal_fsync_s = 0;        // mean per fsync
  double wal_bytes = 0;
  double save_s = 0;  // mean per save
};

ServerDeltas Diff(const gvex::Result<std::string>& a,
                  const gvex::Result<std::string>& b, Result* out) {
  ServerDeltas d;
  if (!a.ok() || !b.ok()) {
    out->Fail("metrics scrape failed");
    return d;
  }
  const perfbench::Scrape s0 = ParseScrape(a.value());
  const perfbench::Scrape s1 = ParseScrape(b.value());
  auto delta = [&](const std::string& family, const std::string& filter) {
    return ScrapeSumWhere(s1, family, filter) -
           ScrapeSumWhere(s0, family, filter);
  };
  auto mean = [&](const std::string& hist) {
    const double n = delta(hist + "_count", "");
    return n > 0 ? delta(hist + "_sum", "") / n : 0.0;
  };
  double read_sum = 0, read_count = 0;
  for (const std::string& verb : ReadVerbs()) {
    const std::string f = "verb=\"" + verb + "\"";
    read_sum += delta("gvex_request_seconds_sum", f);
    read_count += delta("gvex_request_seconds_count", f);
  }
  d.exec_read_us = read_count > 0 ? read_sum / read_count * 1e6 : 0;
  d.cache_hits = delta("gvex_service_cache_hits_total", "");
  d.cache_misses = delta("gvex_service_cache_misses_total", "");
  d.index_builds = delta("gvex_index_rebuild_seconds_count", "");
  d.index_build_s = delta("gvex_index_rebuild_seconds_sum", "");
  d.backpressure_pauses = delta("gvex_net_backpressure_pauses_total", "");
  d.admit_batch_views = mean("gvex_admit_batch_views");
  d.wal_append_s = mean("gvex_wal_append_seconds");
  d.wal_fsync_s = mean("gvex_wal_fsync_seconds");
  d.wal_bytes = delta("gvex_wal_appended_bytes_total", "");
  d.save_s = mean("gvex_snapshot_save_seconds");
  return d;
}

// `prefix` is "serve." for the read phase, "serve.mixed_" for the mixed one.
void AddCacheMetrics(const ServerDeltas& d, const std::string& prefix,
                     Result* out) {
  out->Add(prefix + "cache_hits", d.cache_hits, "count");
  out->Add(prefix + "cache_misses", d.cache_misses, "count");
  const double lookups = d.cache_hits + d.cache_misses;
  out->Add(prefix + "cache_hit_rate",
           lookups > 0 ? d.cache_hits / lookups : 0, "ratio");
}

// ---------------------------------------------------------------- read phase

struct ReadTable {
  std::vector<Request> requests;
  std::vector<std::pair<int, Pattern>> unindexed;  // (label, pattern)
};

ReadTable BuildReadTable(const synthetic::SyntheticStore& store,
                         ViewService* mirror, uint64_t seed) {
  ReadTable t;
  auto add = [&](std::string text) {
    std::string expect = gvex::ServeText(mirror, text);
    t.requests.push_back(ReadRequest(std::move(text), std::move(expect)));
  };
  Rng rng(seed);
  std::set<std::string> tier_codes;
  std::vector<const Pattern*> distinct;
  add("labels\n");
  for (const ExplanationView& view : store.views) {
    for (const Pattern& p : view.patterns) {
      if (tier_codes.insert(p.canonical_code()).second) distinct.push_back(&p);
    }
  }
  for (int label = 0; label < kNumLabels; ++label) {
    const ExplanationView& view = store.views[static_cast<size_t>(label)];
    add("patterns " + std::to_string(label) + "\n");
    add("discriminative " + std::to_string(label) + "\n");
    for (const Pattern& p : view.patterns) {
      add("graphs " + std::to_string(label) + "\n" + PatternBlock(p));
    }
    for (int j = 0; j < 20; ++j) {
      const Pattern& a = view.patterns[rng.NextUint(view.patterns.size())];
      const Pattern& b = view.patterns[rng.NextUint(view.patterns.size())];
      add("graphsall " + std::to_string(label) + " 2\n" + PatternBlock(a) +
          PatternBlock(b));
    }
    for (int j = 0; j < 4; ++j) {
      const gvex::Graph& g =
          store.db.graph(static_cast<int>(rng.NextUint(store.db.size())));
      add("mcs " + std::to_string(label) + "\n" +
          PatternBlock(synthetic::RandomPatternFrom(g, &rng, 4, 6)));
    }
  }
  for (const Pattern* p : distinct) {
    add("labelsof\n" + PatternBlock(*p));
    add("dbgraphs -1\n" + PatternBlock(*p));
  }
  // Patterns no tier contains: about 10% of the pattern queries.
  const size_t want = distinct.size() / 5 + 1;
  std::set<std::string> seen;
  for (int attempts = 0; t.unindexed.size() < want && attempts < 100000;
       ++attempts) {
    const int gi = static_cast<int>(rng.NextUint(store.db.size()));
    Pattern p = synthetic::RandomPatternFrom(store.db.graph(gi), &rng, 3, 6);
    if (tier_codes.count(p.canonical_code()) ||
        !seen.insert(p.canonical_code()).second) {
      continue;
    }
    const int label = store.db.true_label(gi);
    add("graphs " + std::to_string(label) + "\n" + PatternBlock(p));
    add("dbgraphs -1\n" + PatternBlock(p));
    t.unindexed.emplace_back(label, std::move(p));
  }
  return t;
}

struct ReadFigures {
  double qps = 0;
  Latency open;
};

// One closed-loop phase then one open-loop phase over `table`.
ReadFigures ReadPhases(int port, const ReadTable& table, const Args& args,
                       double seconds, SpanRecorder* spans, Result* out) {
  ReadFigures f;
  const double closed_s = 0.4 * seconds;
  const double open_s = 0.6 * seconds;
  // Closed loop, after a short warm-up that fills the cache.
  std::vector<int> fds;
  std::vector<LoopPlan> plans;
  for (int c = 0; c < std::min(kClosedConns, args.nproc); ++c) {
    fds.push_back(ConnectTo(port));
    LoopPlan plan;
    // Enough requests for 100k/s per connection, several times the rate
    // measured on 4 cores.
    plan.sequence =
        Draw(table.requests, static_cast<size_t>(1e5 * (closed_s + 0.5)),
             SubSeed(args.seed, 100 + c));
    plan.open_loop = false;
    plan.depth = kClosedDepth;
    plans.push_back(std::move(plan));
  }
  for (LoopPlan& plan : plans) {
    plan.start = Clock::now();
    plan.stop = plan.start + std::chrono::milliseconds(500);
  }
  Pooled warm = Pool(RunConnections(fds, plans));
  out->attempted += warm.completed;
  if (warm.failed) out->Fail("read phase: warm-up reads failed", warm.failed);
  const Clock::time_point start = Clock::now();
  for (size_t c = 0; c < plans.size(); ++c) {
    plans[c].start = start;
    plans[c].stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(closed_s));
    plans[c].spans = spans;
    plans[c].request_id_base = static_cast<int64_t>(c) << 32;
  }
  Pooled closed = Pool(RunConnections(fds, plans));
  for (int fd : fds) ::close(fd);
  out->attempted += closed.completed;
  if (closed.failed) out->Fail("read phase: closed-loop reads failed",
                               closed.failed);
  f.qps = WindowedRate(closed.done_at, closed_s);
  out->Info("closed_reads", static_cast<double>(closed.completed));

  // Open loop at the fixed rate.
  fds.clear();
  plans.clear();
  const double per_conn = kReadRate / kOpenConns;
  const size_t n = static_cast<size_t>(per_conn * open_s);
  const Clock::time_point open_start =
      Clock::now() + std::chrono::milliseconds(20);
  for (int c = 0; c < kOpenConns; ++c) {
    fds.push_back(ConnectTo(port));
    LoopPlan plan;
    plan.sequence =
        Draw(table.requests, n, SubSeed(args.seed, 110 + c));
    plan.interval_s = 1.0 / per_conn;
    plan.start = open_start;
    plan.spans = spans;
    plan.request_id_base = static_cast<int64_t>(10 + c) << 32;
    plans.push_back(std::move(plan));
  }
  Pooled open = Pool(RunConnections(fds, plans));
  for (int fd : fds) ::close(fd);
  out->attempted += open.completed;
  if (open.failed) out->Fail("read phase: open-loop reads failed", open.failed);
  f.open = SummarizeWindows(open.latency, open.done_at);
  out->Info("open_reads", static_cast<double>(open.latency.size()));
  CheckLateness("read", open, out);
  return f;
}

}  // namespace

Result RunServeRead(const Args& args) {
  Result out;
  const uint64_t store_seed = SubSeed(args.seed, 1);
  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (int i = 0; i < kSetups; ++i) {
    served.reset();
    const Clock::time_point t0 = Clock::now();
    served = SetUpStore(store_seed, ReadStoreShape());
    setup_s.push_back(SecondsSince(t0));
    if (!served) {
      out.Fail("initial admission failed");
      return out;
    }
  }
  out.setup_s = Median(setup_s);
  auto mirror = MakeMirror(served->store.db, served->store.views);
  const ReadTable table =
      BuildReadTable(served->store, mirror.get(), SubSeed(args.seed, 2));
  out.Info("distinct_requests", static_cast<double>(table.requests.size()));
  out.Info("unindexed_patterns", static_cast<double>(table.unindexed.size()));
  size_t tier = 0;
  for (const auto& v : served->store.views) tier += v.patterns.size();
  out.Info("tier_patterns", static_cast<double>(tier));
  out.Info("indexed_codes", static_cast<double>(served->service->stats().num_codes));

  gvex::TcpServer server;
  gvex::TcpServerOptions sopt;
  sopt.workers = std::min(kServerWorkers, args.nproc);
  sopt.save_on_drain = false;
  if (!server.Start(served->service.get(), &served->store.db,
                    ServiceOptions(), sopt)
           .ok()) {
    out.Fail("server failed to start");
    return out;
  }
  // A traced run spends half its time untraced (the baseline of the
  // overhead ratios) and half traced.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  SpanRecorder none(false);
  const ReadFigures untraced =
      ReadPhases(server.port(), table, args, seconds, &none, &out);

  if (!args.trace) {
    server.Drain();
    server.Wait();
    out.Add("read_qps", untraced.qps, "req/s");
    out.Add("read_p50_ms", untraced.open.p50_ms, "ms");
    out.Add("read_p99_ms", untraced.open.tail_ms, "ms");
    return out;
  }

  // Traced: the same phases again, with spans and a scrape on each side.
  SpanRecorder spans(true);
  const auto scrape0 = gvex::FetchMetrics("127.0.0.1", server.port());
  const ReadFigures traced =
      ReadPhases(server.port(), table, args, seconds, &spans, &out);
  const auto scrape1 = gvex::FetchMetrics("127.0.0.1", server.port());
  server.Drain();
  server.Wait();
  const ServerDeltas d = Diff(scrape0, scrape1, &out);

  // The fallback path alone: direct queries on the unindexed patterns,
  // against the mirror (its cache is off, so every call executes).
  const gvex::ViewServiceStats m0 = mirror->stats();
  std::vector<double> fallback_us;
  for (const auto& [label, p] : table.unindexed) {
    const Clock::time_point t0 = Clock::now();
    (void)mirror->GraphsWithPattern(label, p);
    fallback_us.push_back(SecondsSince(t0) * 1e6);
  }
  const gvex::ViewServiceStats m1 = mirror->stats();

  std::vector<double> traced_setup;
  for (int i = 0; i < kSetups; ++i) {
    ScopedSpan s(&spans, "setup");
    (void)SetUpStore(store_seed, ReadStoreShape());
    traced_setup.push_back(s.Stop());
  }

  out.Add("serve.exec_read_us", d.exec_read_us, "us");
  AddCacheMetrics(d, "serve.", &out);
  // Predicted zero: no admission runs in this phase (so no build time).
  out.Add("serve.index_builds", d.index_builds, "count");
  out.Add("pattern.fallback_scans",
          static_cast<double>(m1.index_fallback_scans - m0.index_fallback_scans),
          "count");
  out.Add("pattern.filtered_rejects",
          static_cast<double>(m1.index_filtered_rejects -
                              m0.index_filtered_rejects),
          "count");
  out.Add("pattern.fallback_query_us", Median(fallback_us), "us");
  out.Add("net.read_overhead_us", traced.open.mean_ms * 1e3 - d.exec_read_us,
          "us");
  out.Add("net.backpressure_pauses", d.backpressure_pauses, "count");
  out.traced_setup_s = Median(traced_setup);
  out.Add("obs.trace_overhead.read_qps", traced.qps / untraced.qps, "ratio");
  out.Add("obs.trace_overhead.read_p50_ms",
          traced.open.p50_ms / untraced.open.p50_ms, "ratio");
  out.Add("obs.trace_overhead.read_p99_ms",
          traced.open.tail_ms / untraced.open.tail_ms, "ratio");
  out.Info("read_qps", untraced.qps);
  out.Info("read_p50_ms", untraced.open.p50_ms);
  out.Info("read_p99_ms", untraced.open.tail_ms);
  out.Info("spans", static_cast<double>(spans.size()));
  const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (!spans.WriteJsonLines(path)) out.Fail("cannot write spans to " + path);
  return out;
}

// --------------------------------------------------------------- mixed phase

namespace {

constexpr int kAdmittedLabels = 4;  // labels 0..3 change; 4..7 are read

// The mixed phase serves one fixed store; the seed draws the admitted views
// and the read sequences. An admit is mostly a full index build, whose
// cost depends on the store's graphs and patterns: over seed-drawn stores
// this small, one seed in ten ran every admit about 50% slower than the
// rest, so the spread measured the draw rather than the code.
constexpr uint64_t kMixedStoreSeed = 0x5707E;

// A content-changing version of `label`'s view: new explanation subgraphs
// on the same database graphs, and a tier that keeps most patterns (in a
// new order) but swaps some for patterns drawn from the new subgraphs,
// whose codes the index may never have seen.
ExplanationView FreshView(const synthetic::SyntheticStore& store, int label,
                          Rng* rng) {
  ExplanationView view = store.views[static_cast<size_t>(label)];
  view.explainability = 0;
  for (gvex::ExplanationSubgraph& sub : view.subgraphs) {
    const gvex::Graph& g = store.db.graph(sub.graph_index);
    const int k = static_cast<int>(
        rng->NextInt(g.num_nodes() / 3 + 1, g.num_nodes() / 2 + 2));
    sub.nodes = synthetic::RandomConnectedSubset(g, rng, k);
    sub.subgraph =
        std::move(gvex::ExtractInducedSubgraph(g, sub.nodes)).value().graph;
    sub.explainability = rng->NextDouble();
    view.explainability += sub.explainability;
  }
  const size_t n = view.patterns.size();
  const size_t offset = rng->NextUint(n);
  std::vector<Pattern> tier;
  std::set<std::string> codes;
  for (size_t i = 0; i + n / 8 < n; ++i) {
    const Pattern& p = view.patterns[(i + offset) % n];
    if (codes.insert(p.canonical_code()).second) tier.push_back(p);
  }
  for (int attempts = 0; tier.size() < n && attempts < 200; ++attempts) {
    const auto& src =
        view.subgraphs[rng->NextUint(view.subgraphs.size())].subgraph;
    Pattern p = synthetic::RandomPatternFrom(src, rng, 2, 4);
    if (codes.insert(p.canonical_code()).second) tier.push_back(std::move(p));
  }
  view.patterns = std::move(tier);
  return view;
}

struct MixedFigures {
  double setup_s = 0;
  Latency read;
  Latency admit;
  double reopen_s = 0;
  double plan_recovery_s = 0;
  ServerDeltas deltas;
  double delta_bytes = 0;
  uint64_t admits = 0;
};

MixedFigures MixedPass(const Args& args, double seconds, SpanRecorder* spans,
                       Result* out) {
  MixedFigures f;
  const std::string dir = args.work_dir + "/mixed-store";
  const uint64_t store_seed = kMixedStoreSeed;
  const ViewServiceOptions opts = ServiceOptions();

  // Set-up, timed and repeated: generation and the first index build.
  std::vector<double> setup_s;
  for (int i = 0; i < kMixedSetups; ++i) {
    ScopedSpan s(spans, "setup");
    const bool ok = SetUpStore(store_seed, MixedStoreShape()) != nullptr;
    setup_s.push_back(s.Stop());
    if (!ok) {
      out->Fail("initial admission failed");
      return f;
    }
  }
  f.setup_s = Median(setup_s);
  // The durable store this pass serves, outside the timed set-up: a fresh
  // directory, the same admission, and a full base snapshot.
  auto served = std::make_unique<Served>();
  served->store = synthetic::MakeSyntheticStore(store_seed, MixedStoreShape());
  MakeDirs(dir, true);
  auto opened = ViewService::Open(dir, &served->store.db, opts);
  if (!opened.ok() || !opened.value()->AdmitViews(served->store.views).ok() ||
      !opened.value()->Save(gvex::SaveKind::kFull).ok()) {
    out->Fail("durable store set-up failed");
    return f;
  }
  served->service = std::move(opened).value();
  const synthetic::SyntheticStore& store = served->store;

  // Reads: a hot set on the labels that are never admitted.
  auto mirror = MakeMirror(store.db, store.views);
  std::vector<Request> reads;
  Rng rng(SubSeed(args.seed, 3));
  auto add_read = [&](std::string text) {
    std::string expect = gvex::ServeText(mirror.get(), text);
    reads.push_back(ReadRequest(std::move(text), std::move(expect)));
  };
  add_read("labels\n");
  for (int label = kAdmittedLabels; label < kNumLabels; ++label) {
    const auto& pats = store.views[static_cast<size_t>(label)].patterns;
    const std::string l = std::to_string(label);
    for (size_t i = 0; i < 30 && i < pats.size(); ++i) {
      add_read("graphs " + l + "\n" + PatternBlock(pats[i]));
    }
    for (size_t i = 0; i < 10 && i < pats.size(); ++i) {
      add_read("dbgraphs " + l + "\n" + PatternBlock(pats[i]));
    }
    for (int j = 0; j < 5; ++j) {
      add_read("graphsall " + l + " 2\n" +
               PatternBlock(pats[rng.NextUint(pats.size())]) +
               PatternBlock(pats[rng.NextUint(pats.size())]));
    }
  }

  // Admit connection: fresh views at a fixed rate, a save every 60th slot,
  // for `seconds` or until kMinAdmits admits, whichever is longer.
  size_t slots = static_cast<size_t>(kAdmitRate * seconds);
  while (slots - slots / kSaveEvery < kMinAdmits) ++slots;
  const double pass_s = static_cast<double>(slots) / kAdmitRate;
  std::vector<Request> admit_reqs(slots);
  std::vector<int> admit_label(slots, -1);
  std::map<int, ExplanationView> final_views;
  for (int label = 0; label < kNumLabels; ++label) {
    final_views[label] = store.views[static_cast<size_t>(label)];
  }
  for (size_t i = 0; i < slots; ++i) {
    Request& r = admit_reqs[i];
    if ((i + 1) % kSaveEvery == 0) {
      r.text = "save\n";
      r.expect_prefix = "ok saved epoch ";
      r.span_name = "save";
      continue;
    }
    const int label = static_cast<int>(f.admits % kAdmittedLabels);
    ExplanationView v = FreshView(store, label, &rng);
    r.text = "admit\n" + gvex::SerializeView(v);
    r.expect_prefix = "ok admitted " + std::to_string(label) + " epoch ";
    r.span_name = "admit";
    admit_label[i] = label;
    final_views[label] = std::move(v);  // same order as the server sees
    ++f.admits;
  }

  gvex::TcpServer server;
  gvex::TcpServerOptions sopt;
  sopt.workers = std::min(kServerWorkers, args.nproc);
  sopt.save_on_drain = false;  // leave a WAL tail for the reopen
  if (!server.Start(served->service.get(), &store.db, opts, sopt).ok()) {
    out->Fail("server failed to start");
    return f;
  }
  const auto scrape0 = gvex::FetchMetrics("127.0.0.1", server.port());
  // Connection order fixes worker assignment (round robin): the admit
  // connection shares its worker with one of the three readers.
  std::vector<int> fds;
  for (int c = 0; c < 1 + kOpenConns; ++c) fds.push_back(ConnectTo(server.port()));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<LoopPlan> plans(fds.size());
  uint64_t last_epoch = 1;  // the set-up admission published epoch 1
  std::vector<double> admit_latency;
  plans[0].sequence.reserve(slots);
  for (const Request& r : admit_reqs) plans[0].sequence.push_back(&r);
  plans[0].interval_s = 1.0 / kAdmitRate;
  plans[0].on_response = [&](size_t i, const std::string& resp) {
    if (admit_label[i] < 0) return true;  // save
    const uint64_t epoch = std::strtoull(
        resp.c_str() + admit_reqs[i].expect_prefix.size(), nullptr, 10);
    const bool in_order = epoch == last_epoch + 1;
    last_epoch = epoch;
    return in_order;
  };
  const double per_conn = kMixedReadRate / kOpenConns;
  for (int c = 1; c <= kOpenConns; ++c) {
    plans[c].sequence =
        Draw(reads, static_cast<size_t>(per_conn * pass_s),
             SubSeed(args.seed, 200 + c));
    plans[c].interval_s = 1.0 / per_conn;
  }
  for (size_t c = 0; c < plans.size(); ++c) {
    plans[c].start = start;
    plans[c].spans = spans->enabled() ? spans : nullptr;
    plans[c].request_id_base = static_cast<int64_t>(c) << 32;
  }
  const std::vector<ConnStats> stats = RunConnections(fds, plans);
  for (int fd : fds) ::close(fd);
  const auto scrape1 = gvex::FetchMetrics("127.0.0.1", server.port());
  server.Drain();
  server.Wait();
  served->service.reset();  // closes the store (releases its LOCK)

  // Admit latency: admit slots only; saves are reported as info.
  std::vector<double> admits, saves;
  for (size_t i = 0; i < stats[0].latency.size(); ++i) {
    (admit_label[i] >= 0 ? admits : saves).push_back(stats[0].latency[i]);
  }
  out->attempted += stats[0].completed;
  if (stats[0].failed) {
    out->Fail("mixed phase: admits or saves failed or out of order",
              stats[0].failed);
  }
  const Pooled read = Pool({stats.begin() + 1, stats.end()});
  out->attempted += read.completed;
  if (read.failed) out->Fail("mixed phase: reads failed", read.failed);
  f.read = SummarizeWindows(read.latency, read.done_at);
  f.admit = Summarize(admits, 0.95);
  CheckLateness("read", read, out);
  Pooled admit_pool;
  admit_pool.latency = admits;
  admit_pool.lateness = stats[0].lateness;
  CheckLateness("admit", admit_pool, out);
  out->Info("reads", static_cast<double>(read.latency.size()));
  out->Info("admits", static_cast<double>(admits.size()));
  out->Info("save_p50_ms", Quantile(saves, 0.5) * 1e3);
  f.deltas = Diff(scrape0, scrape1, out);

  // Recovery: the plan alone, then a full reopen, alternately; check the
  // first reopen.
  auto final_mirror = std::make_unique<ViewService>(&store.db);
  {
    std::vector<ExplanationView> views;
    for (auto& [label, v] : final_views) views.push_back(v);
    (void)final_mirror->AdmitViews(std::move(views));
  }
  std::vector<double> plan_s, reopen_s;
  for (int i = 0; i < kReopens; ++i) {
    {
      ScopedSpan s(spans, "store.PlanRecovery");
      auto plan = gvex::PlanRecovery(dir);
      plan_s.push_back(s.Stop());
      if (!plan.ok()) out->Fail("PlanRecovery failed");
    }
    ScopedSpan s(spans, "serve.Open");
    auto reopened = ViewService::Open(dir, &store.db, opts);
    reopen_s.push_back(s.Stop());
    out->attempted += 1;
    if (!reopened.ok()) {
      out->Fail("reopen failed: " + reopened.status().ToString());
      continue;
    }
    if (i > 0) continue;
    ViewService* svc = reopened.value().get();
    const uint64_t want_epoch = 1 + f.admits;
    if (svc->epoch() != want_epoch) {
      out->Fail("reopened epoch " + std::to_string(svc->epoch()) +
                " != " + std::to_string(want_epoch));
    }
    for (int label = 0; label < kNumLabels; ++label) {
      const std::string l = std::to_string(label);
      std::vector<std::string> probes = {"patterns " + l + "\n",
                                         "discriminative " + l + "\n"};
      const auto& pats = final_views[label].patterns;
      for (size_t k = 0; k < pats.size(); k += 10) {
        probes.push_back("graphs " + l + "\n" + PatternBlock(pats[k]));
        probes.push_back("labelsof\n" + PatternBlock(pats[k]));
      }
      for (const std::string& q : probes) {
        out->attempted += 1;
        if (gvex::ServeText(svc, q) != gvex::ServeText(final_mirror.get(), q)) {
          out->Fail("reopened store differs from the mirror on: " +
                    q.substr(0, q.find('\n')));
        }
      }
    }
  }
  f.reopen_s = Median(reopen_s);

  f.plan_recovery_s = Median(plan_s);
  uint64_t delta_files = 0, delta_total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind("delta-", 0) == 0) {
      ++delta_files;
      delta_total += e.file_size(ec);
    }
  }
  f.delta_bytes = delta_files ? static_cast<double>(delta_total) / delta_files
                              : 0;
  out->Info("delta_files", static_cast<double>(delta_files));
  RemoveTree(dir);
  return f;
}

}  // namespace

Result RunServeMixed(const Args& args) {
  Result out;
  // A traced run spends half its time untraced (the baseline of the
  // overhead ratios) and half traced.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  SpanRecorder none(false);
  const MixedFigures u = MixedPass(args, seconds, &none, &out);
  out.setup_s = u.setup_s;
  if (!args.trace) {
    out.Add("mixed_read_p50_ms", u.read.p50_ms, "ms");
    out.Add("mixed_read_p99_ms", u.read.tail_ms, "ms");
    out.Add("admit_p50_ms", u.admit.p50_ms, "ms");
    out.Add("admit_p95_ms", u.admit.tail_ms, "ms");
    out.Info("reopen_s", u.reopen_s);
    return out;
  }
  SpanRecorder spans(true);
  const MixedFigures t = MixedPass(args, seconds, &spans, &out);
  out.traced_setup_s = t.setup_s;
  const ServerDeltas& d = t.deltas;
  out.Add("serve.mixed_exec_read_us", d.exec_read_us, "us");
  AddCacheMetrics(d, "serve.mixed_", &out);
  out.Add("serve.mixed_index_builds", d.index_builds, "count");
  out.Add("serve.mixed_index_build_s", d.index_build_s, "s");
  out.Add("serve.admit_batch_views", d.admit_batch_views, "views");
  out.Add("serve.reopen_s", t.reopen_s, "s");
  out.Add("serve.reopen_index_s", t.reopen_s - t.plan_recovery_s, "s");
  out.Add("store.wal_append_s", d.wal_append_s, "s");
  out.Add("store.wal_fsync_s", d.wal_fsync_s, "s");
  out.Add("store.wal_bytes_per_admit",
          t.admits ? d.wal_bytes / static_cast<double>(t.admits) : 0, "bytes");
  out.Add("store.save_s", d.save_s, "s");
  out.Add("store.delta_bytes", t.delta_bytes, "bytes");
  out.Add("store.plan_recovery_s", t.plan_recovery_s, "s");
  out.Add("net.mixed_read_overhead_us", t.read.mean_ms * 1e3 - d.exec_read_us,
          "us");
  out.Add("net.mixed_backpressure_pauses", d.backpressure_pauses, "count");
  out.Add("obs.trace_overhead.mixed_read_p50_ms",
          t.read.p50_ms / u.read.p50_ms, "ratio");
  out.Add("obs.trace_overhead.mixed_read_p99_ms",
          t.read.tail_ms / u.read.tail_ms, "ratio");
  out.Add("obs.trace_overhead.admit_p50_ms", t.admit.p50_ms / u.admit.p50_ms,
          "ratio");
  out.Add("obs.trace_overhead.admit_p95_ms",
          t.admit.tail_ms / u.admit.tail_ms, "ratio");
  out.Info("mixed_read_p50_ms", u.read.p50_ms);
  out.Info("mixed_read_p99_ms", u.read.tail_ms);
  out.Info("admit_p50_ms", u.admit.p50_ms);
  out.Info("admit_p95_ms", u.admit.tail_ms);
  out.Info("reopen_s", u.reopen_s);
  out.Info("spans", static_cast<double>(spans.size()));
  const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (!spans.WriteJsonLines(path)) out.Fail("cannot write spans to " + path);
  return out;
}

}  // namespace perfbench
