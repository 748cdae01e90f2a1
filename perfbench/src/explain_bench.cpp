// The explain phase: the analyst's pipeline. Set-up generates a dataset and
// trains the GCN; the measured loop runs ApproxGVEX at one worker and at
// nproc workers and StreamGVEX at one worker over every predicted label,
// round after round, and reports the median rate.
//
// Why two datasets: MUT-like molecules (about 21 nodes, workload `mol`) are
// all under the 128-node exact-Jacobian limit, so influence dominates
// ExplainGraph there. MAL-like call graphs (about 160 nodes, workload
// `large`) take the random-walk influence, so greedy selection, VpExtend
// verification and inference dominate instead: an influence change should
// move `mol` and leave `large`.

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "counting_model.h"
#include "data/datasets.h"
#include "data/malnet.h"
#include "data/mutagenicity.h"
#include "explain/approx_gvex.h"
#include "explain/psum.h"
#include "explain/scoring.h"
#include "explain/stream_gvex.h"
#include "gnn/influence.h"
#include "gnn/trainer.h"
#include "graph/graph_io.h"
#include "pattern/coverage.h"
#include "pattern/miner.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using gvex::ExplanationSubgraph;
using gvex::ExplanationView;
using gvex::GraphDatabase;

namespace {

struct ExplainShape {
  int num_graphs;
  int train_graphs;
  int min_nodes;  // MAL-like only: call-graph size range
  int max_nodes;
  int hidden_dim;
  int epochs;
  int lower;  // [b_l, u_l] for every label
  int upper;
  float theta;
  float r;
  int min_rounds;  // measured rounds per run, at least
};

ExplainShape ShapeFor(bool large) {
  if (large) return {10, 30, 140, 180, 32, 40, 1, 6, 0.05f, 0.3f, 3};
  return {120, 80, 0, 0, 32, 40, 1, 8, 0.08f, 0.25f, 3};
}

gvex::Configuration ConfigFor(const ExplainShape& shape) {
  gvex::Configuration c;
  c.theta = shape.theta;
  c.r = shape.r;
  c.gamma = 0.5f;
  c.default_bound = {shape.lower, shape.upper};
  c.verify_mode = gvex::VerifyMode::kConsistentOnly;
  c.miner.max_pattern_nodes = 3;
  c.repair_budget = 8;
  return c;
}

struct Pipeline {
  GraphDatabase db;
  gvex::GcnModel model;
  double generate_s = 0;
  double train_s = 0;
};

GraphDatabase Generate(const ExplainShape& shape, bool large, int num_graphs,
                       uint64_t seed) {
  if (large) {
    gvex::MalnetOptions opt;
    opt.num_graphs = num_graphs;
    opt.seed = seed;
    opt.min_functions = shape.min_nodes;
    opt.max_functions = shape.max_nodes;
    return gvex::GenerateMalnet(opt);
  }
  gvex::MutagenicityOptions opt;
  opt.num_graphs = num_graphs;
  opt.seed = seed;
  return gvex::GenerateMutagenicity(opt);
}

// The classifier is trained on a training set generated from a fixed seed,
// so every --seed explains its inputs with the same model: the model is
// part of the system under test, the explained graphs are the input. (A
// model trained per seed made the explain rates swing by tens of percent
// between seeds.)
constexpr uint64_t kTrainingSeed = 0x5EED;
// `large` explains one fixed set of call graphs. Per-graph explain cost
// there is heavy-tailed (14-330 ms for ApproxGVEX, 2-170 ms for StreamGVEX,
// measured over 10 graphs), so a seed-drawn set of 10 graphs made the rate
// measure the draw: 25% (AG) and 48% (SG) spread across seeds. The seed
// instead shuffles node ids and graph order, the input property the
// paper's node-order experiment (Fig. 12) varies. StreamGVEX's cost depends
// on node order as much as on the graph (31% spread over ten seeds with one
// order per graph), so every graph is explained under kLargeOrders orders.
constexpr uint64_t kLargePoolSeed = 0xCA11;
constexpr int kLargeOrders = 3;

// `g` with node ids permuted by `rng` (features and edges follow).
gvex::Graph ShuffleNodes(const gvex::Graph& g, gvex::Rng* rng) {
  std::vector<gvex::NodeId> order(static_cast<size_t>(g.num_nodes()));
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<gvex::NodeId>(i);
  }
  rng->Shuffle(&order);  // new id i holds old node order[i]
  std::vector<gvex::NodeId> new_id(order.size());
  gvex::Graph out(g.directed());
  gvex::Matrix x(g.num_nodes(), g.feature_dim());
  for (size_t i = 0; i < order.size(); ++i) {
    new_id[static_cast<size_t>(order[i])] = static_cast<gvex::NodeId>(i);
    out.AddNode(g.node_type(order[i]));
    for (int j = 0; j < g.feature_dim(); ++j) {
      x.at(static_cast<int>(i), j) = g.features().at(order[i], j);
    }
  }
  for (const gvex::Edge& e : g.edges()) {
    (void)out.AddEdge(new_id[static_cast<size_t>(e.u)],
                      new_id[static_cast<size_t>(e.v)], e.edge_type);
  }
  if (g.has_features()) (void)out.SetFeatures(std::move(x));
  return out;
}

GraphDatabase ExplainedGraphs(const ExplainShape& shape, bool large,
                              uint64_t seed) {
  if (!large) return Generate(shape, large, shape.num_graphs, seed);
  const GraphDatabase pool =
      Generate(shape, large, shape.num_graphs, kLargePoolSeed);
  gvex::Rng rng(seed);
  std::vector<int> order;
  for (int k = 0; k < kLargeOrders; ++k) {
    for (int i = 0; i < pool.size(); ++i) order.push_back(i);
  }
  rng.Shuffle(&order);
  GraphDatabase db;
  for (int i : order) db.Add(ShuffleNodes(pool.graph(i), &rng), pool.true_label(i));
  return db;
}

Pipeline SetUp(const ExplainShape& shape, bool large, uint64_t seed,
               SpanRecorder* spans) {
  Pipeline p;
  ScopedSpan all(spans, "setup");
  GraphDatabase train_db;
  {
    ScopedSpan gen(spans, "data.generate", all.id());
    train_db = Generate(shape, large, shape.train_graphs, kTrainingSeed);
    p.db = ExplainedGraphs(shape, large, SubSeed(seed, 1));
    p.generate_s = gen.Stop();
  }
  {
    ScopedSpan train(spans, "gnn.train", all.id());
    const gvex::DatasetSpec& spec = gvex::SpecFor(
        large ? gvex::DatasetId::kMalnet : gvex::DatasetId::kMutagenicity);
    gvex::GcnConfig cfg;
    cfg.input_dim = spec.feature_dim;
    cfg.hidden_dim = shape.hidden_dim;
    cfg.num_layers = 3;
    cfg.num_classes = spec.num_classes;
    gvex::Rng rng(kTrainingSeed);
    p.model = gvex::GcnModel(cfg, &rng);
    std::vector<int> all_graphs;
    for (int i = 0; i < train_db.size(); ++i) all_graphs.push_back(i);
    gvex::TrainConfig tc;
    tc.epochs = shape.epochs;
    tc.batch_size = 16;
    (void)gvex::TrainGcn(&p.model, train_db, all_graphs, tc);
    (void)gvex::AssignPredictedLabels(p.model, &p.db);
    p.train_s = train.Stop();
  }
  return p;
}

bool SubgraphsIdentical(const ExplanationSubgraph& a,
                        const ExplanationSubgraph& b) {
  return a.graph_index == b.graph_index && a.nodes == b.nodes &&
         a.consistent == b.consistent &&
         a.counterfactual == b.counterfactual &&
         std::memcmp(&a.explainability, &b.explainability,
                     sizeof(double)) == 0 &&
         gvex::SerializeGraph(a.subgraph) == gvex::SerializeGraph(b.subgraph);
}

bool ViewsIdentical(const ExplanationView& a, const ExplanationView& b) {
  if (a.label != b.label || a.subgraphs.size() != b.subgraphs.size() ||
      a.patterns.size() != b.patterns.size() ||
      std::memcmp(&a.explainability, &b.explainability, sizeof(double)) !=
          0) {
    return false;
  }
  for (size_t i = 0; i < a.subgraphs.size(); ++i) {
    if (!SubgraphsIdentical(a.subgraphs[i], b.subgraphs[i])) return false;
  }
  for (size_t i = 0; i < a.patterns.size(); ++i) {
    if (a.patterns[i].canonical_code() != b.patterns[i].canonical_code()) {
      return false;
    }
  }
  return true;
}

bool AllIdentical(const std::vector<ExplanationView>& a,
                  const std::vector<ExplanationView>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ViewsIdentical(a[i], b[i])) return false;
  }
  return true;
}

double TotalExplainability(const std::vector<ExplanationView>& views) {
  double total = 0;
  for (const ExplanationView& v : views) total += v.explainability;
  return total;
}

// The output checks every run makes on the first round's views: each label
// group is explained in full (no infeasible graph), every subgraph respects
// [b_l, u_l], and the view's patterns cover every subgraph node (C1).
void CheckViews(const std::string& algo, const GraphDatabase& db,
                const std::vector<ExplanationView>& views,
                const gvex::Configuration& config, Result* out) {
  for (const ExplanationView& view : views) {
    const size_t group = db.LabelGroup(view.label).size();
    if (view.subgraphs.size() != group) {
      out->Fail(algo + ": label " + std::to_string(view.label) + " skipped " +
                    std::to_string(group - view.subgraphs.size()) +
                    " infeasible graphs",
                group - view.subgraphs.size());
    }
    const gvex::CoverageBound& bound = config.BoundFor(view.label);
    std::vector<const gvex::Graph*> subs;
    for (const ExplanationSubgraph& s : view.subgraphs) {
      const int n = static_cast<int>(s.nodes.size());
      if (n < bound.lower || n > bound.upper ||
          s.subgraph.num_nodes() != n) {
        out->Fail(algo + ": graph " + std::to_string(s.graph_index) +
                  " has " + std::to_string(n) + " nodes outside [b_l, u_l]");
      }
      subs.push_back(&s.subgraph);
    }
    gvex::MatchOptions mo;
    mo.semantics = config.miner.semantics;
    if (!gvex::PatternsCoverAllNodes(view.patterns, subs, mo)) {
      out->Fail(algo + ": patterns of label " + std::to_string(view.label) +
                " leave subgraph nodes uncovered");
    }
  }
}

struct RoundTimes {
  double ag1 = 0;
  double agn = 0;
  double sg = 0;
};

// Per-layer figures of one traced round.
struct TracedRound {
  RoundTimes times;
  double explain_graph_s = 0;  // sum of ExplainGraph
  double stream_s = 0;         // sum of ExplainGraphStreaming
  double psum_s = 0;
  int psum_patterns = 0;
  double psum_edge_loss = 0;  // mean over labels
  double ag_f = 0;  // explainability of the traced views
  double sg_f = 0;
  uint64_t infer_calls = 0;   // AG and SG at one worker
  double infer_s = 0;
  // Scoring contexts the AG and SG passes build (one influence computation
  // each), and the time they spend in them: each graph's probed context and
  // influence time times the contexts built on that graph.
  uint64_t influence_calls = 0;
  double influence_s = 0;
  double ag_context_s = 0;
  double sg_context_s = 0;
};

// One graph's probes: a GraphScoringContext and a NodeInfluence::Compute
// built on the plain model, timed on their own.
struct GraphProbe {
  double context_s = 0;
  double influence_s = 0;
};

}  // namespace

Result RunExplain(const Args& args, bool large) {
  Result out;
  const ExplainShape shape = ShapeFor(large);
  const gvex::Configuration config = ConfigFor(shape);
  SpanRecorder spans(args.trace);
  SpanRecorder untraced(false);

  // Set-up, timed once before the rounds and once more after every round,
  // so its samples spread over the run as the rounds do: a burst of host
  // contention then moves a few of them rather than their median. Every
  // repetition builds the same inputs.
  std::vector<double> setup_s, traced_setup_s, generate_s, train_s;
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    Pipeline q = SetUp(shape, large, args.seed, &untraced);
    setup_s.push_back(SecondsSince(t0));
    generate_s.push_back(q.generate_s);
    train_s.push_back(q.train_s);
    return q;
  };
  const Pipeline p = set_up();

  std::vector<int> labels;
  int num_graphs = 0;
  for (int label : p.db.DistinctLabels()) {
    const int n = static_cast<int>(p.db.LabelGroup(label).size());
    if (n == 0) continue;
    labels.push_back(label);
    num_graphs += n;
    out.Info("label_" + std::to_string(label) + "_graphs", n);
  }
  if (labels.empty()) {
    out.Fail("no predicted label has a graph");
    return out;
  }
  out.Info("graphs", num_graphs);
  out.Info("labels", static_cast<double>(labels.size()));

  const gvex::ApproxGvex ag(&p.model, config);
  const gvex::StreamGvex sg(&p.model, config);
  std::vector<ExplanationView> ag_ref, sg_ref;

  // One untraced round: AG at 1 and nproc workers, then SG at 1 worker.
  auto run_round = [&](RoundTimes* t) {
    Clock::time_point t0 = Clock::now();
    auto ag1 = ag.GenerateViews(p.db, labels, 1);
    t->ag1 = SecondsSince(t0);
    t0 = Clock::now();
    auto agn = ag.GenerateViews(p.db, labels, args.nproc);
    t->agn = SecondsSince(t0);
    std::vector<ExplanationView> sgv;
    bool sg_ok = true;
    t0 = Clock::now();
    for (int label : labels) {
      auto v = sg.GenerateView(p.db, label, 1);
      if (!v.ok()) {
        sg_ok = false;
        break;
      }
      sgv.push_back(std::move(v).value());
    }
    t->sg = SecondsSince(t0);
    out.attempted += 3 * static_cast<uint64_t>(num_graphs);
    if (!ag1.ok() || !agn.ok() || !sg_ok) {
      out.Fail("GenerateView(s) returned an error", num_graphs);
      return;
    }
    if (ag_ref.empty()) {
      ag_ref = ag1.value();
      sg_ref = sgv;
      CheckViews("AG", p.db, ag_ref, config, &out);
      CheckViews("SG", p.db, sg_ref, config, &out);
    } else if (!AllIdentical(ag1.value(), ag_ref) ||
               !AllIdentical(sgv, sg_ref)) {
      out.Fail("views changed between rounds", num_graphs);
    }
    // Determinism contract: sharded AG output is bit-identical.
    if (!AllIdentical(agn.value(), ag1.value())) {
      out.Fail("AG views at " + std::to_string(args.nproc) +
                   " workers differ from 1 worker",
               num_graphs);
    }
  };

  // A traced run spends half its time untraced (the baseline of the
  // overhead ratios) and half traced.
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<RoundTimes> rounds;
  const Clock::time_point measure_start = Clock::now();
  while (static_cast<int>(rounds.size()) < shape.min_rounds ||
         SecondsSince(measure_start) < budget) {
    RoundTimes t;
    run_round(&t);
    rounds.push_back(t);
    (void)set_up();
  }
  std::vector<double> ag_rate, agn_rate, sg_rate, ag1_s, agn_s;
  for (const RoundTimes& t : rounds) {
    ag_rate.push_back(num_graphs / t.ag1);
    agn_rate.push_back(num_graphs / t.agn);
    sg_rate.push_back(num_graphs / t.sg);
    ag1_s.push_back(t.ag1);
    agn_s.push_back(t.agn);
  }
  out.Info("rounds", static_cast<double>(rounds.size()));

  const double e2e_setup = Median(setup_s);
  out.setup_s = e2e_setup;
  const double e2e_ag = Median(ag_rate);
  const double e2e_agn = Median(agn_rate);
  const double e2e_sg = Median(sg_rate);
  const double e2e_ag_f = TotalExplainability(ag_ref);
  const double e2e_sg_f = TotalExplainability(sg_ref);
  if (!args.trace) {
    out.Add("ag_graphs_per_s", e2e_ag, "graphs/s");
    out.Add("ag_par_graphs_per_s", e2e_agn, "graphs/s");
    out.Add("sg_graphs_per_s", e2e_sg, "graphs/s");
    out.Add("ag_explainability", e2e_ag_f, "f");
    out.Add("sg_explainability", e2e_sg_f, "f");
    return out;
  }

  // ---- Traced rounds: the same work, through the public calls one layer
  // down, with a counting model and spans. Outputs must equal the
  // untraced views.
  const CountingGcn counting(p.model);
  const gvex::ApproxGvex tag(&counting, config);
  const gvex::StreamGvex tsg(&counting, config);
  // The context and influence time inside ExplainGraph and
  // ExplainGraphStreaming cannot be timed from outside, so each graph's
  // context and influence are probed once per round on the plain model,
  // and the program's share is the probe times the contexts it builds on
  // that graph (counted by the model). The probes are not part of the
  // traced rate: it counts ExplainGraph and Psum only.
  std::vector<GraphProbe> probes(static_cast<size_t>(p.db.size()));
  auto charge = [&](int gi, uint64_t contexts, double* context_s,
                    TracedRound* r) {
    const GraphProbe& pr = probes[static_cast<size_t>(gi)];
    r->influence_calls += contexts;
    r->influence_s += pr.influence_s * static_cast<double>(contexts);
    *context_s += pr.context_s * static_cast<double>(contexts);
  };
  auto traced_round = [&](TracedRound* r) {
    ScopedSpan round(&spans, "round");
    // AG, 1 worker: ExplainGraph per graph, then Psum per label.
    std::vector<ExplanationView> ag1;
    for (int label : labels) {
      ScopedSpan lspan(&spans, "ag.label", round.id());
      ExplanationView view;
      view.label = label;
      for (int gi : p.db.LabelGroup(label)) {
        const gvex::Graph& g = p.db.graph(gi);
        GraphProbe& pr = probes[static_cast<size_t>(gi)];
        {
          ScopedSpan c(&spans, "explain.GraphScoringContext", lspan.id());
          gvex::GraphScoringContext ctx(p.model, g, config);
          pr.context_s = c.Stop();
        }
        {
          ScopedSpan inf(&spans, "gnn.NodeInfluence", lspan.id());
          auto ni = gvex::NodeInfluence::Compute(
              p.model, g, config.influence_mode,
              config.auto_exact_node_limit);
          pr.influence_s = inf.Stop();
        }
        const uint64_t calls = counting.calls();
        const double infer = counting.seconds();
        const uint64_t contexts = counting.embedding_calls();
        ScopedSpan ex_span(&spans, "explain.ExplainGraph", lspan.id());
        auto ex = tag.ExplainGraph(g, gi, label);
        r->explain_graph_s += ex_span.Stop();
        r->infer_calls += counting.calls() - calls;
        r->infer_s += counting.seconds() - infer;
        charge(gi, counting.embedding_calls() - contexts, &r->ag_context_s, r);
        if (ex.ok()) view.subgraphs.push_back(std::move(ex).value());
      }
      std::vector<const gvex::Graph*> subs;
      for (const auto& s : view.subgraphs) subs.push_back(&s.subgraph);
      ScopedSpan ps(&spans, "explain.Psum", lspan.id());
      auto psum = gvex::Psum(subs, config);
      r->psum_s += ps.Stop();
      if (psum.ok()) {
        r->psum_patterns += static_cast<int>(psum.value().patterns.size());
        r->psum_edge_loss += psum.value().EdgeLoss() / labels.size();
        view.patterns = psum.value().patterns;
      }
      for (const auto& s : view.subgraphs) {
        view.explainability += s.explainability;
      }
      r->ag_f += view.explainability;
      ag1.push_back(std::move(view));
    }
    r->times.ag1 = r->explain_graph_s + r->psum_s;
    // SG, 1 worker: ExplainGraphStreaming per graph.
    std::vector<ExplanationSubgraph> sg_subs;
    std::vector<std::set<std::string>> sg_codes(labels.size());
    const uint64_t calls0 = counting.calls();
    const double infer0 = counting.seconds();
    {
      ScopedSpan phase(&spans, "sg", round.id());
      for (size_t li = 0; li < labels.size(); ++li) {
        for (int gi : p.db.LabelGroup(labels[li])) {
          const uint64_t contexts = counting.embedding_calls();
          ScopedSpan g(&spans, "explain.ExplainGraphStreaming", phase.id());
          auto res = tsg.ExplainGraphStreaming(p.db.graph(gi), gi, labels[li]);
          r->stream_s += g.Stop();
          charge(gi, counting.embedding_calls() - contexts, &r->sg_context_s,
                 r);
          if (!res.ok()) continue;
          r->sg_f += res.value().subgraph.explainability;
          sg_subs.push_back(std::move(res.value().subgraph));
          for (const auto& pat : res.value().patterns) {
            sg_codes[li].insert(pat.canonical_code());
          }
        }
      }
      r->times.sg = phase.Stop();
    }
    r->infer_calls += counting.calls() - calls0;
    r->infer_s += counting.seconds() - infer0;
    // AG, nproc workers, on the counting model.
    ScopedSpan par(&spans, "ag_par.GenerateViews", round.id());
    auto agn = tag.GenerateViews(p.db, labels, args.nproc);
    r->times.agn = par.Stop();

    out.attempted += 3 * static_cast<uint64_t>(num_graphs);
    if (!AllIdentical(ag1, ag_ref) || !agn.ok() ||
        !AllIdentical(agn.value(), ag_ref)) {
      out.Fail("traced AG views differ from untraced ones", num_graphs);
    }
    size_t k = 0;
    bool sg_same = true;
    for (size_t li = 0; li < sg_ref.size(); ++li) {
      std::set<std::string> codes;
      for (const auto& pat : sg_ref[li].patterns) {
        codes.insert(pat.canonical_code());
      }
      sg_same = sg_same && codes == sg_codes[li];
      for (const auto& s : sg_ref[li].subgraphs) {
        sg_same = sg_same && k < sg_subs.size() &&
                  SubgraphsIdentical(s, sg_subs[k++]);
      }
    }
    if (!sg_same || k != sg_subs.size()) {
      out.Fail("traced SG views differ from untraced ones", num_graphs);
    }
  };

  std::vector<TracedRound> traced;
  const Clock::time_point traced_start = Clock::now();
  while (static_cast<int>(traced.size()) < shape.min_rounds ||
         SecondsSince(traced_start) < budget) {
    TracedRound r;
    traced_round(&r);
    traced.push_back(r);
    const Clock::time_point t0 = Clock::now();
    (void)SetUp(shape, large, args.seed, &spans);
    traced_setup_s.push_back(SecondsSince(t0));
  }

  // PGen alone: MinePatterns over each label's AG subgraphs.
  double mine_s = 0;
  int mined = 0;
  {
    ScopedSpan mine(&spans, "pattern.MinePatterns");
    for (const ExplanationView& view : ag_ref) {
      std::vector<const gvex::Graph*> subs;
      for (const auto& s : view.subgraphs) subs.push_back(&s.subgraph);
      gvex::MinerOptions mo = config.miner;
      mo.min_support = 1;  // as Psum mines
      mined += static_cast<int>(gvex::MinePatterns(subs, mo).size());
    }
    mine_s = mine.Stop();
  }

  std::vector<double> t_ag, t_agn, t_sg, select_s, stream_s, psum_s, infer_s,
      context_s, influence_s;
  for (const TracedRound& r : traced) {
    t_ag.push_back(num_graphs / r.times.ag1);
    t_agn.push_back(num_graphs / r.times.agn);
    t_sg.push_back(num_graphs / r.times.sg);
    select_s.push_back(r.explain_graph_s - r.ag_context_s);
    stream_s.push_back(r.stream_s - r.sg_context_s);
    context_s.push_back(r.ag_context_s + r.sg_context_s);
    influence_s.push_back(r.influence_s);
    psum_s.push_back(r.psum_s);
    infer_s.push_back(r.infer_s);
  }
  int skipped = 0;
  for (const ExplanationView& v : ag_ref) {
    skipped += static_cast<int>(p.db.LabelGroup(v.label).size() -
                                v.subgraphs.size());
  }

  out.Add("data.generate_s", Median(generate_s), "s");
  out.Add("gnn.train_s", Median(train_s), "s");
  out.Add("gnn.influence_s", Median(influence_s), "s");
  out.Add("gnn.influence_calls",
          static_cast<double>(traced[0].influence_calls), "count");
  out.Add("gnn.infer_calls", static_cast<double>(traced[0].infer_calls),
          "count");
  out.Add("gnn.infer_s", Median(infer_s), "s");
  out.Add("explain.context_s", Median(context_s), "s");
  out.Add("explain.ag_select_s", Median(select_s), "s");
  out.Add("explain.sg_stream_s", Median(stream_s), "s");
  out.Add("explain.psum_s", Median(psum_s), "s");
  out.Add("explain.psum_patterns", traced[0].psum_patterns, "count");
  out.Add("explain.psum_edge_loss", traced[0].psum_edge_loss, "ratio");
  out.Add("explain.skipped_graphs", skipped, "count");
  out.Add("pattern.mine_s", mine_s, "s");
  out.Add("pattern.mined_candidates", mined, "count");
  out.Add("util.pool_speedup", Median(ag1_s) / Median(agn_s), "ratio");
  out.traced_setup_s = Median(traced_setup_s);
  out.Add("obs.trace_overhead.ag_graphs_per_s", Median(t_ag) / e2e_ag,
          "ratio");
  out.Add("obs.trace_overhead.ag_par_graphs_per_s", Median(t_agn) / e2e_agn,
          "ratio");
  out.Add("obs.trace_overhead.sg_graphs_per_s", Median(t_sg) / e2e_sg,
          "ratio");
  // 1 whenever the traced views equal the untraced ones (checked above).
  out.Add("obs.trace_overhead.ag_explainability", traced[0].ag_f / e2e_ag_f,
          "ratio");
  out.Add("obs.trace_overhead.sg_explainability", traced[0].sg_f / e2e_sg_f,
          "ratio");

  out.Info("ag_graphs_per_s", e2e_ag);
  out.Info("ag_par_graphs_per_s", e2e_agn);
  out.Info("sg_graphs_per_s", e2e_sg);
  out.Info("spans", static_cast<double>(spans.size()));
  const std::string span_path = args.work_dir + "/spans-" + args.workload +
                                "-" + std::to_string(args.seed) + ".jsonl";
  if (!spans.WriteJsonLines(span_path)) {
    out.Fail("cannot write spans to " + span_path);
  }
  return out;
}

}  // namespace perfbench
