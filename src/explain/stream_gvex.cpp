#include "explain/stream_gvex.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "explain/psum.h"
#include "explain/repair.h"
#include "explain/verify.h"
#include "graph/subgraph.h"
#include "pattern/coverage.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace gvex {

StreamGraphState::StreamGraphState(const GnnClassifier* model, const Graph* g,
                                   int graph_index, int label,
                                   const Configuration* config)
    : model_(model),
      g_(g),
      graph_index_(graph_index),
      label_(label),
      config_(config),
      ctx_(*model, *g, *config) {
  in_vs_.assign(static_cast<size_t>(g->num_nodes()), false);
  in_vu_.assign(static_cast<size_t>(g->num_nodes()), false);
}

double StreamGraphState::ScoreOf(const std::vector<NodeId>& vs) const {
  return ScoreState::ScoreOfSet(ctx_, vs);
}

void StreamGraphState::ProcessNode(NodeId v) {
  ++processed_;
  if (in_vs_[static_cast<size_t>(v)]) return;
  // Line 4-5: record marginal weight, enlarge candidate pool.
  if (!in_vu_[static_cast<size_t>(v)]) {
    in_vu_[static_cast<size_t>(v)] = true;
    vu_.push_back(v);
  }
  // Line 6: extendability test.
  if (!VpExtend(*model_, *g_, vs_, v, label_, *config_)) return;
  // Line 7: greedy swap maintenance of V_S.
  IncUpdateVS(v);
  // Lines 8-9: if v entered V_S, maintain the pattern tier.
  if (in_vs_[static_cast<size_t>(v)]) IncUpdateP();
}

void StreamGraphState::IncUpdateVS(NodeId v) {
  const CoverageBound& bound = config_->BoundFor(label_);
  // Case (a): room in the cache.
  if (static_cast<int>(vs_.size()) < bound.upper) {
    vs_.push_back(v);
    in_vs_[static_cast<size_t>(v)] = true;
    if (in_vu_[static_cast<size_t>(v)]) {
      in_vu_[static_cast<size_t>(v)] = false;
      vu_.erase(std::find(vu_.begin(), vu_.end(), v));
    }
    return;
  }
  // Case (b): if the current patterns already cover v's type structure, the
  // arriving node cannot improve the queryable tier; skip cheaply when its
  // standalone gain is zero.
  // Case (c): greedy swap — find resident v- with the smallest removal loss.
  const double full = ScoreOf(vs_);
  double min_loss = -1.0;
  size_t min_idx = 0;
  for (size_t i = 0; i < vs_.size(); ++i) {
    std::vector<NodeId> without = vs_;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    const double loss = full - ScoreOf(without);
    if (min_loss < 0.0 || loss < min_loss) {
      min_loss = loss;
      min_idx = i;
    }
  }
  // Gain of v over V_S \ {v-}; swap only when gain >= 2 * loss (Procedure 4).
  std::vector<NodeId> without = vs_;
  NodeId evicted = without[min_idx];
  without.erase(without.begin() + static_cast<std::ptrdiff_t>(min_idx));
  std::vector<NodeId> with_v = without;
  with_v.push_back(v);
  const double gain = ScoreOf(with_v) - ScoreOf(without);
  if (gain >= 2.0 * min_loss && gain > 0.0) {
    in_vs_[static_cast<size_t>(evicted)] = false;
    if (!in_vu_[static_cast<size_t>(evicted)]) {
      in_vu_[static_cast<size_t>(evicted)] = true;
      vu_.push_back(evicted);
    }
    vs_[min_idx] = v;
    in_vs_[static_cast<size_t>(v)] = true;
    if (in_vu_[static_cast<size_t>(v)]) {
      in_vu_[static_cast<size_t>(v)] = false;
      vu_.erase(std::find(vu_.begin(), vu_.end(), v));
    }
  }
}

void StreamGraphState::IncUpdateP() {
  // Materialize the current explanation subgraph.
  std::vector<NodeId> sorted = vs_;
  std::sort(sorted.begin(), sorted.end());
  auto sub = ExtractInducedSubgraph(*g_, sorted);
  if (!sub.ok()) return;
  const Graph& gs = sub.value().graph;
  if (gs.num_nodes() == 0) {
    patterns_.clear();
    return;
  }
  MatchOptions mo;
  mo.semantics = config_->miner.semantics;
  const PreparedGraph target(gs);

  // Mask nodes already covered by retained patterns (Procedure 5 / Fig. 4).
  CoverageMask covered = ComputeCoverage(patterns_, target, mo);
  std::vector<NodeId> uncovered;
  for (NodeId v = 0; v < gs.num_nodes(); ++v) {
    if (!covered.nodes[static_cast<size_t>(v)]) uncovered.push_back(v);
  }
  if (!uncovered.empty()) {
    // IncPGen: mine only the r-hop neighborhood of the uncovered fraction.
    std::unordered_set<NodeId> region(uncovered.begin(), uncovered.end());
    for (NodeId v : uncovered) {
      InducedSubgraph nb = ExtractNeighborhood(gs, v, config_->stream_pgen_hops);
      for (NodeId orig : nb.original_nodes) region.insert(orig);
    }
    std::vector<NodeId> region_nodes(region.begin(), region.end());
    std::sort(region_nodes.begin(), region_nodes.end());
    auto region_sub = ExtractInducedSubgraph(gs, region_nodes);
    if (region_sub.ok()) {
      MinerOptions mopts = config_->miner;
      mopts.min_support = 1;
      std::vector<const Graph*> one{&region_sub.value().graph};
      auto mined = MinePatterns(one, mopts);
      // Greedily add new patterns until the uncovered fraction is covered.
      std::set<std::string> have;
      for (const Pattern& p : patterns_) have.insert(p.canonical_code());
      for (const auto& mp : mined) {
        if (have.count(mp.pattern.canonical_code())) continue;
        CoverageMask m =
            ComputeCoverage(PreparedGraph(mp.pattern.graph()), target, mo);
        bool helps = false;
        for (NodeId v : uncovered) {
          if (m.nodes[static_cast<size_t>(v)]) {
            helps = true;
            break;
          }
        }
        if (!helps) continue;
        patterns_.push_back(mp.pattern);
        have.insert(mp.pattern.canonical_code());
        MergeCoverage(m, &covered);
        uncovered.erase(std::remove_if(uncovered.begin(), uncovered.end(),
                                       [&](NodeId v) {
                                         return covered.nodes[static_cast<size_t>(v)];
                                       }),
                        uncovered.end());
        if (uncovered.empty()) break;
      }
    }
  }

  // Swap-out phase: drop patterns that no longer contribute coverage,
  // preferring to drop the one with the largest edge-miss weight.
  if (patterns_.size() > 1) {
    for (size_t i = 0; i < patterns_.size();) {
      std::vector<Pattern> others;
      for (size_t j = 0; j < patterns_.size(); ++j) {
        if (j != i) others.push_back(patterns_[j]);
      }
      CoverageMask without = ComputeCoverage(others, target, mo);
      if (without.AllNodes()) {
        patterns_.erase(patterns_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
}

void StreamGraphState::Finalize() {
  const CoverageBound& bound = config_->BoundFor(label_);
  // Backfill from V_u (highest standalone score first) to reach the lower
  // bound, mirroring Algorithm 1's lines 10-15.
  while (static_cast<int>(vs_.size()) < bound.lower && !vu_.empty()) {
    double best = -1.0;
    size_t best_idx = 0;
    for (size_t i = 0; i < vu_.size(); ++i) {
      std::vector<NodeId> with_v = vs_;
      with_v.push_back(vu_[i]);
      double gain = ScoreOf(with_v);
      if (gain > best) {
        best = gain;
        best_idx = i;
      }
    }
    NodeId v = vu_[best_idx];
    vu_.erase(vu_.begin() + static_cast<std::ptrdiff_t>(best_idx));
    in_vu_[static_cast<size_t>(v)] = false;
    if (!VpExtend(*model_, *g_, vs_, v, label_, *config_)) continue;
    vs_.push_back(v);
    in_vs_[static_cast<size_t>(v)] = true;
  }
  // Counterfactual repair over the seen fraction (see explain/repair.h).
  if (config_->counterfactual_repair && !vs_.empty()) {
    std::vector<NodeId> repaired = vs_;
    if (CounterfactualRepair(*model_, *g_, label_, bound,
                             config_->repair_budget, &repaired) ||
        repaired != vs_) {
      std::fill(in_vs_.begin(), in_vs_.end(), false);
      vs_ = std::move(repaired);
      for (NodeId v : vs_) in_vs_[static_cast<size_t>(v)] = true;
    }
  }
  if (!vs_.empty()) IncUpdateP();
}

Result<ExplanationSubgraph> StreamGraphState::Snapshot() const {
  if (vs_.empty()) {
    return Status::FailedPrecondition("no nodes selected yet");
  }
  ExplanationSubgraph out;
  out.graph_index = graph_index_;
  out.nodes = vs_;
  std::sort(out.nodes.begin(), out.nodes.end());
  auto sub = ExtractInducedSubgraph(*g_, out.nodes);
  if (!sub.ok()) return sub.status();
  out.subgraph = std::move(sub.value().graph);
  out.explainability = ScoreState::ScoreOfSet(ctx_, out.nodes);
  auto ev = EVerify(*model_, *g_, out.nodes, label_);
  if (ev.ok()) {
    out.consistent = ev.value().consistent;
    out.counterfactual = ev.value().counterfactual;
  }
  return out;
}

StreamGvex::StreamGvex(const GnnClassifier* model, Configuration config)
    : model_(model), config_(std::move(config)) {}

Result<StreamGvex::GraphResult> StreamGvex::ExplainGraphStreaming(
    const Graph& g, int graph_index, int label,
    const std::vector<NodeId>* order) const {
  GVEX_RETURN_NOT_OK(config_.Validate());
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot explain an empty graph");
  }
  StreamGraphState state(model_, &g, graph_index, label, &config_);
  if (order) {
    for (NodeId v : *order) state.ProcessNode(v);
  } else {
    for (NodeId v = 0; v < g.num_nodes(); ++v) state.ProcessNode(v);
  }
  state.Finalize();
  const CoverageBound& bound = config_.BoundFor(label);
  if (static_cast<int>(state.selected().size()) < bound.lower ||
      state.selected().empty()) {
    return Status::FailedPrecondition(
        StrFormat("stream produced no feasible explanation for graph %d",
                  graph_index));
  }
  auto snap = state.Snapshot();
  if (!snap.ok()) return snap.status();
  GraphResult out;
  out.subgraph = std::move(snap).value();
  out.patterns = state.patterns();
  return out;
}

namespace {

// Merges per-graph pattern sets, deduplicating by canonical code.
std::vector<Pattern> MergePatternSets(
    const std::vector<std::vector<Pattern>>& sets) {
  std::vector<Pattern> merged;
  std::set<std::string> seen;
  for (const auto& set : sets) {
    for (const Pattern& p : set) {
      if (seen.insert(p.canonical_code()).second) merged.push_back(p);
    }
  }
  return merged;
}

}  // namespace

Result<ExplanationView> StreamGvex::GenerateView(const GraphDatabase& db,
                                                 int label, int num_threads,
                                                 int* skipped) const {
  std::vector<int> group = db.LabelGroup(label);
  if (group.empty()) {
    return Status::NotFound(StrFormat("label group %d is empty", label));
  }
  std::vector<ExplanationSubgraph> subgraphs(group.size());
  std::vector<std::vector<Pattern>> pattern_sets(group.size());
  // char, not bool: vector<bool> is bit-packed, so concurrent writes to
  // neighboring slots from different workers would race on shared bytes.
  std::vector<char> ok_flags(group.size(), 0);

  // Batched shards (4x workers) over the label group; results land in
  // slot-indexed vectors, so output is identical for every worker count.
  ThreadPool::ParallelForShards(
      num_threads, num_threads * 4, static_cast<int>(group.size()),
      [&](const Shard& shard) {
        for (int gi = shard.begin; gi < shard.end; ++gi) {
          auto res =
              ExplainGraphStreaming(db.graph(group[static_cast<size_t>(gi)]),
                                    group[static_cast<size_t>(gi)], label);
          if (res.ok()) {
            subgraphs[static_cast<size_t>(gi)] = std::move(res.value().subgraph);
            pattern_sets[static_cast<size_t>(gi)] =
                std::move(res.value().patterns);
            ok_flags[static_cast<size_t>(gi)] = 1;
          }
        }
      });

  ExplanationView view;
  view.label = label;
  int skip_count = 0;
  for (size_t i = 0; i < subgraphs.size(); ++i) {
    if (ok_flags[i]) {
      view.subgraphs.push_back(std::move(subgraphs[i]));
    } else {
      ++skip_count;
      pattern_sets[i].clear();
    }
  }
  if (skipped) *skipped = skip_count;
  if (view.subgraphs.empty()) {
    return Status::FailedPrecondition(
        StrFormat("no feasible explanation subgraph for label %d", label));
  }
  view.patterns = MergePatternSets(pattern_sets);
  view.explainability = 0.0;
  for (const auto& s : view.subgraphs) view.explainability += s.explainability;
  return view;
}

Result<ExplanationView> StreamGvex::GenerateViewPartial(
    const GraphDatabase& db, int label, double fraction) const {
  if (fraction <= 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("fraction must be in (0, 1]");
  }
  std::vector<int> group = db.LabelGroup(label);
  if (group.empty()) {
    return Status::NotFound(StrFormat("label group %d is empty", label));
  }
  ExplanationView view;
  view.label = label;
  std::vector<std::vector<Pattern>> pattern_sets;
  for (int gidx : group) {
    const Graph& g = db.graph(gidx);
    if (g.num_nodes() == 0) continue;
    StreamGraphState state(model_, &g, gidx, label, &config_);
    const int limit = std::max(1, static_cast<int>(g.num_nodes() * fraction));
    for (NodeId v = 0; v < limit; ++v) state.ProcessNode(v);
    state.Finalize();
    auto snap = state.Snapshot();
    if (!snap.ok()) continue;
    view.subgraphs.push_back(std::move(snap).value());
    pattern_sets.push_back(state.patterns());
  }
  if (view.subgraphs.empty()) {
    return Status::FailedPrecondition(
        StrFormat("no feasible partial explanation for label %d", label));
  }
  view.patterns = MergePatternSets(pattern_sets);
  for (const auto& s : view.subgraphs) view.explainability += s.explainability;
  return view;
}

}  // namespace gvex
