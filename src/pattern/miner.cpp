#include "pattern/miner.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>

#include "pattern/canonical.h"
#include "pattern/coverage.h"
#include "pattern/gspan.h"

namespace gvex {

void ComputeMinedStats(const Graph& pattern,
                       const std::vector<PreparedGraph>& graphs,
                       MatchSemantics semantics, MinedPattern* out) {
  out->support = 0;
  out->covered_nodes = 0;
  out->covered_edges = 0;
  MatchOptions mopt;
  mopt.semantics = semantics;
  const PreparedGraph prepared(pattern);
  for (const PreparedGraph& g : graphs) {
    const CoverageMask mask = ComputeCoverage(prepared, g, mopt);
    const int nodes = mask.CountNodes();
    if (nodes == 0) continue;
    ++out->support;
    out->covered_nodes += nodes;
    out->covered_edges += mask.CountEdges();
  }
}

namespace {

// Generates extensions of `base` by one node, guided by edges that actually
// occur in the data graphs (type-pair vocabulary).
struct ExtensionRule {
  int from_type;   // type of the existing endpoint
  int new_type;    // type of the added node
  int edge_type;
};

std::vector<ExtensionRule> CollectExtensionRules(
    const std::vector<const Graph*>& graphs) {
  std::set<std::tuple<int, int, int>> seen;
  for (const Graph* g : graphs) {
    for (const Edge& e : g->edges()) {
      seen.insert({g->node_type(e.u), g->node_type(e.v), e.edge_type});
      seen.insert({g->node_type(e.v), g->node_type(e.u), e.edge_type});
    }
  }
  std::vector<ExtensionRule> rules;
  rules.reserve(seen.size());
  for (const auto& [a, b, t] : seen) rules.push_back({a, b, t});
  return rules;
}

}  // namespace

std::vector<MinedPattern> MinePatterns(const std::vector<const Graph*>& graphs,
                                       const MinerOptions& options) {
  if (options.engine == MinerEngine::kGspan) {
    return MineGspan(graphs, options);
  }
  std::vector<MinedPattern> results;
  if (graphs.empty()) return results;
  const std::vector<PreparedGraph> prepared = PrepareGraphs(graphs);

  // Level 1: single-node patterns for every node type in the data.
  std::set<int> types;
  for (const Graph* g : graphs) {
    for (NodeId v = 0; v < g->num_nodes(); ++v) types.insert(g->node_type(v));
  }
  std::unordered_set<std::string> seen_codes;
  std::vector<Pattern> frontier;
  for (int t : types) {
    Pattern p = Pattern::SingleNode(t);
    MinedPattern mp;
    ComputeMinedStats(p.graph(), prepared, options.semantics, &mp);
    if (mp.support < options.min_support) continue;
    mp.pattern = p;
    seen_codes.insert(p.canonical_code());
    results.push_back(mp);
    frontier.push_back(std::move(p));
  }

  const auto rules = CollectExtensionRules(graphs);

  // Level-wise growth.
  for (int level = 2; level <= options.max_pattern_nodes; ++level) {
    std::vector<Pattern> next_frontier;
    for (const Pattern& base : frontier) {
      const Graph& bg = base.graph();
      for (NodeId anchor = 0; anchor < bg.num_nodes(); ++anchor) {
        for (const ExtensionRule& rule : rules) {
          if (bg.node_type(anchor) != rule.from_type) continue;
          Graph cand = bg;
          NodeId nv = cand.AddNode(rule.new_type);
          if (!cand.AddEdge(anchor, nv, rule.edge_type).ok()) continue;
          auto pr = Pattern::Create(std::move(cand));
          if (!pr.ok()) continue;
          Pattern p = std::move(pr).value();
          if (seen_codes.count(p.canonical_code())) continue;
          seen_codes.insert(p.canonical_code());
          MinedPattern mp;
          ComputeMinedStats(p.graph(), prepared, options.semantics, &mp);
          if (mp.support < options.min_support) continue;
          mp.pattern = p;
          results.push_back(mp);
          next_frontier.push_back(std::move(p));
        }
      }
    }
    frontier = std::move(next_frontier);
    if (frontier.empty()) break;
  }

  if (options.min_pattern_nodes > 1) {
    results.erase(
        std::remove_if(results.begin(), results.end(),
                       [&](const MinedPattern& mp) {
                         return mp.pattern.num_nodes() <
                                options.min_pattern_nodes;
                       }),
        results.end());
  }
  std::sort(results.begin(), results.end(),
            [](const MinedPattern& a, const MinedPattern& b) {
              if (a.covered_nodes != b.covered_nodes) {
                return a.covered_nodes > b.covered_nodes;
              }
              if (a.pattern.num_nodes() != b.pattern.num_nodes()) {
                return a.pattern.num_nodes() < b.pattern.num_nodes();
              }
              return a.pattern.canonical_code() < b.pattern.canonical_code();
            });
  if (static_cast<int>(results.size()) > options.max_patterns) {
    results.resize(static_cast<size_t>(options.max_patterns));
  }
  return results;
}

std::vector<MinedPattern> MinePatterns(const std::vector<Graph>& graphs,
                                       const MinerOptions& options) {
  std::vector<const Graph*> ptrs;
  ptrs.reserve(graphs.size());
  for (const Graph& g : graphs) ptrs.push_back(&g);
  return MinePatterns(ptrs, options);
}

}  // namespace gvex
