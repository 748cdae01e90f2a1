#include "pattern/gspan.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "pattern/canonical.h"
#include "pattern/matcher.h"

namespace gvex {

namespace {

// Support counting with a fixed semantics (non-induced during growth keeps
// the anti-monotone property; induced matching can gain matches as patterns
// grow, which would break pruning).
int CountSupport(const Graph& pattern,
                 const std::vector<PreparedGraph>& graphs,
                 MatchSemantics semantics, int min_needed) {
  MatchOptions opt;
  opt.semantics = semantics;
  const PreparedGraph prepared(pattern);
  int support = 0;
  const int remaining_possible = static_cast<int>(graphs.size());
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    if (support + (remaining_possible - static_cast<int>(gi)) < min_needed) {
      return support;  // cannot reach min_support anymore
    }
    if (FilteredContainsPattern(graphs[gi], prepared, opt)) ++support;
  }
  return support;
}

// Edge vocabulary (from_type, to_type, edge_type) present in the data.
struct EdgeRule {
  int a_type;
  int b_type;
  int edge_type;
};

std::vector<EdgeRule> CollectRules(const std::vector<const Graph*>& graphs) {
  std::set<std::tuple<int, int, int>> seen;
  for (const Graph* g : graphs) {
    for (const Edge& e : g->edges()) {
      seen.insert({g->node_type(e.u), g->node_type(e.v), e.edge_type});
      seen.insert({g->node_type(e.v), g->node_type(e.u), e.edge_type});
    }
  }
  std::vector<EdgeRule> rules;
  rules.reserve(seen.size());
  for (const auto& [a, b, t] : seen) rules.push_back({a, b, t});
  return rules;
}

}  // namespace

std::vector<MinedPattern> MineGspan(const std::vector<const Graph*>& graphs,
                                    const MinerOptions& options) {
  std::vector<MinedPattern> results;
  if (graphs.empty()) return results;

  const auto rules = CollectRules(graphs);
  const std::vector<PreparedGraph> prepared = PrepareGraphs(graphs);
  std::unordered_set<std::string> seen_codes;

  // Seeds: single-node patterns per type.
  std::set<int> types;
  for (const Graph* g : graphs) {
    for (NodeId v = 0; v < g->num_nodes(); ++v) types.insert(g->node_type(v));
  }
  std::vector<Graph> frontier;
  auto accept = [&](Graph candidate) -> bool {
    std::string code = CanonicalCode(candidate);
    if (seen_codes.count(code)) return false;
    // Anti-monotone support pruning under non-induced semantics.
    const int support = CountSupport(candidate, prepared,
                                     MatchSemantics::kNonInduced,
                                     options.min_support);
    if (support < options.min_support) return false;
    seen_codes.insert(std::move(code));
    auto pattern = Pattern::Create(std::move(candidate));
    if (!pattern.ok()) return false;
    MinedPattern mp;
    ComputeMinedStats(pattern.value().graph(), prepared, options.semantics,
                      &mp);
    if (mp.support < options.min_support) {
      // Frequent non-induced but infrequent induced: still extend (children
      // may be induced-frequent), just do not report it.
      mp.support = 0;
    }
    frontier.push_back(pattern.value().graph());
    if (mp.support >= options.min_support) {
      mp.pattern = std::move(pattern).value();
      results.push_back(std::move(mp));
    }
    return true;
  };

  for (int t : types) {
    Graph g;
    g.AddNode(t);
    (void)accept(std::move(g));
  }

  // DFS-style worklist over edge extensions.
  size_t head = 0;
  while (head < frontier.size()) {
    Graph base = frontier[head++];
    // Forward extensions: attach a new node via a vocabulary edge.
    if (base.num_nodes() < options.max_pattern_nodes) {
      for (NodeId anchor = 0; anchor < base.num_nodes(); ++anchor) {
        for (const EdgeRule& rule : rules) {
          if (base.node_type(anchor) != rule.a_type) continue;
          Graph cand = base;
          NodeId nv = cand.AddNode(rule.b_type);
          if (!cand.AddEdge(anchor, nv, rule.edge_type).ok()) continue;
          (void)accept(std::move(cand));
        }
      }
    }
    // Backward extensions: close a cycle between existing pattern nodes.
    for (NodeId u = 0; u < base.num_nodes(); ++u) {
      for (NodeId v = u + 1; v < base.num_nodes(); ++v) {
        if (base.HasEdge(u, v)) continue;
        for (const EdgeRule& rule : rules) {
          if (base.node_type(u) != rule.a_type ||
              base.node_type(v) != rule.b_type) {
            continue;
          }
          Graph cand = base;
          if (!cand.AddEdge(u, v, rule.edge_type).ok()) continue;
          (void)accept(std::move(cand));
        }
      }
    }
    // Worklist guard: cap the explored space.
    if (frontier.size() > 4096) break;
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

std::vector<MinedPattern> MineGspan(const std::vector<Graph>& graphs,
                                    const MinerOptions& options) {
  std::vector<const Graph*> ptrs;
  ptrs.reserve(graphs.size());
  for (const Graph& g : graphs) ptrs.push_back(&g);
  return MineGspan(ptrs, options);
}

}  // namespace gvex
