#include "pattern/coverage.h"

#include <algorithm>
#include <cassert>

namespace gvex {

namespace {

CoverageMask EmptyMask(const Graph& g) {
  CoverageMask mask;
  mask.nodes.assign(static_cast<size_t>(g.num_nodes()), false);
  mask.edges.assign(static_cast<size_t>(g.num_edges()), false);
  return mask;
}

}  // namespace

int CoverageMask::CountNodes() const {
  return static_cast<int>(std::count(nodes.begin(), nodes.end(), true));
}

int CoverageMask::CountEdges() const {
  return static_cast<int>(std::count(edges.begin(), edges.end(), true));
}

bool CoverageMask::AllNodes() const {
  return std::all_of(nodes.begin(), nodes.end(), [](bool b) { return b; });
}

CoverageMask ComputeCoverage(const Pattern& pattern, const Graph& g,
                             const MatchOptions& options) {
  return ComputeCoverage(PreparedGraph(pattern.graph()), PreparedGraph(g),
                         options);
}

CoverageMask ComputeCoverage(const PreparedGraph& pattern,
                             const PreparedGraph& g,
                             const MatchOptions& options) {
  CoverageMask mask = EmptyMask(g.graph());
  MarkEmbeddingUnion(pattern, g, options, &mask.nodes, &mask.edges);
  return mask;
}

CoverageMask ComputeCoverage(const std::vector<Pattern>& patterns,
                             const Graph& g, const MatchOptions& options) {
  return ComputeCoverage(patterns, PreparedGraph(g), options);
}

CoverageMask ComputeCoverage(const std::vector<Pattern>& patterns,
                             const PreparedGraph& g,
                             const MatchOptions& options) {
  CoverageMask total = EmptyMask(g.graph());
  for (const Pattern& p : patterns) {
    MarkEmbeddingUnion(PreparedGraph(p.graph()), g, options, &total.nodes,
                       &total.edges);
  }
  return total;
}

void MergeCoverage(const CoverageMask& other, CoverageMask* base) {
  assert(other.nodes.size() == base->nodes.size());
  assert(other.edges.size() == base->edges.size());
  for (size_t i = 0; i < other.nodes.size(); ++i) {
    if (other.nodes[i]) base->nodes[i] = true;
  }
  for (size_t i = 0; i < other.edges.size(); ++i) {
    if (other.edges[i]) base->edges[i] = true;
  }
}

bool PatternsCoverAllNodes(const std::vector<Pattern>& patterns,
                           const std::vector<const Graph*>& graphs,
                           const MatchOptions& options) {
  for (const Graph* g : graphs) {
    if (g->num_nodes() == 0) continue;
    CoverageMask m = ComputeCoverage(patterns, *g, options);
    if (!m.AllNodes()) return false;
  }
  return true;
}

}  // namespace gvex
