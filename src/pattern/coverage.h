// Node/edge coverage of graphs by pattern sets — the bookkeeping behind
// constraint C1/C3 verification, Psum's weighted set cover, the miners'
// statistics, and the Compression / Edge-loss metrics of §6. Coverage is
// the exact union of all embeddings (pattern/matcher.h
// MarkEmbeddingUnion): it does not depend on enumeration order or on
// MatchOptions::max_matches.
//
// Cost: MatchOptions::max_steps bounds each search of a coverage call, not
// the call. One call runs up to 1 + |V(g)| * |V(P)| + 2 * |E(g)| * |E(P)|
// pinned searches, so its worst case is that many times max_steps. A
// pinned search that runs out of budget counts as "no embedding": coverage
// can then only under-report, never mark a node or edge no embedding hits.

#ifndef GVEX_PATTERN_COVERAGE_H_
#define GVEX_PATTERN_COVERAGE_H_

#include <vector>

#include "graph/graph.h"
#include "pattern/matcher.h"
#include "pattern/pattern.h"

namespace gvex {

/// Which nodes/edges of one graph a pattern (set) covers. Edge flags align
/// with graph.edges() order; a pair joined in both orientations is covered
/// as its first edge.
struct CoverageMask {
  std::vector<bool> nodes;
  std::vector<bool> edges;

  int CountNodes() const;
  int CountEdges() const;
  bool AllNodes() const;
};

/// Coverage of `g` by one pattern (union over all matches).
CoverageMask ComputeCoverage(const Pattern& pattern, const Graph& g,
                             const MatchOptions& options = {});

/// The same on prepared graphs, for callers that match many patterns
/// against the same graphs.
CoverageMask ComputeCoverage(const PreparedGraph& pattern,
                             const PreparedGraph& g,
                             const MatchOptions& options = {});

/// Coverage of `g` by a set of patterns (union).
CoverageMask ComputeCoverage(const std::vector<Pattern>& patterns,
                             const Graph& g,
                             const MatchOptions& options = {});
CoverageMask ComputeCoverage(const std::vector<Pattern>& patterns,
                             const PreparedGraph& g,
                             const MatchOptions& options = {});

/// Merges `other` into `base` (logical or); shapes must agree.
void MergeCoverage(const CoverageMask& other, CoverageMask* base);

/// True iff `patterns` cover every node of every graph — the graph-view
/// invariant ("P covers all the nodes in G_s", §2.1).
bool PatternsCoverAllNodes(const std::vector<Pattern>& patterns,
                           const std::vector<const Graph*>& graphs,
                           const MatchOptions& options = {});

}  // namespace gvex

#endif  // GVEX_PATTERN_COVERAGE_H_
