// Test oracle: the blind VF2-style backtracker the production matcher
// (pattern/matcher.h) is pinned to, and coverage computed the original way
// from its match list. Not linked into any library under src/.
//
// FindMatches starts backtracking with every target node a candidate for
// every pattern node and checks node type, out-degree, and consistency with
// the mapped nodes as each node is tried (node-type, edge-type, and degree
// pruning). A directed pattern edge may map onto a target edge of either
// orientation; a target pair joined in both orientations is reached twice,
// so the same mapping can be emitted twice on directed graphs. Supports
// induced semantics (non-edges of the pattern must map to non-edges — the
// paper's "node-induced subgraph isomorphism") and plain subgraph
// semantics.

#ifndef GVEX_TESTS_ORACLE_BLIND_MATCHER_H_
#define GVEX_TESTS_ORACLE_BLIND_MATCHER_H_

#include <vector>

#include "graph/graph.h"
#include "pattern/coverage.h"
#include "pattern/matcher.h"
#include "pattern/pattern.h"

namespace gvex {
namespace oracle {

/// Enumerates matches of `pattern` into `target`, stopping after
/// options.max_matches (0 = all) or options.max_steps.
std::vector<Match> FindMatches(const Graph& pattern, const Graph& target,
                               const MatchOptions& options = {});

/// True iff at least one match exists (early-exit search).
bool ContainsPattern(const Graph& target, const Graph& pattern,
                     const MatchOptions& options = {});

/// Full graph isomorphism test (same node count + induced matching).
bool GraphsIsomorphic(const Graph& a, const Graph& b);

/// Coverage as the union over FindMatches(pattern, g, options): every
/// matched node, and for every matched pattern edge the first edge of `g`
/// joining its endpoints (either orientation). Capped by
/// options.max_matches, so pass max_matches = 0 for the exact union.
CoverageMask BlindCoverage(const Pattern& pattern, const Graph& g,
                           const MatchOptions& options = {});

}  // namespace oracle
}  // namespace gvex

#endif  // GVEX_TESTS_ORACLE_BLIND_MATCHER_H_
