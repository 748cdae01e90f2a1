// Candidate-filtered subgraph matching — the PMatch primitive of §4 and the
// one matcher behind coverage (C1/C3, Psum's set cover), both miners'
// support counting, and the serving index.
//
// Backtracking that starts with every target node a candidate for every
// pattern node checks type and degree only when a node is tried. This
// matcher instead computes an Ullmann-style per-node CANDIDATE SET first —
// target nodes matching the pattern node's type, degree lower bound, and
// neighborhood signature (per (neighbor type, edge type) counts; directed
// graphs use the symmetric closure and neighbor types only, because a
// directed pattern edge may map onto a target edge of either orientation)
// — and refines the sets to a fixpoint: a candidate survives only if every
// pattern neighbor still has a candidate among its target neighbors. Most
// non-matching queries die right there (some pattern node ends up with no
// candidates) without a single backtracking step; matching queries
// backtrack over the surviving candidates only, in a
// most-constrained-first order. Candidate sets are bitsets over target
// nodes, so refinement and membership run on the word-level kernels of
// util/bitops.h.
//
// The filters are SOUND overapproximations for both induced and
// non-induced semantics: any target node that appears in some match always
// survives filtering. The match set is pinned equal to the blind VF2
// backtracker's (an oracle under tests/oracle/) by the randomized parity
// suite in tests/pattern/matcher_test.cpp; each match is returned once.
// ContainsPattern-style entry points treat an exhausted
// MatchOptions::max_steps as "no match"; the *Budgeted entry point reports
// it as an explicit kUnknown instead — a sound "don't know", never a wrong
// yes or no.
//
// Everything the filter and the search read about a graph — incident
// neighbor lists with per-pair edge types, neighbor signatures, adjacency
// bitsets — lives in a PreparedGraph (O(n^2 / 8 + |E|) bytes). Callers that match many patterns
// against the same graphs (Psum, the miners, the index build) prepare each
// graph once and reuse it; the Graph overloads prepare per call.
//
// MarkEmbeddingUnion computes the exact union of all embeddings — every
// target node and edge some embedding hits — without enumerating the
// embeddings: one early-exit search per still-uncovered node, then per
// still-uncovered edge, with that node or edge pinned. The result depends
// neither on enumeration order nor on a match cap.
//
// MaxCommonSubgraph is a McSplit-style branch-and-bound search for the
// maximum common node-induced subgraph of two graphs (label classes +
// soft bound, min_max branching), with a step budget that turns it into an
// anytime/approximate search: when the budget runs out the best mapping
// found so far is returned with exact = false. It backs the `mcs` serve
// verb (approximate pattern queries over the view store).
//
// Thread-safety: all functions are pure (no shared state), and a
// PreparedGraph is immutable once built; safe to call concurrently.

#ifndef GVEX_PATTERN_MATCHER_H_
#define GVEX_PATTERN_MATCHER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace gvex {

/// Matching semantics for pattern edges.
enum class MatchSemantics {
  kInduced,     // edge in P <=> edge in G between mapped nodes
  kNonInduced,  // edge in P  => edge in G
};

/// Options bounding a matching run.
struct MatchOptions {
  MatchSemantics semantics = MatchSemantics::kInduced;
  /// Stop after this many matches (0 = unlimited). Bounds
  /// FilteredFindMatches only; containment and coverage never enumerate.
  int max_matches = 4096;
  /// Backtracking-step budget per search; guards worst cases
  /// (0 = unlimited).
  int64_t max_steps = 10'000'000;
};

/// One match: match[i] is the data-graph node that pattern node i maps to.
using Match = std::vector<NodeId>;

/// Tri-state answer for budgeted containment.
enum class MatchVerdict {
  kNoMatch,  ///< the full space was searched; no match exists
  kMatch,    ///< a match was found
  kUnknown,  ///< budget exhausted before either could be proven
};

/// Observability counters for one matcher run.
struct MatcherStats {
  /// True when filtering alone refuted the query (no backtracking ran).
  bool filtered_out = false;
  /// Total surviving candidates across pattern nodes (after refinement).
  uint64_t candidates = 0;
  /// Backtracking steps spent.
  uint64_t steps = 0;
};

namespace matcher_internal {
class FilteredMatcher;
}  // namespace matcher_internal

/// The matcher's tables for one graph, built once and reused by every run
/// against it, as pattern or as target. Keeps a pointer to `graph`, which
/// must outlive it.
class PreparedGraph {
 public:
  explicit PreparedGraph(const Graph& graph);

  const Graph& graph() const { return *graph_; }

 private:
  friend class matcher_internal::FilteredMatcher;

  int IncidentCount(NodeId v) const {
    return inc_off_[static_cast<size_t>(v) + 1] -
           inc_off_[static_cast<size_t>(v)];
  }
  const uint64_t* AdjRow(NodeId v) const {
    return adj_.data() + static_cast<size_t>(v) * words_;
  }
  bool Adjacent(NodeId u, NodeId v) const;
  // Position of v in u's incident list (-1 when not adjacent).
  int FindIncident(NodeId u, NodeId v) const;
  // Type of the edge u-v seen from u: EdgeType(u, v) when that is >= 0,
  // else EdgeType(v, u); -1 when not adjacent.
  int PairType(NodeId u, NodeId v) const;
  // Index in graph().edges() of the first edge joining u and v, either
  // orientation (-1 when none).
  int PairEdge(NodeId u, NodeId v) const;

  const Graph* graph_;
  size_t words_ = 0;  // 64-bit words per node bitset
  // Distinct incident neighbors per node (both orientations), ascending,
  // in CSR form; per entry the first joining edge, the orientations
  // present (bit 0: node->neighbor, bit 1: neighbor->node) and the
  // PairType seen from the node.
  std::vector<int> inc_off_;
  std::vector<NodeId> inc_;
  std::vector<int> inc_edge_;
  std::vector<uint8_t> inc_dir_;
  std::vector<int> inc_type_;
  // Per-node neighbor signature, CSR: sorted packed (neighbor type, edge
  // type) keys with their counts.
  std::vector<int> sig_off_;
  std::vector<uint64_t> sig_key_;
  std::vector<int> sig_count_;
  std::vector<uint64_t> adj_;    // n x words_, symmetric closure
  std::vector<NodeId> by_type_;  // node ids sorted by (type, id)
};

/// Prepares each of `graphs`, in order.
std::vector<PreparedGraph> PrepareGraphs(
    const std::vector<const Graph*>& graphs);

/// Computes refined per-node candidate sets: (*candidates)[pv] lists the
/// target nodes that survive the label + degree + neighborhood-signature
/// filter and Ullmann refinement, ascending. Returns false when some
/// pattern node has NO candidates — no match can exist (the sets are then
/// incomplete). Every node of every match survives, for both semantics.
bool BuildCandidateSets(const Graph& pattern, const Graph& target,
                        std::vector<std::vector<NodeId>>* candidates);

/// Enumerates the matches of `pattern` into `target`, each exactly once,
/// up to MatchOptions::max_matches.
std::vector<Match> FilteredFindMatches(const Graph& pattern,
                                       const Graph& target,
                                       const MatchOptions& options = {},
                                       MatcherStats* stats = nullptr);

/// True iff at least one match exists (early exit; budget exhaustion
/// answers false).
bool FilteredContainsPattern(const Graph& target, const Graph& pattern,
                             const MatchOptions& options = {},
                             MatcherStats* stats = nullptr);
bool FilteredContainsPattern(const PreparedGraph& target,
                             const PreparedGraph& pattern,
                             const MatchOptions& options = {},
                             MatcherStats* stats = nullptr);

/// Budget-honest containment: kUnknown when MatchOptions::max_steps ran
/// out before a match was found or the space was exhausted.
MatchVerdict FilteredContainsPatternBudgeted(const Graph& target,
                                             const Graph& pattern,
                                             const MatchOptions& options = {},
                                             MatcherStats* stats = nullptr);

/// Exact union of the embeddings of `pattern` into `target`: sets
/// (*nodes)[v] for every target node and (*edges)[e] for every target edge
/// that at least one embedding hits (flags already set stay set). A pair
/// joined in both orientations counts once, as the first of its edges in
/// target.graph().edges(). `nodes`/`edges` must be sized to the target's
/// node and edge counts. MatchOptions::max_matches does not apply;
/// max_steps bounds each pinned search separately, so it does not bound
/// the call (see pattern/coverage.h); a search that exhausts it marks
/// nothing.
void MarkEmbeddingUnion(const PreparedGraph& pattern,
                        const PreparedGraph& target,
                        const MatchOptions& options, std::vector<bool>* nodes,
                        std::vector<bool>* edges,
                        MatcherStats* stats = nullptr);

/// Budget for MaxCommonSubgraph.
struct McsOptions {
  /// Branch-and-bound nodes explored before giving up (0 = unlimited).
  /// An exhausted budget downgrades the result to exact = false.
  int64_t max_steps = 2'000'000;
  /// Stop early once a common subgraph of this size is found (0 = run to
  /// the optimum / budget). Lets callers ask "do these share >= k nodes?".
  int target_size = 0;
};

/// A (possibly budget-truncated) maximum common subgraph.
struct McsResult {
  /// Nodes in the best common induced subgraph found.
  int size = 0;
  /// True when the search proved optimality (budget did not bind and no
  /// target_size early-exit fired); false = `size` is a lower bound.
  bool exact = true;
  /// The witness mapping, (node in a, node in b) pairs, a-side ascending.
  std::vector<std::pair<NodeId, NodeId>> mapping;
  /// Branch-and-bound nodes explored.
  int64_t steps = 0;
};

/// McSplit-style maximum common node-induced subgraph of `a` and `b`:
/// node types must agree pairwise and mapped edges must agree in presence
/// AND edge type (non-edges map to non-edges — induced).
McsResult MaxCommonSubgraph(const Graph& a, const Graph& b,
                            const McsOptions& options = {});

}  // namespace gvex

#endif  // GVEX_PATTERN_MATCHER_H_
