// Frequent connected-pattern mining — the PGen operator of §4. A gSpan-style
// level-wise miner over a set of (small) explanation subgraphs: single-node
// patterns are grown one node at a time along edges present in the data,
// deduplicated by canonical code, and pruned by support (anti-monotone).
// MDL flavour: candidates are scored by how many data edges they describe,
// which Psum consumes as the weighted-set-cover weight.

#ifndef GVEX_PATTERN_MINER_H_
#define GVEX_PATTERN_MINER_H_

#include <vector>

#include "graph/graph.h"
#include "pattern/matcher.h"
#include "pattern/pattern.h"

namespace gvex {

/// Pattern-mining engine. kLevelWise grows patterns one pendant node at a
/// time (trees only; fast). kGspan additionally performs backward edge
/// extensions, so cyclic patterns (rings) are minable (see pattern/gspan.h).
enum class MinerEngine { kLevelWise, kGspan };

/// Mining knobs.
struct MinerOptions {
  MinerEngine engine = MinerEngine::kLevelWise;
  /// Minimum number of data graphs a pattern must occur in.
  int min_support = 1;
  /// Minimum pattern size (in nodes) to *report*. Smaller patterns are still
  /// grown internally; this filters the returned set (useful to surface
  /// motif-scale patterns on graphs with few node types, e.g. Fig. 11's
  /// star/biclique structures).
  int min_pattern_nodes = 1;
  /// Maximum pattern size in nodes.
  int max_pattern_nodes = 5;
  /// Maximum number of candidates returned (best-first by coverage).
  int max_patterns = 64;
  MatchSemantics semantics = MatchSemantics::kInduced;
};

/// A mined pattern with its support statistics over the input graphs.
struct MinedPattern {
  Pattern pattern;
  int support = 0;          // number of input graphs containing it
  int covered_nodes = 0;    // distinct data nodes covered across all inputs
  int covered_edges = 0;    // distinct data edges covered across all inputs
};

/// Support and coverage of `pattern` over `graphs` under `semantics`: the
/// statistics both miners report. Coverage is the exact union of all
/// embeddings (pattern/coverage.h).
void ComputeMinedStats(const Graph& pattern,
                       const std::vector<PreparedGraph>& graphs,
                       MatchSemantics semantics, MinedPattern* out);

/// Mines frequent connected patterns from `graphs`. Deterministic order:
/// descending covered_nodes, then fewer pattern nodes, then canonical code.
std::vector<MinedPattern> MinePatterns(const std::vector<const Graph*>& graphs,
                                       const MinerOptions& options = {});

/// Convenience overload for owned graphs.
std::vector<MinedPattern> MinePatterns(const std::vector<Graph>& graphs,
                                       const MinerOptions& options = {});

}  // namespace gvex

#endif  // GVEX_PATTERN_MINER_H_
