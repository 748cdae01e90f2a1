// Inverted pattern index over a set of explanation views — the read path of
// the serving subsystem. The legacy ViewStore answered every pattern query
// with a linear scan running one subgraph-isomorphism check per
// (pattern, graph) pair; the index pays that cross-product ONCE at build
// time and turns the queries themselves into hash lookups + bitset walks:
//
//   * postings keyed by Pattern::canonical_code(): which labels carry the
//     code in their view tier (and at which tier position), and which
//     database graphs contain the pattern;
//   * per-(code, label) coverage bitsets over the label's explanation
//     subgraphs, so GraphsWithPattern and DiscriminativePatterns reduce to
//     bitset iteration / emptiness checks. All bitset walks run on the
//     word-level kernels of util/bitops.h (ctz iteration, wide AND/ANDNOT/
//     emptiness), and GraphsWithAllPatterns batches a multi-pattern
//     conjunction into ONE accumulator pass over the postings instead of
//     one walk per pattern.
//
// Matching is kept only as a fallback for query patterns whose canonical
// code is not in the index (non-exact containment queries) — those still
// scan, through the candidate-filtered matcher (pattern/matcher.h); the
// answers are bit-identical to the legacy blind scan kept as a test oracle
// (tests/oracle/legacy_view_store.h, pinned by the parity suites).
// Fallback scans and inconsistent postings (a known code missing its
// per-label bitset — possible only with a logically corrupt snapshot) are
// counted in stats() and the latter is logged loudly; both still return
// the correct answer via the scan.
//
// Complexity: Build is O(codes x (total subgraphs + database size)) pattern
// matches, shardable across a thread pool (deterministic result for every
// worker count). Indexed queries are O(1) lookups plus output size;
// DiscriminativePatterns is O(|tier| x labels) bitset-emptiness checks.
//
// Thread-safety: immutable after Build; all const methods are safe to call
// concurrently. Treat instances as snapshots — never mutated in place.

#ifndef GVEX_SERVE_PATTERN_INDEX_H_
#define GVEX_SERVE_PATTERN_INDEX_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "explain/explanation.h"
#include "graph/graph_database.h"
#include "pattern/matcher.h"
#include "pattern/pattern.h"
#include "store/snapshot.h"

namespace gvex {

/// Postings for one canonical pattern code.
struct PatternPostings {
  /// Labels whose view tier contains this code, ascending.
  std::vector<int> labels;
  /// label -> position of the code in that view's pattern tier.
  std::map<int, int> tier_position;
  /// label -> bitset (64-bit words) over the label view's subgraph list;
  /// bit i is set iff subgraphs[i].subgraph contains the pattern. Computed
  /// for EVERY indexed label, not just the ones carrying the code, so
  /// discriminative queries never fall back to isomorphism. Shared with
  /// snapshot export/import (StoredPostings carries the same pointer), so
  /// Save() copies pointers, not bitset words.
  CoverageBitsPtr subgraph_bits;
  /// Database graph indices containing the pattern, ascending (empty when
  /// database indexing is disabled or no database was supplied).
  std::vector<int> db_graphs;
};

/// Observability counters for one index instance. Queries mutate them
/// through an atomic so the index itself stays logically immutable (and
/// every const method stays safe to call concurrently).
struct IndexStats {
  /// Queries whose code was not indexed — answered by a filtered
  /// containment scan (the expected slow path for non-exact patterns).
  std::atomic<uint64_t> fallback_scans{0};
  /// Known code but no bitset for the queried label. This is an
  /// inconsistent snapshot state (build computes bits for every label); it
  /// is logged loudly, counted here, and answered by a scan.
  std::atomic<uint64_t> inconsistent_postings{0};
  /// Fallback containment checks refuted by candidate filtering alone
  /// (zero backtracking steps) — the matcher's fast-reject rate.
  std::atomic<uint64_t> filtered_rejects{0};
};

/// Immutable inverted index over the pattern tiers of a view set.
class PatternIndex {
 public:
  struct BuildOptions {
    /// Match semantics for containment checks; must equal the legacy
    /// store's options for bit-identical answers (induced by default).
    MatchOptions match;
    /// Precompute db_graphs postings (full-database pattern queries become
    /// lookups at the cost of |codes| x |db| matches at build time).
    bool index_database = true;
    /// Workers for the build; the result is identical for every count.
    int num_threads = 1;
    BuildOptions() { match.semantics = MatchSemantics::kInduced; }
  };

  /// An empty index (no views, no database).
  PatternIndex() = default;

  /// Builds the index over `views` (keyed by label). `db` may be null and
  /// must outlive the index when given; views are shared via the pointer.
  static PatternIndex Build(
      std::shared_ptr<const std::map<int, ExplanationView>> views,
      const GraphDatabase* db, const BuildOptions& options = {});

  /// Convenience overload copying the map.
  static PatternIndex Build(const std::map<int, ExplanationView>& views,
                            const GraphDatabase* db,
                            const BuildOptions& options = {});

  // --- Snapshot persistence (store/snapshot.h) ---

  /// Exports every posting in ascending code order (deterministic snapshot
  /// bytes for identical state).
  std::vector<StoredPostings> ExportPostings() const;

  /// Reassembles an index from exported postings WITHOUT any isomorphism
  /// work — the warm-start path of ViewService::Open. The caller must
  /// supply the views/database the postings were computed over; `match`
  /// and `database_indexed` come from the snapshot so fallback queries
  /// behave exactly like the index that was saved. Answers are
  /// bit-identical to the original (pinned by the snapshot parity test).
  static PatternIndex FromStored(
      std::shared_ptr<const std::map<int, ExplanationView>> views,
      const GraphDatabase* db, const MatchOptions& match,
      bool database_indexed, const std::vector<StoredPostings>& postings);

  // --- Queries. Each is bit-identical to the legacy ViewStore scan (see
  // serve/view_store.h and the oracle parity test). ---

  /// Labels that have a registered view, ascending.
  std::vector<int> Labels() const;

  /// The pattern tier of `label`'s view (empty when absent).
  const std::vector<Pattern>& PatternsForLabel(int label) const;

  /// Graphs of label group `label` whose explanation subgraph contains `p`.
  /// Indexed when p's code is known; filtered-matcher scan fallback
  /// otherwise.
  std::vector<int> GraphsWithPattern(int label, const Pattern& p) const;

  /// Graphs of label group `label` whose explanation subgraph contains ALL
  /// of `patterns` — equal to intersecting GraphsWithPattern answers, but
  /// computed as ONE bitset-AND accumulator pass across the postings
  /// (indexed codes narrow the accumulator word-wise first; any
  /// fallback-scan patterns only check subgraphs still in the
  /// accumulator). Empty `patterns` returns every graph of the label.
  std::vector<int> GraphsWithAllPatterns(
      int label, const std::vector<Pattern>& patterns) const;

  /// Labels whose pattern tier contains a pattern isomorphic to `p`.
  /// Always a pure hash lookup (tier membership is exact code equality).
  std::vector<int> LabelsOfPattern(const Pattern& p) const;

  /// Database graphs containing `p`, restricted to `label` (-1 = all).
  /// Indexed when p's code is known and the database was indexed.
  std::vector<int> DatabaseGraphsWithPattern(const Pattern& p,
                                             int label = -1) const;

  /// Patterns of `label`'s tier matching no explanation subgraph of any
  /// other label — pure bitset-emptiness checks, no isomorphism.
  std::vector<Pattern> DiscriminativePatterns(int label) const;

  /// Postings lookup by canonical code (null when unknown).
  const PatternPostings* Find(const std::string& code) const;

  int num_codes() const { return static_cast<int>(postings_.size()); }
  bool empty() const { return views_ == nullptr || views_->empty(); }
  const std::map<int, ExplanationView>& views() const;
  const MatchOptions& match_options() const { return match_; }
  bool database_indexed() const { return database_indexed_; }
  /// Query-path counters (shared across copies of this snapshot's index).
  const IndexStats& stats() const { return *stats_; }

 private:
  bool SubgraphContains(const Graph& subgraph, const Pattern& p) const;

  std::shared_ptr<const std::map<int, ExplanationView>> views_;
  const GraphDatabase* db_ = nullptr;
  MatchOptions match_;
  bool database_indexed_ = false;
  std::unordered_map<std::string, PatternPostings> postings_;
  // Behind a pointer so the index stays cheaply movable/copyable and const
  // query methods can count.
  std::shared_ptr<IndexStats> stats_ = std::make_shared<IndexStats>();
};

}  // namespace gvex

#endif  // GVEX_SERVE_PATTERN_INDEX_H_
