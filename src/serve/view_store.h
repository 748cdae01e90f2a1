// The queryable view store (§1, Table 1): the historical single-threaded
// API over serve/pattern_index.h. Every query routes through the inverted
// index, so the answers the paper motivates ("which toxicophores occur in
// mutagens?", "which graphs contain pattern P?") are hash lookups + bitset
// walks instead of O(patterns x subgraphs) isomorphism scans; query
// patterns the index has not seen fall back to a containment scan through
// the candidate-filtered matcher (pattern/matcher.h).
//
// The original linear-scan store is kept as a test oracle
// (tests/oracle/legacy_view_store.h): the index is pinned bit-identical to
// it by the parity test in tests/serve/pattern_index_test.cpp, and the
// serving benchmark measures the index against it. New code should prefer
// serve/view_service.h (concurrent, snapshot-swapped, cached).
//
// Complexity: AddView only marks the index dirty; the O(codes x subgraphs
// + codes x database) cross-product is paid once, on the first query after
// a (batch of) registration(s). Queries are then O(1) lookups plus output
// size; see pattern_index.h.
//
// Thread-safety: AddView mutates the store and must be externally
// synchronized; once all views are registered, the const query methods are
// safe to call concurrently (the lazy rebuild is mutex-guarded, and the
// index is immutable once built).

#ifndef GVEX_SERVE_VIEW_STORE_H_
#define GVEX_SERVE_VIEW_STORE_H_

#include <map>
#include <mutex>
#include <vector>

#include "explain/explanation.h"
#include "graph/graph_database.h"
#include "pattern/matcher.h"
#include "pattern/pattern.h"
#include "serve/pattern_index.h"

namespace gvex {

/// Store behavior knobs.
struct ViewStoreOptions {
  /// Workers used for index rebuilds (identical result for any count).
  int build_threads = 1;
};

/// Indexes a set of explanation views for direct querying.
class ViewStore {
 public:
  /// `db` must outlive the store; views are copied in.
  explicit ViewStore(const GraphDatabase* db, ViewStoreOptions options = {});

  /// Registers a view (one per label); the index is rebuilt lazily on the
  /// next query.
  void AddView(ExplanationView view);

  /// Labels that have a registered view.
  std::vector<int> Labels() const;

  /// "Which patterns explain label l?" — the higher tier of l's view.
  const std::vector<Pattern>& PatternsForLabel(int label) const;

  /// "Which graphs of label group l contain pattern P (in their explanation
  /// subgraph)?" Returns database graph indices.
  std::vector<int> GraphsWithPattern(int label, const Pattern& p) const;

  /// "Which labels does pattern P explain?" — labels whose pattern tier
  /// contains an isomorphic pattern.
  std::vector<int> LabelsOfPattern(const Pattern& p) const;

  /// "Which *original* graphs in the database contain P?" — full-data
  /// pattern query, restricted to `label` (-1 = all graphs).
  std::vector<int> DatabaseGraphsWithPattern(const Pattern& p,
                                             int label = -1) const;

  /// Discriminative patterns for `label`: patterns of l's view that match no
  /// explanation subgraph of any other label (the P12-style structures of
  /// Example 1.1).
  std::vector<Pattern> DiscriminativePatterns(int label) const;

  /// The backing index, built on demand.
  const PatternIndex& index() const;

 private:
  /// Rebuilds the index if a registration dirtied it; returns it.
  const PatternIndex& EnsureIndex() const;

  const GraphDatabase* db_;
  ViewStoreOptions options_;
  std::map<int, ExplanationView> views_;
  MatchOptions match_options_;
  mutable std::mutex index_mu_;
  mutable bool index_dirty_ = true;
  mutable PatternIndex index_;
};

}  // namespace gvex

#endif  // GVEX_SERVE_VIEW_STORE_H_
