// Test oracle: the original queryable view store (§1, Table 1), answering
// every query with a linear scan — one blind containment check
// (oracle/blind_matcher.h) per (pattern, graph) pair. The serving index
// (serve/pattern_index.h, behind serve/view_store.h and
// serve/view_service.h) is pinned bit-identical to it by the parity suites,
// and bench_serving_throughput times the index against it. Not linked into
// any library under src/.
//
// Thread-safety: AddView must be externally synchronized; the const query
// methods are safe to call concurrently.

#ifndef GVEX_TESTS_ORACLE_LEGACY_VIEW_STORE_H_
#define GVEX_TESTS_ORACLE_LEGACY_VIEW_STORE_H_

#include <map>
#include <vector>

#include "explain/explanation.h"
#include "graph/graph_database.h"
#include "pattern/matcher.h"
#include "pattern/pattern.h"

namespace gvex {
namespace oracle {

class LegacyViewStore {
 public:
  /// `db` must outlive the store; views are copied in.
  explicit LegacyViewStore(const GraphDatabase* db);

  /// Registers a view (one per label).
  void AddView(ExplanationView view);

  /// Labels that have a registered view.
  std::vector<int> Labels() const;

  /// The pattern tier of `label`'s view.
  const std::vector<Pattern>& PatternsForLabel(int label) const;

  /// Graph indices of `label`'s explanation subgraphs that contain `p`.
  std::vector<int> GraphsWithPattern(int label, const Pattern& p) const;

  /// Labels whose pattern tier holds a pattern isomorphic to `p`.
  std::vector<int> LabelsOfPattern(const Pattern& p) const;

  /// Database graphs containing `p`, restricted to `label` (-1 = all).
  std::vector<int> DatabaseGraphsWithPattern(const Pattern& p,
                                             int label = -1) const;

  /// Patterns of `label`'s view that match no explanation subgraph of any
  /// other label.
  std::vector<Pattern> DiscriminativePatterns(int label) const;

 private:
  const GraphDatabase* db_;
  std::map<int, ExplanationView> views_;
  MatchOptions match_options_;
};

}  // namespace oracle
}  // namespace gvex

#endif  // GVEX_TESTS_ORACLE_LEGACY_VIEW_STORE_H_
