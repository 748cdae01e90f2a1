#include "serve/view_store.h"

#include <utility>

namespace gvex {

namespace {
const std::vector<Pattern> kEmptyPatterns;
}  // namespace

ViewStore::ViewStore(const GraphDatabase* db, ViewStoreOptions options)
    : db_(db), options_(options) {
  match_options_.semantics = MatchSemantics::kInduced;
}

void ViewStore::AddView(ExplanationView view) {
  views_[view.label] = std::move(view);
  index_dirty_ = true;
}

const PatternIndex& ViewStore::EnsureIndex() const {
  // Lazy rebuild: N registrations followed by the first query cost one
  // build, not N. AddView is externally synchronized (class contract), so
  // the mutex only has to order the rebuild against concurrent queries.
  std::lock_guard<std::mutex> lock(index_mu_);
  if (index_dirty_) {
    PatternIndex::BuildOptions build;
    build.match = match_options_;
    build.num_threads = options_.build_threads;
    // Even a view-less index must know the database so non-exact
    // DatabaseGraphsWithPattern queries can fall back to a matcher scan.
    index_ = PatternIndex::Build(views_, db_, build);
    index_dirty_ = false;
  }
  return index_;
}

const PatternIndex& ViewStore::index() const { return EnsureIndex(); }

std::vector<int> ViewStore::Labels() const {
  std::vector<int> out;
  out.reserve(views_.size());
  for (const auto& [label, view] : views_) out.push_back(label);
  return out;
}

const std::vector<Pattern>& ViewStore::PatternsForLabel(int label) const {
  auto it = views_.find(label);
  return it == views_.end() ? kEmptyPatterns : it->second.patterns;
}

std::vector<int> ViewStore::GraphsWithPattern(int label,
                                              const Pattern& p) const {
  return EnsureIndex().GraphsWithPattern(label, p);
}

std::vector<int> ViewStore::LabelsOfPattern(const Pattern& p) const {
  return EnsureIndex().LabelsOfPattern(p);
}

std::vector<int> ViewStore::DatabaseGraphsWithPattern(const Pattern& p,
                                                      int label) const {
  return EnsureIndex().DatabaseGraphsWithPattern(p, label);
}

std::vector<Pattern> ViewStore::DiscriminativePatterns(int label) const {
  return EnsureIndex().DiscriminativePatterns(label);
}

}  // namespace gvex
