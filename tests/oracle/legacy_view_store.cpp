#include "oracle/legacy_view_store.h"

#include <utility>

#include "oracle/blind_matcher.h"

namespace gvex {
namespace oracle {

namespace {
const std::vector<Pattern> kEmptyPatterns;
}  // namespace

LegacyViewStore::LegacyViewStore(const GraphDatabase* db) : db_(db) {
  match_options_.semantics = MatchSemantics::kInduced;
}

void LegacyViewStore::AddView(ExplanationView view) {
  views_[view.label] = std::move(view);
}

std::vector<int> LegacyViewStore::Labels() const {
  std::vector<int> out;
  out.reserve(views_.size());
  for (const auto& [label, view] : views_) out.push_back(label);
  return out;
}

const std::vector<Pattern>& LegacyViewStore::PatternsForLabel(
    int label) const {
  auto it = views_.find(label);
  return it == views_.end() ? kEmptyPatterns : it->second.patterns;
}

std::vector<int> LegacyViewStore::GraphsWithPattern(int label,
                                                    const Pattern& p) const {
  std::vector<int> out;
  auto it = views_.find(label);
  if (it == views_.end()) return out;
  for (const auto& s : it->second.subgraphs) {
    if (ContainsPattern(s.subgraph, p.graph(), match_options_)) {
      out.push_back(s.graph_index);
    }
  }
  return out;
}

std::vector<int> LegacyViewStore::LabelsOfPattern(const Pattern& p) const {
  std::vector<int> out;
  for (const auto& [label, view] : views_) {
    for (const Pattern& q : view.patterns) {
      if (q.IsomorphicTo(p)) {
        out.push_back(label);
        break;
      }
    }
  }
  return out;
}

std::vector<int> LegacyViewStore::DatabaseGraphsWithPattern(
    const Pattern& p, int label) const {
  std::vector<int> out;
  if (db_ == nullptr) return out;
  for (int i = 0; i < db_->size(); ++i) {
    if (label >= 0) {
      const int l = db_->has_predictions() ? db_->predicted_label(i)
                                           : db_->true_label(i);
      if (l != label) continue;
    }
    if (ContainsPattern(db_->graph(i), p.graph(), match_options_)) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<Pattern> LegacyViewStore::DiscriminativePatterns(
    int label) const {
  std::vector<Pattern> out;
  auto it = views_.find(label);
  if (it == views_.end()) return out;
  for (const Pattern& p : it->second.patterns) {
    bool found_elsewhere = false;
    for (const auto& [other_label, other_view] : views_) {
      if (other_label == label) continue;
      for (const auto& s : other_view.subgraphs) {
        if (ContainsPattern(s.subgraph, p.graph(), match_options_)) {
          found_elsewhere = true;
          break;
        }
      }
      if (found_elsewhere) break;
    }
    if (!found_elsewhere) out.push_back(p);
  }
  return out;
}

}  // namespace oracle
}  // namespace gvex
