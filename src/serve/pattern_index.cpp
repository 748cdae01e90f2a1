#include "serve/pattern_index.h"

#include <algorithm>
#include <utility>

#include "pattern/matcher.h"
#include "util/bitops.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gvex {

namespace {

const std::vector<Pattern> kEmptyPatterns;
const std::map<int, ExplanationView> kEmptyViews;

}  // namespace

// Every fallback containment check funnels through here: the candidate-
// filtered matcher (bit-identical answers to the legacy blind scan), with
// the filter's fast-reject rate surfaced in stats().
bool PatternIndex::SubgraphContains(const Graph& subgraph,
                                    const Pattern& p) const {
  MatcherStats mstats;
  const bool contains =
      FilteredContainsPattern(subgraph, p.graph(), match_, &mstats);
  if (mstats.filtered_out) {
    stats_->filtered_rejects.fetch_add(1, std::memory_order_relaxed);
  }
  return contains;
}

PatternIndex PatternIndex::Build(
    std::shared_ptr<const std::map<int, ExplanationView>> views,
    const GraphDatabase* db, const BuildOptions& options) {
  PatternIndex index;
  index.views_ = std::move(views);
  index.db_ = db;
  index.match_ = options.match;
  index.database_indexed_ = options.index_database && db != nullptr;
  if (index.views_ == nullptr) return index;

  // Unique codes in deterministic first-seen order (labels ascending, tier
  // order) with one representative pattern per code; tier_position / labels
  // postings are filled in the same pass.
  std::vector<const Pattern*> reps;
  std::unordered_map<std::string, size_t> code_slot;
  std::vector<PatternPostings> postings;
  for (const auto& [label, view] : *index.views_) {
    for (size_t pos = 0; pos < view.patterns.size(); ++pos) {
      const Pattern& p = view.patterns[pos];
      auto [it, inserted] =
          code_slot.emplace(p.canonical_code(), reps.size());
      if (inserted) {
        reps.push_back(&p);
        postings.emplace_back();
      }
      PatternPostings& post = postings[it->second];
      if (post.tier_position.emplace(label, static_cast<int>(pos)).second) {
        post.labels.push_back(label);  // labels ascend with the outer loop
      }
    }
  }

  // The expensive cross-product — one containment check per (code, subgraph)
  // and, when database indexing is on, per (code, database graph) — runs
  // through the candidate-filtered matcher: most pairs don't match and die
  // at filtering without a backtracking step. Codes and view subgraphs are
  // prepared for the matcher once and shared, read-only, by every shard.
  // The subgraph pass is sharded over codes, the database pass over graphs
  // (each database graph is prepared by the shard that owns it and dropped
  // after), and each shard writes only its own slots, so the result is
  // identical for every worker count.
  if (reps.empty()) return index;
  std::vector<const Graph*> rep_graphs;
  rep_graphs.reserve(reps.size());
  for (const Pattern* p : reps) rep_graphs.push_back(&p->graph());
  const std::vector<PreparedGraph> prepared_reps = PrepareGraphs(rep_graphs);
  std::vector<std::vector<PreparedGraph>> prepared_subgraphs;
  for (const auto& [label, view] : *index.views_) {
    prepared_subgraphs.emplace_back();
    prepared_subgraphs.back().reserve(view.subgraphs.size());
    for (const ExplanationSubgraph& s : view.subgraphs) {
      prepared_subgraphs.back().emplace_back(s.subgraph);
    }
  }
  const int num_codes = static_cast<int>(reps.size());
  const int threads = std::max(1, options.num_threads);
  ThreadPool::ParallelForShards(
      threads, threads * 4, num_codes, [&](const Shard& shard) {
        for (int c = shard.begin; c < shard.end; ++c) {
          const PreparedGraph& p = prepared_reps[static_cast<size_t>(c)];
          CoverageBits coverage;
          size_t view_index = 0;
          for (const auto& [label, view] : *index.views_) {
            const std::vector<PreparedGraph>& subgraphs =
                prepared_subgraphs[view_index++];
            std::vector<uint64_t> bits(
                bitops::WordsForBits(subgraphs.size()), 0);
            for (size_t i = 0; i < subgraphs.size(); ++i) {
              if (FilteredContainsPattern(subgraphs[i], p, index.match_)) {
                bitops::SetBit(bits.data(), i);
              }
            }
            coverage.emplace(label, std::move(bits));
          }
          // Frozen once: export/import and every copy of this index share
          // these words by pointer from here on.
          postings[static_cast<size_t>(c)].subgraph_bits =
              std::make_shared<const CoverageBits>(std::move(coverage));
        }
      });
  if (index.database_indexed_) {
    // codes_in[i]: the codes database graph i contains, ascending.
    std::vector<std::vector<int>> codes_in(static_cast<size_t>(db->size()));
    ThreadPool::ParallelForShards(
        threads, threads * 4, db->size(), [&](const Shard& shard) {
          for (int i = shard.begin; i < shard.end; ++i) {
            const PreparedGraph g(db->graph(i));
            for (int c = 0; c < num_codes; ++c) {
              if (FilteredContainsPattern(
                      g, prepared_reps[static_cast<size_t>(c)],
                      index.match_)) {
                codes_in[static_cast<size_t>(i)].push_back(c);
              }
            }
          }
        });
    for (int i = 0; i < db->size(); ++i) {
      for (int c : codes_in[static_cast<size_t>(i)]) {
        postings[static_cast<size_t>(c)].db_graphs.push_back(i);
      }
    }
  }

  for (auto& [code, slot] : code_slot) {
    index.postings_.emplace(code, std::move(postings[slot]));
  }
  return index;
}

PatternIndex PatternIndex::Build(const std::map<int, ExplanationView>& views,
                                 const GraphDatabase* db,
                                 const BuildOptions& options) {
  return Build(std::make_shared<const std::map<int, ExplanationView>>(views),
               db, options);
}

std::vector<StoredPostings> PatternIndex::ExportPostings() const {
  std::vector<StoredPostings> out;
  out.reserve(postings_.size());
  for (const auto& [code, post] : postings_) {
    StoredPostings stored;
    stored.code = code;
    stored.labels = post.labels;
    stored.tier_position = post.tier_position;
    stored.subgraph_bits = post.subgraph_bits;  // pointer copy, no words
    stored.db_graphs = post.db_graphs;
    out.push_back(std::move(stored));
  }
  std::sort(out.begin(), out.end(),
            [](const StoredPostings& a, const StoredPostings& b) {
              return a.code < b.code;
            });
  return out;
}

PatternIndex PatternIndex::FromStored(
    std::shared_ptr<const std::map<int, ExplanationView>> views,
    const GraphDatabase* db, const MatchOptions& match, bool database_indexed,
    const std::vector<StoredPostings>& postings) {
  PatternIndex index;
  index.views_ = std::move(views);
  index.db_ = db;
  index.match_ = match;
  // Snapshots may predate the database the service now runs against; a
  // missing database disables the precomputed db_graphs path exactly like
  // a scratch build with db == nullptr.
  index.database_indexed_ = database_indexed && db != nullptr;
  index.postings_.reserve(postings.size());
  for (const StoredPostings& stored : postings) {
    PatternPostings post;
    post.labels = stored.labels;
    post.tier_position = stored.tier_position;
    post.subgraph_bits = stored.subgraph_bits;  // pointer copy, no words
    post.db_graphs = stored.db_graphs;
    index.postings_.emplace(stored.code, std::move(post));
  }
  return index;
}

const std::map<int, ExplanationView>& PatternIndex::views() const {
  return views_ == nullptr ? kEmptyViews : *views_;
}

std::vector<int> PatternIndex::Labels() const {
  std::vector<int> out;
  out.reserve(views().size());
  for (const auto& [label, view] : views()) out.push_back(label);
  return out;
}

const std::vector<Pattern>& PatternIndex::PatternsForLabel(int label) const {
  auto it = views().find(label);
  return it == views().end() ? kEmptyPatterns : it->second.patterns;
}

const PatternPostings* PatternIndex::Find(const std::string& code) const {
  auto it = postings_.find(code);
  return it == postings_.end() ? nullptr : &it->second;
}

std::vector<int> PatternIndex::GraphsWithPattern(int label,
                                                 const Pattern& p) const {
  std::vector<int> out;
  auto it = views().find(label);
  if (it == views().end()) return out;
  const std::vector<ExplanationSubgraph>& subgraphs = it->second.subgraphs;
  const PatternPostings* post = Find(p.canonical_code());
  if (post != nullptr) {
    if (post->subgraph_bits) {
      auto bits = post->subgraph_bits->find(label);
      if (bits != post->subgraph_bits->end()) {
        // The indexed path: one ctz per ANSWER, not one shift per subgraph.
        bitops::ForEachSetBit(bits->second, [&](size_t i) {
          if (i < subgraphs.size()) out.push_back(subgraphs[i].graph_index);
        });
        return out;
      }
    }
    // Known code but no bitset for this label: the build computes bits for
    // every label, so this is an inconsistent snapshot. Say so loudly and
    // count it — then still answer correctly via the scan below.
    stats_->inconsistent_postings.fetch_add(1, std::memory_order_relaxed);
    GVEX_LOG(kError) << "pattern index posting for code "
                     << p.canonical_code() << " has no coverage bitset for"
                     << " label " << label
                     << " (inconsistent snapshot); scanning";
  } else {
    stats_->fallback_scans.fetch_add(1, std::memory_order_relaxed);
  }
  // Non-exact pattern (or inconsistent posting): filtered containment scan,
  // bit-identical to the legacy store's answer.
  for (const auto& s : subgraphs) {
    if (SubgraphContains(s.subgraph, p)) {
      out.push_back(s.graph_index);
    }
  }
  return out;
}

std::vector<int> PatternIndex::GraphsWithAllPatterns(
    int label, const std::vector<Pattern>& patterns) const {
  std::vector<int> out;
  auto it = views().find(label);
  if (it == views().end()) return out;
  const std::vector<ExplanationSubgraph>& subgraphs = it->second.subgraphs;
  const size_t n = subgraphs.size();

  // Accumulator starts at "all subgraphs" (tail bits masked off) and each
  // indexed pattern narrows it with one word-level AND — a k-pattern query
  // costs k ANDs plus one output walk, not k separate bit walks.
  std::vector<uint64_t> acc(bitops::WordsForBits(n), ~uint64_t{0});
  if (!acc.empty() && (n & 63) != 0) {
    acc.back() = (uint64_t{1} << (n & 63)) - 1;
  }

  std::vector<const Pattern*> scan_patterns;
  for (const Pattern& p : patterns) {
    const PatternPostings* post = Find(p.canonical_code());
    if (post != nullptr && post->subgraph_bits) {
      auto bits = post->subgraph_bits->find(label);
      if (bits != post->subgraph_bits->end()) {
        bitops::AndInPlace(&acc, bits->second);
        continue;
      }
    }
    if (post != nullptr) {
      stats_->inconsistent_postings.fetch_add(1, std::memory_order_relaxed);
      GVEX_LOG(kError) << "pattern index posting for code "
                       << p.canonical_code() << " has no coverage bitset"
                       << " for label " << label
                       << " (inconsistent snapshot); scanning";
    } else {
      stats_->fallback_scans.fetch_add(1, std::memory_order_relaxed);
    }
    scan_patterns.push_back(&p);
  }
  if (bitops::AllZero(acc)) return out;

  // Unknown-code patterns only ever check subgraphs still alive in the
  // accumulator.
  bitops::ForEachSetBit(acc, [&](size_t i) {
    if (i >= n) return;
    for (const Pattern* p : scan_patterns) {
      if (!SubgraphContains(subgraphs[i].subgraph, *p)) return;
    }
    out.push_back(subgraphs[i].graph_index);
  });
  return out;
}

std::vector<int> PatternIndex::LabelsOfPattern(const Pattern& p) const {
  // Tier membership is exact canonical-code equality (Pattern::IsomorphicTo),
  // so an unknown code has no carriers — no fallback needed.
  const PatternPostings* post = Find(p.canonical_code());
  return post == nullptr ? std::vector<int>() : post->labels;
}

std::vector<int> PatternIndex::DatabaseGraphsWithPattern(const Pattern& p,
                                                         int label) const {
  std::vector<int> out;
  if (db_ == nullptr) return out;
  const PatternPostings* post =
      database_indexed_ ? Find(p.canonical_code()) : nullptr;
  if (post != nullptr) {
    if (label < 0) return post->db_graphs;
    for (int i : post->db_graphs) {
      const int l = db_->has_predictions() ? db_->predicted_label(i)
                                           : db_->true_label(i);
      if (l == label) out.push_back(i);
    }
    return out;
  }
  if (database_indexed_) {
    stats_->fallback_scans.fetch_add(1, std::memory_order_relaxed);
  }
  for (int i = 0; i < db_->size(); ++i) {
    if (label >= 0) {
      const int l = db_->has_predictions() ? db_->predicted_label(i)
                                           : db_->true_label(i);
      if (l != label) continue;
    }
    if (SubgraphContains(db_->graph(i), p)) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<Pattern> PatternIndex::DiscriminativePatterns(int label) const {
  std::vector<Pattern> out;
  auto it = views().find(label);
  if (it == views().end()) return out;
  for (const Pattern& p : it->second.patterns) {
    // Tier patterns are indexed whenever the index was built from the same
    // view snapshot it queries — but a warm-started index serves whatever
    // postings its snapshot carried, and an admission race could hand it a
    // tier it never indexed. Missing postings (or missing per-label
    // bitsets) are counted, logged, and answered by a filtered scan; never
    // dereferenced blind.
    const PatternPostings* post = Find(p.canonical_code());
    if (post == nullptr) {
      stats_->inconsistent_postings.fetch_add(1, std::memory_order_relaxed);
      GVEX_LOG(kError) << "tier pattern of label " << label
                       << " has no posting (inconsistent snapshot);"
                       << " scanning";
    }
    bool found_elsewhere = false;
    for (const auto& [other_label, other_view] : views()) {
      if (other_label == label) continue;
      if (post != nullptr && post->subgraph_bits) {
        auto bits = post->subgraph_bits->find(other_label);
        if (bits != post->subgraph_bits->end()) {
          if (!bitops::AllZero(bits->second)) {
            found_elsewhere = true;
            break;
          }
          continue;
        }
        stats_->inconsistent_postings.fetch_add(1,
                                                std::memory_order_relaxed);
        GVEX_LOG(kError) << "pattern index posting for code "
                         << p.canonical_code()
                         << " has no coverage bitset for label "
                         << other_label
                         << " (inconsistent snapshot); scanning";
      }
      for (const ExplanationSubgraph& s : other_view.subgraphs) {
        if (SubgraphContains(s.subgraph, p)) {
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

}  // namespace gvex
