#include "serve/pattern_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "oracle/legacy_view_store.h"
#include "serve/synthetic_store.h"
#include "serve/view_service.h"
#include "serve/view_store.h"

namespace gvex {
namespace {

std::vector<std::string> Codes(const std::vector<Pattern>& patterns) {
  std::vector<std::string> out;
  out.reserve(patterns.size());
  for (const Pattern& p : patterns) out.push_back(p.canonical_code());
  return out;
}

// The oracle: the legacy scan store and an indexed store built over the
// same randomized view set must answer every query bit-identically.
class OracleParityTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    store_ = synthetic::MakeSyntheticStore(GetParam());
    legacy_ = std::make_unique<oracle::LegacyViewStore>(&store_.db);
    ViewStoreOptions indexed_opts;
    // Exercise the sharded build on some seeds; results must not depend on
    // the worker count.
    indexed_opts.build_threads = GetParam() % 2 == 0 ? 4 : 1;
    indexed_ = std::make_unique<ViewStore>(&store_.db, indexed_opts);
    for (const ExplanationView& v : store_.views) {
      legacy_->AddView(v);
      indexed_->AddView(v);
    }
    // Query workload: every tier pattern, plus patterns the index has never
    // seen (exercises the isomorphism fallback), plus single-node probes.
    Rng rng(GetParam() + 1000);
    for (const ExplanationView& v : store_.views) {
      for (const Pattern& p : v.patterns) queries_.push_back(p);
    }
    for (int i = 0; i < 10; ++i) {
      Graph g = synthetic::RandomConnectedGraph(&rng, 2, 5, 3);
      auto p = Pattern::Create(std::move(g));
      ASSERT_TRUE(p.ok());
      queries_.push_back(std::move(p).value());
    }
    for (int t = 0; t < 4; ++t) queries_.push_back(Pattern::SingleNode(t));
  }

  synthetic::SyntheticStore store_;
  std::unique_ptr<oracle::LegacyViewStore> legacy_;
  std::unique_ptr<ViewStore> indexed_;
  std::vector<Pattern> queries_;
};

TEST_P(OracleParityTest, LabelsAndTiersMatch) {
  EXPECT_EQ(legacy_->Labels(), indexed_->Labels());
  for (int label : legacy_->Labels()) {
    EXPECT_EQ(Codes(legacy_->PatternsForLabel(label)),
              Codes(indexed_->PatternsForLabel(label)));
  }
}

TEST_P(OracleParityTest, EveryQueryMatchesLegacyScan) {
  const std::vector<int> labels = legacy_->Labels();
  for (const Pattern& p : queries_) {
    EXPECT_EQ(legacy_->LabelsOfPattern(p), indexed_->LabelsOfPattern(p))
        << p.ToString();
    EXPECT_EQ(legacy_->DatabaseGraphsWithPattern(p),
              indexed_->DatabaseGraphsWithPattern(p))
        << p.ToString();
    for (int label : labels) {
      EXPECT_EQ(legacy_->GraphsWithPattern(label, p),
                indexed_->GraphsWithPattern(label, p))
          << "label " << label << " " << p.ToString();
      EXPECT_EQ(legacy_->DatabaseGraphsWithPattern(p, label),
                indexed_->DatabaseGraphsWithPattern(p, label))
          << "label " << label << " " << p.ToString();
    }
  }
  for (int label : labels) {
    EXPECT_EQ(Codes(legacy_->DiscriminativePatterns(label)),
              Codes(indexed_->DiscriminativePatterns(label)))
        << "label " << label;
  }
}

TEST_P(OracleParityTest, ViewServiceMatchesLegacyScan) {
  ViewService service(&store_.db);
  for (const ExplanationView& v : store_.views) {
    ASSERT_TRUE(service.AdmitView(v).ok());
  }
  EXPECT_EQ(legacy_->Labels(), service.Labels());
  for (const Pattern& p : queries_) {
    EXPECT_EQ(legacy_->LabelsOfPattern(p), service.LabelsOfPattern(p));
    for (int label : legacy_->Labels()) {
      EXPECT_EQ(legacy_->GraphsWithPattern(label, p),
                service.GraphsWithPattern(label, p));
      EXPECT_EQ(legacy_->DatabaseGraphsWithPattern(p, label),
                service.DatabaseGraphsWithPattern(p, label));
    }
  }
  for (int label : legacy_->Labels()) {
    EXPECT_EQ(Codes(legacy_->DiscriminativePatterns(label)),
              Codes(service.DiscriminativePatterns(label)));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedViewSets, OracleParityTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(PatternIndexTest, EmptyIndexBehaves) {
  PatternIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.Labels().empty());
  EXPECT_TRUE(index.LabelsOfPattern(Pattern::SingleNode(0)).empty());
  EXPECT_TRUE(index.DatabaseGraphsWithPattern(Pattern::SingleNode(0)).empty());
  EXPECT_TRUE(index.DiscriminativePatterns(0).empty());
  EXPECT_EQ(index.num_codes(), 0);
}

TEST(PatternIndexTest, PostingsExposeTierPositionsAndLabels) {
  auto store = synthetic::MakeSyntheticStore(7, /*num_labels=*/2);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  PatternIndex index = PatternIndex::Build(views, &store.db);
  for (const auto& [label, view] : views) {
    for (size_t pos = 0; pos < view.patterns.size(); ++pos) {
      const PatternPostings* post =
          index.Find(view.patterns[pos].canonical_code());
      ASSERT_NE(post, nullptr);
      auto it = post->tier_position.find(label);
      ASSERT_NE(it, post->tier_position.end());
      EXPECT_EQ(it->second, static_cast<int>(pos));
      EXPECT_TRUE(std::find(post->labels.begin(), post->labels.end(),
                            label) != post->labels.end());
      // Coverage bitsets exist for EVERY label, not just carriers.
      ASSERT_NE(post->subgraph_bits, nullptr);
      EXPECT_EQ(post->subgraph_bits->size(), views.size());
    }
  }
}

// A pattern whose canonical code can never appear in a synthetic store
// (node types there are < 10).
Pattern UnknownPattern() { return Pattern::SingleNode(99); }

TEST(PatternIndexTest, StatsCountFallbackAndIndexedQueries) {
  auto store = synthetic::MakeSyntheticStore(3);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  PatternIndex index = PatternIndex::Build(views, &store.db);
  EXPECT_EQ(index.stats().fallback_scans.load(), 0u);

  // Indexed code: pure lookup, no fallback.
  const Pattern& known = views.begin()->second.patterns.front();
  (void)index.GraphsWithPattern(views.begin()->first, known);
  EXPECT_EQ(index.stats().fallback_scans.load(), 0u);
  EXPECT_EQ(index.stats().inconsistent_postings.load(), 0u);

  // Unknown code: falls back to a filtered containment scan, counted once
  // per query.
  (void)index.GraphsWithPattern(views.begin()->first, UnknownPattern());
  EXPECT_EQ(index.stats().fallback_scans.load(), 1u);
  (void)index.DatabaseGraphsWithPattern(UnknownPattern());
  EXPECT_EQ(index.stats().fallback_scans.load(), 2u);
  // No snapshot corruption anywhere in this test.
  EXPECT_EQ(index.stats().inconsistent_postings.load(), 0u);
}

// Satellite regression: a stored posting whose bitset map lost a label must
// not silently degrade — the query answers correctly via scan AND the
// inconsistency is counted.
TEST(PatternIndexTest, MissingLabelBitsetAnswersByScanAndCounts) {
  auto store = synthetic::MakeSyntheticStore(5, /*num_labels=*/2);
  auto views =
      std::make_shared<const std::map<int, ExplanationView>>([&] {
        std::map<int, ExplanationView> m;
        for (const auto& v : store.views) m[v.label] = v;
        return m;
      }());
  PatternIndex full = PatternIndex::Build(views, &store.db);

  const int label = views->begin()->first;
  const Pattern& victim = views->begin()->second.patterns.front();
  std::vector<StoredPostings> postings = full.ExportPostings();
  bool pruned = false;
  for (StoredPostings& p : postings) {
    if (p.code != victim.canonical_code()) continue;
    CoverageBits mutated = *p.subgraph_bits;
    mutated.erase(label);
    p.subgraph_bits = std::make_shared<const CoverageBits>(std::move(mutated));
    pruned = true;
  }
  ASSERT_TRUE(pruned);

  PatternIndex broken = PatternIndex::FromStored(
      views, &store.db, full.match_options(), full.database_indexed(),
      postings);
  EXPECT_EQ(broken.GraphsWithPattern(label, victim),
            full.GraphsWithPattern(label, victim));
  EXPECT_GE(broken.stats().inconsistent_postings.load(), 1u);
  // The other label's bitset is intact — no count, same answer.
  const int other = std::next(views->begin())->first;
  const uint64_t counted = broken.stats().inconsistent_postings.load();
  EXPECT_EQ(broken.GraphsWithPattern(other, victim),
            full.GraphsWithPattern(other, victim));
  EXPECT_EQ(broken.stats().inconsistent_postings.load(), counted);
}

// Satellite regression: DiscriminativePatterns must survive a whole posting
// vanishing from the snapshot (Find returns null) — correct answer via
// scan, inconsistency counted, no crash.
TEST(PatternIndexTest, DiscriminativeSurvivesMissingPosting) {
  auto store = synthetic::MakeSyntheticStore(9, /*num_labels=*/3);
  auto views =
      std::make_shared<const std::map<int, ExplanationView>>([&] {
        std::map<int, ExplanationView> m;
        for (const auto& v : store.views) m[v.label] = v;
        return m;
      }());
  PatternIndex full = PatternIndex::Build(views, &store.db);

  for (const auto& [label, view] : *views) {
    const std::string victim = view.patterns.front().canonical_code();
    std::vector<StoredPostings> postings = full.ExportPostings();
    postings.erase(std::remove_if(postings.begin(), postings.end(),
                                  [&](const StoredPostings& p) {
                                    return p.code == victim;
                                  }),
                   postings.end());
    PatternIndex broken = PatternIndex::FromStored(
        views, &store.db, full.match_options(), full.database_indexed(),
        postings);
    EXPECT_EQ(Codes(broken.DiscriminativePatterns(label)),
              Codes(full.DiscriminativePatterns(label)))
        << "label " << label;
    EXPECT_GE(broken.stats().inconsistent_postings.load(), 1u);
  }
}

// The batched conjunction must equal intersecting the per-pattern answers —
// including fallback-scan (unknown-code) members and the k = 0 convention.
TEST(PatternIndexTest, GraphsWithAllPatternsMatchesIntersection) {
  auto store = synthetic::MakeSyntheticStore(13);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  PatternIndex index = PatternIndex::Build(views, &store.db);

  for (const auto& [label, view] : views) {
    // k = 0: every graph of the label.
    std::vector<int> all;
    for (const auto& s : view.subgraphs) all.push_back(s.graph_index);
    std::sort(all.begin(), all.end());
    EXPECT_EQ(index.GraphsWithAllPatterns(label, {}), all);

    std::vector<Pattern> batch;
    batch.push_back(view.patterns.front());
    batch.push_back(view.patterns.back());
    batch.push_back(Pattern::SingleNode(0));  // likely indexed, broad
    batch.push_back(UnknownPattern());        // forces the scan path
    std::vector<int> expect = index.GraphsWithPattern(label, batch[0]);
    for (size_t i = 1; i < batch.size(); ++i) {
      const std::vector<int> next = index.GraphsWithPattern(label, batch[i]);
      std::vector<int> kept;
      std::set_intersection(expect.begin(), expect.end(), next.begin(),
                            next.end(), std::back_inserter(kept));
      expect = std::move(kept);
    }
    EXPECT_EQ(index.GraphsWithAllPatterns(label, batch), expect)
        << "label " << label;
  }
  // Unknown label: empty, not a crash.
  EXPECT_TRUE(index.GraphsWithAllPatterns(999, {}).empty());
}

// Satellite regression: Save()'s ExportPostings must SHARE bitset storage
// with the live index (pointer copy), not deep-copy the words.
TEST(PatternIndexTest, ExportPostingsSharesBitsetStorage) {
  auto store = synthetic::MakeSyntheticStore(17);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  PatternIndex index = PatternIndex::Build(views, &store.db);
  const std::vector<StoredPostings> exported = index.ExportPostings();
  ASSERT_FALSE(exported.empty());
  for (const StoredPostings& p : exported) {
    const PatternPostings* live = index.Find(p.code);
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(p.subgraph_bits.get(), live->subgraph_bits.get())
        << "deep copy detected for " << p.code;
  }
}

TEST(PatternIndexTest, BuildIsDeterministicAcrossWorkerCounts) {
  auto store = synthetic::MakeSyntheticStore(11);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  PatternIndex::BuildOptions one;
  one.num_threads = 1;
  PatternIndex a = PatternIndex::Build(views, &store.db, one);
  for (int workers : {2, 8}) {
    PatternIndex::BuildOptions opt;
    opt.num_threads = workers;
    PatternIndex b = PatternIndex::Build(views, &store.db, opt);
    ASSERT_EQ(a.num_codes(), b.num_codes());
    for (const auto& [label, view] : views) {
      for (const Pattern& p : view.patterns) {
        const PatternPostings* pa = a.Find(p.canonical_code());
        const PatternPostings* pb = b.Find(p.canonical_code());
        ASSERT_NE(pa, nullptr);
        ASSERT_NE(pb, nullptr);
        EXPECT_EQ(pa->labels, pb->labels);
        EXPECT_EQ(pa->db_graphs, pb->db_graphs);
        ASSERT_NE(pa->subgraph_bits, nullptr);
        ASSERT_NE(pb->subgraph_bits, nullptr);
        EXPECT_EQ(*pa->subgraph_bits, *pb->subgraph_bits);
      }
    }
  }
}

}  // namespace
}  // namespace gvex
