#include "pattern/coverage.h"

#include <gtest/gtest.h>

#include "oracle/blind_matcher.h"
#include "test_util.h"
#include "util/rng.h"

namespace gvex {
namespace {

Pattern EdgePattern(int t1, int t2) {
  Graph g;
  g.AddNode(t1);
  g.AddNode(t2);
  (void)g.AddEdge(0, 1);
  return std::move(Pattern::Create(std::move(g))).value();
}

TEST(PatternTest, CreateRejectsEmptyAndDisconnected) {
  Graph empty;
  EXPECT_FALSE(Pattern::Create(std::move(empty)).ok());
  Graph disc;
  disc.AddNode(0);
  disc.AddNode(0);
  EXPECT_FALSE(Pattern::Create(std::move(disc)).ok());
}

TEST(PatternTest, SingleNodeAndIsomorphicTo) {
  Pattern a = Pattern::SingleNode(3);
  Pattern b = Pattern::SingleNode(3);
  Pattern c = Pattern::SingleNode(4);
  EXPECT_TRUE(a.IsomorphicTo(b));
  EXPECT_FALSE(a.IsomorphicTo(c));
  EXPECT_EQ(a.num_nodes(), 1);
}

TEST(CoverageTest, EdgePatternCoversStar) {
  Graph g = testing::StarGraph(3);  // hub type 1, leaves type 0
  CoverageMask mask = ComputeCoverage(EdgePattern(1, 0), g);
  EXPECT_TRUE(mask.AllNodes());
  EXPECT_EQ(mask.CountEdges(), 3);
}

TEST(CoverageTest, TypeRestrictedCoverage) {
  Graph g = testing::TriangleWithTail();  // triangle type1, tail type0
  CoverageMask mask = ComputeCoverage(EdgePattern(1, 1), g);
  // Covers exactly the triangle nodes and triangle edges.
  EXPECT_EQ(mask.CountNodes(), 3);
  EXPECT_EQ(mask.CountEdges(), 3);
  EXPECT_FALSE(mask.AllNodes());
}

TEST(CoverageTest, PatternSetUnion) {
  Graph g = testing::TriangleWithTail();
  std::vector<Pattern> patterns{EdgePattern(1, 1), EdgePattern(0, 0),
                                EdgePattern(1, 0)};
  CoverageMask mask = ComputeCoverage(patterns, g);
  EXPECT_TRUE(mask.AllNodes());
  EXPECT_EQ(mask.CountEdges(), g.num_edges());
}

TEST(CoverageTest, NoMatchesMeansNoCoverage) {
  Graph g = testing::PathGraph(3, 0);
  CoverageMask mask = ComputeCoverage(EdgePattern(5, 5), g);
  EXPECT_EQ(mask.CountNodes(), 0);
  EXPECT_EQ(mask.CountEdges(), 0);
}

TEST(CoverageTest, MergeCoverageIsLogicalOr) {
  CoverageMask a;
  a.nodes = {true, false, false};
  a.edges = {true, false};
  CoverageMask b;
  b.nodes = {false, true, false};
  b.edges = {false, false};
  MergeCoverage(b, &a);
  EXPECT_EQ(a.CountNodes(), 2);
  EXPECT_EQ(a.CountEdges(), 1);
}

TEST(CoverageTest, PatternsCoverAllNodesAcrossGraphs) {
  Graph star = testing::StarGraph(2);
  Graph path = testing::PathGraph(3, 0);
  std::vector<const Graph*> graphs{&star, &path};
  std::vector<Pattern> partial{EdgePattern(1, 0)};
  EXPECT_FALSE(PatternsCoverAllNodes(partial, graphs));
  std::vector<Pattern> full{EdgePattern(1, 0), EdgePattern(0, 0)};
  EXPECT_TRUE(PatternsCoverAllNodes(full, graphs));
}

TEST(CoverageTest, EmptyGraphTriviallyCovered) {
  Graph empty;
  std::vector<const Graph*> graphs{&empty};
  EXPECT_TRUE(PatternsCoverAllNodes({}, graphs));
}

// Exact-union coverage equals the union of ALL blind-oracle embeddings
// (uncapped), whatever the enumeration order or cap.
void ExpectUnionParity(const Pattern& p, const Graph& g,
                       MatchSemantics semantics) {
  MatchOptions capped;
  capped.semantics = semantics;
  MatchOptions uncapped = capped;
  uncapped.max_matches = 0;
  const CoverageMask oracle_mask = oracle::BlindCoverage(p, g, uncapped);
  const CoverageMask mask = ComputeCoverage(p, g, capped);
  EXPECT_EQ(mask.nodes, oracle_mask.nodes) << p.ToString();
  EXPECT_EQ(mask.edges, oracle_mask.edges) << p.ToString();
}

Graph RandomCoverageGraph(Rng* rng, int n, bool directed, double prob) {
  Graph g(directed);
  for (int i = 0; i < n; ++i) g.AddNode(static_cast<int>(rng->NextUint(2)));
  for (int u = 0; u < n; ++u) {
    for (int v = directed ? 0 : u + 1; v < n; ++v) {
      if (u != v && rng->NextBool(prob)) {
        (void)g.AddEdge(u, v, static_cast<int>(rng->NextUint(2)));
      }
    }
  }
  return g;
}

TEST(CoverageTest, ExactUnionMatchesUncappedOracleOnRandomGraphs) {
  Rng rng(2024);
  for (int rep = 0; rep < 40; ++rep) {
    // Directed graphs at this density carry many both-orientation pairs.
    const bool directed = rep % 2 == 1;
    const Graph g = RandomCoverageGraph(&rng, 9, directed, 0.3);
    const Graph probe =
        RandomCoverageGraph(&rng, 2 + static_cast<int>(rng.NextUint(2)),
                            directed, 0.8);
    auto p = Pattern::Create(probe);
    if (!p.ok()) continue;
    for (MatchSemantics semantics :
         {MatchSemantics::kInduced, MatchSemantics::kNonInduced}) {
      ExpectUnionParity(p.value(), g, semantics);
    }
  }
}

// A hub with 40 leaves and a 3-leaf star pattern: 40*39*38 embeddings, far
// past the old 256 (miner) and 4096 (coverage) caps; every node and edge
// is still covered.
TEST(CoverageTest, HubAndStarPastTheOldCaps) {
  Graph hub;
  hub.AddNode(1);
  for (int i = 1; i <= 40; ++i) {
    hub.AddNode(0);
    (void)hub.AddEdge(0, i);
  }
  Graph star;
  star.AddNode(1);
  for (int i = 1; i <= 3; ++i) {
    star.AddNode(0);
    (void)star.AddEdge(0, i);
  }
  const Pattern p = std::move(Pattern::Create(std::move(star))).value();
  const CoverageMask mask = ComputeCoverage(p, hub);
  EXPECT_TRUE(mask.AllNodes());
  EXPECT_EQ(mask.CountEdges(), hub.num_edges());
  ExpectUnionParity(p, hub, MatchSemantics::kNonInduced);
}

// A directed pair joined in both orientations is covered once, as its
// first listed edge.
TEST(CoverageTest, BothOrientationPairCountsAsFirstEdge) {
  Graph g(true);
  g.AddNode(0);
  g.AddNode(0);
  (void)g.AddEdge(0, 1);
  (void)g.AddEdge(1, 0);
  Graph pg(true);
  pg.AddNode(0);
  pg.AddNode(0);
  (void)pg.AddEdge(0, 1);
  const Pattern p = std::move(Pattern::Create(std::move(pg))).value();
  const CoverageMask mask =
      ComputeCoverage(p, g, MatchOptions{MatchSemantics::kNonInduced});
  EXPECT_EQ(mask.edges, (std::vector<bool>{true, false}));
  ExpectUnionParity(p, g, MatchSemantics::kNonInduced);
}

}  // namespace
}  // namespace gvex
