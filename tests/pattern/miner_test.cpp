#include "pattern/miner.h"

#include <gtest/gtest.h>

#include <set>

#include "test_util.h"

namespace gvex {
namespace {

TEST(MinerTest, EmptyInputGivesNoPatterns) {
  EXPECT_TRUE(MinePatterns(std::vector<Graph>{}).empty());
}

TEST(MinerTest, SingleNodePatternsForAllTypes) {
  std::vector<Graph> graphs{testing::TriangleWithTail()};
  MinerOptions opt;
  opt.max_pattern_nodes = 1;
  auto mined = MinePatterns(graphs, opt);
  std::set<int> types;
  for (const auto& mp : mined) {
    ASSERT_EQ(mp.pattern.num_nodes(), 1);
    types.insert(mp.pattern.graph().node_type(0));
  }
  EXPECT_EQ(types, (std::set<int>{0, 1}));
}

TEST(MinerTest, MinSupportPrunes) {
  // Type 5 appears in only one of two graphs.
  Graph a = testing::PathGraph(3, 5);
  Graph b = testing::PathGraph(3, 0);
  MinerOptions opt;
  opt.max_pattern_nodes = 1;
  opt.min_support = 2;
  auto mined = MinePatterns(std::vector<Graph>{a, b}, opt);
  EXPECT_TRUE(mined.empty());  // neither type occurs in both graphs

  opt.min_support = 1;
  mined = MinePatterns(std::vector<Graph>{a, b}, opt);
  EXPECT_EQ(mined.size(), 2u);
}

TEST(MinerTest, FindsEdgePatterns) {
  std::vector<Graph> graphs{testing::StarGraph(3)};
  MinerOptions opt;
  opt.max_pattern_nodes = 2;
  auto mined = MinePatterns(graphs, opt);
  bool found_edge = false;
  for (const auto& mp : mined) {
    if (mp.pattern.num_nodes() == 2 && mp.pattern.num_edges() == 1) {
      found_edge = true;
      // hub(1) - leaf(0)
      std::set<int> types{mp.pattern.graph().node_type(0),
                          mp.pattern.graph().node_type(1)};
      EXPECT_EQ(types, (std::set<int>{0, 1}));
    }
  }
  EXPECT_TRUE(found_edge);
}

TEST(MinerTest, PatternsAreDeduplicated) {
  std::vector<Graph> graphs{testing::PathGraph(5, 0)};
  MinerOptions opt;
  opt.max_pattern_nodes = 3;
  auto mined = MinePatterns(graphs, opt);
  std::set<std::string> codes;
  for (const auto& mp : mined) {
    EXPECT_TRUE(codes.insert(mp.pattern.canonical_code()).second)
        << "duplicate pattern " << mp.pattern.ToString();
  }
}

TEST(MinerTest, CoverageCountsAreSane) {
  std::vector<Graph> graphs{testing::PathGraph(4, 0)};
  MinerOptions opt;
  opt.max_pattern_nodes = 2;
  auto mined = MinePatterns(graphs, opt);
  for (const auto& mp : mined) {
    EXPECT_GE(mp.support, 1);
    EXPECT_LE(mp.covered_nodes, 4);
    EXPECT_LE(mp.covered_edges, 3);
  }
  // The 0-0 edge pattern covers all nodes and all edges of the path.
  bool found_full = false;
  for (const auto& mp : mined) {
    if (mp.pattern.num_nodes() == 2 && mp.covered_nodes == 4 &&
        mp.covered_edges == 3) {
      found_full = true;
    }
  }
  EXPECT_TRUE(found_full);
}

TEST(MinerTest, MaxPatternsTruncates) {
  std::vector<Graph> graphs{testing::TriangleWithTail()};
  MinerOptions opt;
  opt.max_pattern_nodes = 3;
  opt.max_patterns = 2;
  auto mined = MinePatterns(graphs, opt);
  EXPECT_LE(mined.size(), 2u);
}

TEST(MinerTest, ResultsSortedByCoverage) {
  std::vector<Graph> graphs{testing::TriangleWithTail()};
  MinerOptions opt;
  opt.max_pattern_nodes = 3;
  auto mined = MinePatterns(graphs, opt);
  for (size_t i = 1; i < mined.size(); ++i) {
    EXPECT_GE(mined[i - 1].covered_nodes, mined[i].covered_nodes);
  }
}

TEST(MinerTest, MinedPatternsAreConnected) {
  std::vector<Graph> graphs{testing::TriangleWithTail()};
  MinerOptions opt;
  opt.max_pattern_nodes = 4;
  auto mined = MinePatterns(graphs, opt);
  // Pattern::Create enforces connectivity; just assert non-empty + size cap.
  for (const auto& mp : mined) {
    EXPECT_GE(mp.pattern.num_nodes(), 1);
    EXPECT_LE(mp.pattern.num_nodes(), 4);
  }
}

}  // namespace
}  // namespace gvex
