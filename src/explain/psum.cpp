#include "explain/psum.h"

#include <algorithm>
#include <set>

#include "pattern/coverage.h"
#include "util/thread_pool.h"

namespace gvex {

namespace {

// Per-candidate coverage across all subgraphs, flattened to global ids.
struct CandidateCoverage {
  std::vector<int> nodes;  // global node ids covered
  std::vector<int> edges;  // global edge ids covered
};

}  // namespace

Result<PsumResult> Psum(const std::vector<const Graph*>& subgraphs,
                        const Configuration& config, ThreadPool* pool) {
  PsumResult out;
  // Global id layout.
  std::vector<int> node_base(subgraphs.size() + 1, 0);
  std::vector<int> edge_base(subgraphs.size() + 1, 0);
  for (size_t i = 0; i < subgraphs.size(); ++i) {
    node_base[i + 1] = node_base[i] + subgraphs[i]->num_nodes();
    edge_base[i + 1] = edge_base[i] + subgraphs[i]->num_edges();
  }
  const int total_nodes = node_base.back();
  out.total_edges = edge_base.back();
  if (total_nodes == 0) {
    out.full_node_coverage = true;
    return out;
  }

  // PGen: mine candidates. min_support 1 so single-node patterns for every
  // type survive — they guarantee feasibility of full node coverage.
  MinerOptions mopts = config.miner;
  mopts.min_support = 1;
  std::vector<MinedPattern> mined = MinePatterns(subgraphs, mopts);
  if (mined.empty()) {
    return Status::Internal("PGen produced no candidates on non-empty input");
  }

  // Precompute the per-candidate global coverage table — the dominant Psum
  // cost (one pattern match per candidate x subgraph). Candidates are
  // partitioned into contiguous shards; each shard fills a shard-local
  // accumulator, and the accumulators are spliced back in shard-index order
  // at the barrier, so the table is byte-identical however the shards were
  // scheduled.
  // Each subgraph and each candidate is prepared for the matcher once; the
  // prepared subgraphs are read-only, so the shards share them.
  MatchOptions mo;
  mo.semantics = mopts.semantics;
  const int num_candidates = static_cast<int>(mined.size());
  const std::vector<PreparedGraph> prepared = PrepareGraphs(subgraphs);
  auto cover_one = [&](int c) {
    CandidateCoverage cc;
    const PreparedGraph pattern(mined[static_cast<size_t>(c)].pattern.graph());
    for (size_t gi = 0; gi < subgraphs.size(); ++gi) {
      CoverageMask mask = ComputeCoverage(pattern, prepared[gi], mo);
      for (size_t v = 0; v < mask.nodes.size(); ++v) {
        if (mask.nodes[v]) {
          cc.nodes.push_back(node_base[gi] + static_cast<int>(v));
        }
      }
      for (size_t e = 0; e < mask.edges.size(); ++e) {
        if (mask.edges[e]) {
          cc.edges.push_back(edge_base[gi] + static_cast<int>(e));
        }
      }
    }
    return cc;
  };

  std::vector<CandidateCoverage> cov(mined.size());
  if (pool != nullptr && pool->num_threads() > 1 && num_candidates > 1) {
    // Batched shards (4x workers) smooth out uneven candidate match costs.
    const int num_shards = pool->num_threads() * 4;
    std::vector<std::vector<CandidateCoverage>> shard_acc(
        ThreadPool::MakeShards(num_shards, num_candidates).size());
    pool->RunSharded(num_shards, num_candidates, [&](const Shard& shard) {
      std::vector<CandidateCoverage>& acc =
          shard_acc[static_cast<size_t>(shard.index)];
      acc.reserve(static_cast<size_t>(shard.size()));
      for (int c = shard.begin; c < shard.end; ++c) {
        acc.push_back(cover_one(c));
      }
    });
    // Barrier passed: merge shard-local accumulators deterministically.
    size_t next = 0;
    for (std::vector<CandidateCoverage>& acc : shard_acc) {
      for (CandidateCoverage& cc : acc) cov[next++] = std::move(cc);
    }
  } else {
    for (int c = 0; c < num_candidates; ++c) {
      cov[static_cast<size_t>(c)] = cover_one(c);
    }
  }

  // Greedy weighted set cover. Weight w(P) = 1 - |P_ES|/|E_S| (Jaccard-style
  // penalty on uncovered edges). Classic greedy rule: pick the candidate
  // minimizing weight per newly covered node, i.e. maximizing
  // new_nodes / (w + eps).
  std::vector<bool> node_covered(static_cast<size_t>(total_nodes), false);
  std::vector<bool> edge_covered(static_cast<size_t>(out.total_edges), false);
  std::vector<bool> used(mined.size(), false);
  int covered_count = 0;
  const double kEps = 1e-6;

  while (covered_count < total_nodes) {
    int best = -1;
    double best_ratio = -1.0;
    for (size_t c = 0; c < mined.size(); ++c) {
      if (used[c]) continue;
      int new_nodes = 0;
      for (int gn : cov[c].nodes) {
        if (!node_covered[static_cast<size_t>(gn)]) ++new_nodes;
      }
      if (new_nodes == 0) continue;
      const double w =
          out.total_edges == 0
              ? 0.0
              : 1.0 - static_cast<double>(cov[c].edges.size()) /
                          out.total_edges;
      const double ratio = static_cast<double>(new_nodes) / (w + kEps);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = static_cast<int>(c);
      }
    }
    if (best < 0) break;  // no candidate adds coverage (shouldn't happen)
    used[static_cast<size_t>(best)] = true;
    out.patterns.push_back(mined[static_cast<size_t>(best)].pattern);
    for (int gn : cov[static_cast<size_t>(best)].nodes) {
      if (!node_covered[static_cast<size_t>(gn)]) {
        node_covered[static_cast<size_t>(gn)] = true;
        ++covered_count;
      }
    }
    for (int ge : cov[static_cast<size_t>(best)].edges) {
      edge_covered[static_cast<size_t>(ge)] = true;
    }
  }

  out.covered_edges = static_cast<int>(
      std::count(edge_covered.begin(), edge_covered.end(), true));
  out.full_node_coverage = covered_count == total_nodes;
  return out;
}

Result<PsumResult> Psum(const std::vector<Graph>& subgraphs,
                        const Configuration& config, ThreadPool* pool) {
  std::vector<const Graph*> ptrs;
  ptrs.reserve(subgraphs.size());
  for (const Graph& g : subgraphs) ptrs.push_back(&g);
  return Psum(ptrs, config, pool);
}

}  // namespace gvex
