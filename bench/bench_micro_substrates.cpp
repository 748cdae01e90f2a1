// Micro-benchmarks of the substrates (google-benchmark): dense GEMM, sparse
// propagation, GCN inference, exact-Jacobian influence, subgraph matching,
// coverage (production matcher vs the blind oracle), canonical codes, and
// pattern mining.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "data/malnet.h"
#include "data/mutagenicity.h"
#include "gnn/influence.h"
#include "gnn/gcn_model.h"
#include "graph/subgraph.h"
#include "la/matrix_ops.h"
#include "oracle/blind_matcher.h"
#include "pattern/canonical.h"
#include "pattern/coverage.h"
#include "pattern/matcher.h"
#include "pattern/miner.h"
#include "util/rng.h"

namespace gvex {
namespace {

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m.at(i, j) = rng.NextFloat(-1.0f, 1.0f);
  }
  return m;
}

const GraphDatabase& BenchDb() {
  static const GraphDatabase* db = [] {
    MutagenicityOptions opt;
    opt.num_graphs = 16;
    return new GraphDatabase(GenerateMutagenicity(opt));
  }();
  return *db;
}

const GcnModel& BenchModel() {
  static const GcnModel* model = [] {
    GcnConfig cfg;
    cfg.input_dim = 14;
    cfg.hidden_dim = 64;
    cfg.num_classes = 2;
    Rng rng(3);
    return new GcnModel(cfg, &rng);
  }();
  return *model;
}

void BM_DenseGemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Matrix a = RandomMatrix(n, n, 1);
  Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
}
BENCHMARK(BM_DenseGemm)->Arg(32)->Arg(64)->Arg(128);

void BM_SparsePropagation(benchmark::State& state) {
  const Graph& g = BenchDb().graph(0);
  SparseMatrix s = g.NormalizedAdjacency();
  Matrix x = RandomMatrix(g.num_nodes(), 64, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.Multiply(x));
  }
}
BENCHMARK(BM_SparsePropagation);

void BM_GcnInference(benchmark::State& state) {
  const Graph& g = BenchDb().graph(0);
  const GcnModel& model = BenchModel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictProba(g));
  }
}
BENCHMARK(BM_GcnInference);

void BM_ExactJacobianInfluence(benchmark::State& state) {
  const Graph& g = BenchDb().graph(0);
  const GcnModel& model = BenchModel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        NodeInfluence::Compute(model, g, InfluenceMode::kExactJacobian));
  }
}
BENCHMARK(BM_ExactJacobianInfluence);

void BM_RandomWalkInfluence(benchmark::State& state) {
  const Graph& g = BenchDb().graph(0);
  const GcnModel& model = BenchModel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        NodeInfluence::Compute(model, g, InfluenceMode::kRandomWalk));
  }
}
BENCHMARK(BM_RandomWalkInfluence);

void BM_SubgraphIsomorphism(benchmark::State& state) {
  const Graph& g = BenchDb().graph(1);
  Graph nitro;
  NodeId n = nitro.AddNode(1);
  NodeId o1 = nitro.AddNode(2);
  NodeId o2 = nitro.AddNode(2);
  (void)nitro.AddEdge(n, o1);
  (void)nitro.AddEdge(n, o2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilteredFindMatches(nitro, g));
  }
}
BENCHMARK(BM_SubgraphIsomorphism);

// Explanation-sized coverage work as Psum does it: PGen candidates (up to
// 3 nodes, as the benchmark workloads mine) over a group of subgraphs, one
// coverage per (candidate, subgraph). Arg 0: MUT-like molecules cut to
// 12-node connected subgraphs; arg 1: MAL-like directed call graphs cut
// to 15 nodes.
struct CoverageWork {
  std::vector<Graph> subgraphs;
  std::vector<Pattern> candidates;
  size_t calls() const { return subgraphs.size() * candidates.size(); }
};

// The first `k` nodes reached by BFS from node 0, edges in either
// orientation.
std::vector<NodeId> BfsPrefix(const Graph& g, int k) {
  std::vector<std::vector<NodeId>> nbrs(static_cast<size_t>(g.num_nodes()));
  for (const Edge& e : g.edges()) {
    nbrs[static_cast<size_t>(e.u)].push_back(e.v);
    nbrs[static_cast<size_t>(e.v)].push_back(e.u);
  }
  std::vector<bool> seen(static_cast<size_t>(g.num_nodes()), false);
  std::vector<NodeId> order{0};
  seen[0] = true;
  for (size_t head = 0;
       head < order.size() && static_cast<int>(order.size()) < k; ++head) {
    for (NodeId u : nbrs[static_cast<size_t>(order[head])]) {
      if (seen[static_cast<size_t>(u)]) continue;
      seen[static_cast<size_t>(u)] = true;
      order.push_back(u);
      if (static_cast<int>(order.size()) == k) break;
    }
  }
  std::sort(order.begin(), order.end());
  return order;
}

const CoverageWork& CoverageWorkFor(int shape) {
  static const CoverageWork* works[2] = {nullptr, nullptr};
  if (works[shape] == nullptr) {
    GraphDatabase db;
    if (shape == 0) {
      MutagenicityOptions opt;
      opt.num_graphs = 12;
      db = GenerateMutagenicity(opt);
    } else {
      MalnetOptions opt;
      opt.num_graphs = 10;
      db = GenerateMalnet(opt);
    }
    auto* work = new CoverageWork;
    const int k = shape == 0 ? 12 : 15;
    for (int i = 0; i < db.size(); ++i) {
      work->subgraphs.push_back(
          ExtractInducedSubgraph(db.graph(i), BfsPrefix(db.graph(i), k))
              .value()
              .graph);
    }
    MinerOptions opt;
    opt.max_pattern_nodes = 3;
    for (MinedPattern& mp : MinePatterns(work->subgraphs, opt)) {
      work->candidates.push_back(std::move(mp.pattern));
    }
    works[shape] = work;
  }
  return *works[shape];
}

// The blind oracle, enumerating matches under the default cap and marking
// each matched pattern edge by a scan of the edge list.
void BM_CoverageOracle(benchmark::State& state) {
  const CoverageWork& work = CoverageWorkFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    int covered = 0;
    for (const Pattern& p : work.candidates) {
      for (const Graph& g : work.subgraphs) {
        covered += oracle::BlindCoverage(p, g).CountNodes();
      }
    }
    benchmark::DoNotOptimize(covered);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(work.calls()));
}
BENCHMARK(BM_CoverageOracle)->Arg(0)->Arg(1);

// The production path: each subgraph and each candidate prepared once
// (inside the timed loop), then the exact-union coverage per pair.
void BM_CoverageProduction(benchmark::State& state) {
  const CoverageWork& work = CoverageWorkFor(static_cast<int>(state.range(0)));
  std::vector<const Graph*> ptrs;
  for (const Graph& g : work.subgraphs) ptrs.push_back(&g);
  for (auto _ : state) {
    const std::vector<PreparedGraph> prepared = PrepareGraphs(ptrs);
    int covered = 0;
    for (const Pattern& p : work.candidates) {
      const PreparedGraph pattern(p.graph());
      for (const PreparedGraph& g : prepared) {
        covered += ComputeCoverage(pattern, g).CountNodes();
      }
    }
    benchmark::DoNotOptimize(covered);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(work.calls()));
}
BENCHMARK(BM_CoverageProduction)->Arg(0)->Arg(1);

void BM_CanonicalCode(benchmark::State& state) {
  Graph ring;
  for (int i = 0; i < 6; ++i) ring.AddNode(i % 2);
  for (int i = 0; i < 6; ++i) (void)ring.AddEdge(i, (i + 1) % 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CanonicalCode(ring));
  }
}
BENCHMARK(BM_CanonicalCode);

void BM_PatternMining(benchmark::State& state) {
  std::vector<const Graph*> graphs;
  for (int i = 0; i < 4; ++i) graphs.push_back(&BenchDb().graph(i));
  MinerOptions opt;
  opt.max_pattern_nodes = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinePatterns(graphs, opt));
  }
}
BENCHMARK(BM_PatternMining);

}  // namespace
}  // namespace gvex

BENCHMARK_MAIN();
