#include "pattern/matcher.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "util/bitops.h"

namespace gvex {

namespace {

// One neighbor-signature key: (neighbor node type, edge type), packed so
// signatures sort and compare as plain integers.
uint64_t SignatureKey(int node_type, int edge_type) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(node_type)) << 32) |
         static_cast<uint32_t>(edge_type);
}

// Placement ranks of the blind VF2 backtracker the match set is pinned to
// (highest-degree start, then most placed out-neighbors, degree
// tie-break). Its accept predicate resolves a pair's effective edge type
// from the EARLIER-placed node's perspective, which matters when a pair is
// connected in both orientations with different types — so to reproduce
// its match set exactly while searching in a different order, Feasible
// below assigns pair roles by these ranks, not by our own placement order.
std::vector<int> BlindRank(const Graph& p) {
  const int np = p.num_nodes();
  std::vector<int> rank(static_cast<size_t>(np), 0);
  if (np == 0) return rank;
  std::vector<bool> placed(static_cast<size_t>(np), false);
  int start = 0;
  for (int v = 1; v < np; ++v) {
    if (p.degree(v) > p.degree(start)) start = v;
  }
  placed[static_cast<size_t>(start)] = true;
  int next_rank = 0;
  rank[static_cast<size_t>(start)] = next_rank++;
  while (next_rank < np) {
    int best = -1;
    int best_conn = -1;
    for (int v = 0; v < np; ++v) {
      if (placed[static_cast<size_t>(v)]) continue;
      int conn = 0;
      for (const Neighbor& nb : p.neighbors(v)) {
        if (placed[static_cast<size_t>(nb.node)]) ++conn;
      }
      if (conn > best_conn ||
          (conn == best_conn && best != -1 &&
           p.degree(v) > p.degree(best))) {
        best = v;
        best_conn = conn;
      }
    }
    placed[static_cast<size_t>(best)] = true;
    rank[static_cast<size_t>(best)] = next_rank++;
  }
  return rank;
}

}  // namespace

PreparedGraph::PreparedGraph(const Graph& graph) : graph_(&graph) {
  const Graph& g = graph;
  const size_t n = static_cast<size_t>(g.num_nodes());
  const std::vector<Edge>& edges = g.edges();
  words_ = bitops::WordsForBits(n);

  // Incident entries straight from the edge list, so each knows its edge
  // index; per node, sort by neighbor and fold a pair joined in both
  // orientations into one entry carrying its first edge.
  struct Entry {
    NodeId nb;
    int edge;
    uint8_t dir;
    int type;
  };
  std::vector<int> raw_off(n + 1, 0);
  for (const Edge& e : edges) {
    ++raw_off[static_cast<size_t>(e.u) + 1];
    ++raw_off[static_cast<size_t>(e.v) + 1];
  }
  for (size_t v = 0; v < n; ++v) raw_off[v + 1] += raw_off[v];
  std::vector<Entry> raw(static_cast<size_t>(raw_off[n]));
  std::vector<int> fill(raw_off.begin(), raw_off.end() - 1);
  const uint8_t fwd = g.directed() ? 1 : 3;
  const uint8_t bwd = g.directed() ? 2 : 3;
  for (size_t ei = 0; ei < edges.size(); ++ei) {
    const Edge& e = edges[ei];
    raw[static_cast<size_t>(fill[static_cast<size_t>(e.u)]++)] = {
        e.v, static_cast<int>(ei), fwd, e.edge_type};
    raw[static_cast<size_t>(fill[static_cast<size_t>(e.v)]++)] = {
        e.u, static_cast<int>(ei), bwd, e.edge_type};
  }
  inc_off_.assign(n + 1, 0);
  inc_.reserve(raw.size());
  inc_edge_.reserve(raw.size());
  inc_dir_.reserve(raw.size());
  inc_type_.reserve(raw.size());
  std::vector<int> in_type;  // per entry, the type of nb->v (-1 = none)
  in_type.reserve(raw.size());
  for (size_t v = 0; v < n; ++v) {
    auto begin = raw.begin() + raw_off[v];
    auto end = raw.begin() + raw_off[v + 1];
    std::sort(begin, end, [](const Entry& a, const Entry& b) {
      return a.nb != b.nb ? a.nb < b.nb : a.edge < b.edge;
    });
    for (auto it = begin; it != end; ++it) {
      if (static_cast<int>(inc_.size()) == inc_off_[v] ||
          inc_.back() != it->nb) {
        inc_.push_back(it->nb);
        inc_edge_.push_back(it->edge);
        inc_dir_.push_back(0);
        inc_type_.push_back(-1);
        in_type.push_back(-1);
      }
      inc_dir_.back() = static_cast<uint8_t>(inc_dir_.back() | it->dir);
      if ((it->dir & 1) != 0) inc_type_.back() = it->type;
      if ((it->dir & 2) != 0) in_type.back() = it->type;
    }
    inc_off_[v + 1] = static_cast<int>(inc_.size());
  }
  // PairType(v, nb): the type of v->nb when that is >= 0, else of nb->v.
  for (size_t k = 0; k < inc_type_.size(); ++k) {
    if (inc_type_[k] < 0) inc_type_[k] = in_type[k];
  }

  // Neighbor signatures. Undirected graphs key on (neighbor type, edge
  // type). Directed graphs key on neighbor type only, over the symmetric
  // closure: the pinned matcher resolves a directed pair's effective edge
  // type orientation- (and placement-order-) dependently, so edge type
  // cannot soundly constrain a directed signature.
  sig_off_.assign(n + 1, 0);
  std::vector<uint64_t> keys;
  for (size_t v = 0; v < n; ++v) {
    keys.clear();
    for (int k = inc_off_[v]; k < inc_off_[v + 1]; ++k) {
      const size_t uk = static_cast<size_t>(k);
      keys.push_back(SignatureKey(
          g.node_type(inc_[uk]),
          g.directed()
              ? 0
              : edges[static_cast<size_t>(inc_edge_[uk])].edge_type));
    }
    std::sort(keys.begin(), keys.end());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i > 0 && keys[i] == keys[i - 1]) {
        ++sig_count_.back();
      } else {
        sig_key_.push_back(keys[i]);
        sig_count_.push_back(1);
      }
    }
    sig_off_[v + 1] = static_cast<int>(sig_key_.size());
  }

  // Adjacency bitsets over the symmetric closure: a directed pattern edge
  // may map onto a target edge of either orientation.
  adj_.assign(n * words_, 0);
  for (size_t v = 0; v < n; ++v) {
    for (int k = inc_off_[v]; k < inc_off_[v + 1]; ++k) {
      bitops::SetBit(adj_.data() + v * words_,
                     static_cast<size_t>(inc_[static_cast<size_t>(k)]));
    }
  }

  by_type_.resize(n);
  std::iota(by_type_.begin(), by_type_.end(), 0);
  std::stable_sort(by_type_.begin(), by_type_.end(),
                   [&g](NodeId a, NodeId b) {
                     return g.node_type(a) < g.node_type(b);
                   });
}

bool PreparedGraph::Adjacent(NodeId u, NodeId v) const {
  return bitops::TestBit(AdjRow(u), static_cast<size_t>(v));
}

int PreparedGraph::FindIncident(NodeId u, NodeId v) const {
  const auto begin = inc_.begin() + inc_off_[static_cast<size_t>(u)];
  const auto end = inc_.begin() + inc_off_[static_cast<size_t>(u) + 1];
  const auto it = std::lower_bound(begin, end, v);
  return it == end || *it != v ? -1 : static_cast<int>(it - inc_.begin());
}

int PreparedGraph::PairType(NodeId u, NodeId v) const {
  const int k = FindIncident(u, v);
  return k < 0 ? -1 : inc_type_[static_cast<size_t>(k)];
}

int PreparedGraph::PairEdge(NodeId u, NodeId v) const {
  const int k = FindIncident(u, v);
  return k < 0 ? -1 : inc_edge_[static_cast<size_t>(k)];
}

std::vector<PreparedGraph> PrepareGraphs(
    const std::vector<const Graph*>& graphs) {
  std::vector<PreparedGraph> out;
  out.reserve(graphs.size());
  for (const Graph* g : graphs) out.emplace_back(*g);
  return out;
}

namespace matcher_internal {

// One (pattern, target) run: candidate bitsets over target nodes, then
// backtracking over them. Pattern nodes can be pinned to one target node,
// which is how MarkUnion asks "is there an embedding through this node /
// edge?".
class FilteredMatcher {
 public:
  FilteredMatcher(const PreparedGraph& pattern, const PreparedGraph& target,
                  const MatchOptions& options, MatcherStats* stats)
      : pat_(pattern),
        tgt_(target),
        p_(pattern.graph()),
        g_(target.graph()),
        opt_(options),
        stats_(stats) {}

  // Phase 1: label + degree + signature filter, then Ullmann refinement.
  // Returns false when some pattern node has no surviving candidate.
  bool Filter() {
    const int np = p_.num_nodes();
    const int nt = g_.num_nodes();
    words_ = tgt_.words_;
    cand_.assign(static_cast<size_t>(np) * words_, 0);
    if (np > nt) return false;

    const std::vector<NodeId>& by_type = tgt_.by_type_;
    for (int pv = 0; pv < np; ++pv) {
      const int type = p_.node_type(pv);
      auto lo = std::lower_bound(
          by_type.begin(), by_type.end(), type,
          [this](NodeId v, int t) { return g_.node_type(v) < t; });
      bool empty = true;
      for (auto it = lo; it != by_type.end() && g_.node_type(*it) == type;
           ++it) {
        const NodeId gv = *it;
        // Every placement requires out-degree(pv) <= out-degree(gv), as
        // the pinned blind matcher does; distinct pattern neighbors also
        // map injectively to distinct target neighbors.
        if (p_.degree(pv) > g_.degree(gv)) continue;
        if (pat_.IncidentCount(pv) > tgt_.IncidentCount(gv)) continue;
        if (!SignatureCovers(gv, pv)) continue;
        bitops::SetBit(MutableCandRow(pv), static_cast<size_t>(gv));
        empty = false;
      }
      if (empty) return false;
    }

    // Ullmann refinement to a fixpoint: gv stays a candidate for pv only
    // while every pattern neighbor pu of pv (either orientation) still has
    // a candidate among gv's neighbors. Sound: in any match pv->gv, pu
    // maps to such a node, so a refuted gv can appear in no match.
    bool changed = true;
    while (changed) {
      changed = false;
      for (int pv = 0; pv < np; ++pv) {
        uint64_t* cands = MutableCandRow(pv);
        bool empty = true;
        for (size_t wi = 0; wi < words_; ++wi) {
          uint64_t w = cands[wi];
          while (w != 0) {
            const size_t gv =
                (wi << 6) + static_cast<size_t>(__builtin_ctzll(w));
            w &= w - 1;
            for (int k = pat_.inc_off_[static_cast<size_t>(pv)];
                 k < pat_.inc_off_[static_cast<size_t>(pv) + 1]; ++k) {
              const NodeId pu = pat_.inc_[static_cast<size_t>(k)];
              if (!bitops::Intersects(CandRow(pu),
                                      tgt_.AdjRow(static_cast<NodeId>(gv)),
                                      words_)) {
                cands[wi] &= ~(uint64_t{1} << (gv & 63));
                changed = true;
                break;
              }
            }
          }
          if (cands[wi] != 0) empty = false;
        }
        if (empty) return false;
      }
    }

    cand_count_.resize(static_cast<size_t>(np));
    for (int pv = 0; pv < np; ++pv) {
      cand_count_[static_cast<size_t>(pv)] =
          bitops::Popcount(CandRow(pv), words_);
      if (stats_ != nullptr) {
        stats_->candidates += cand_count_[static_cast<size_t>(pv)];
      }
    }
    return true;
  }

  // Phase 2: backtracking over the surviving candidates (and pins),
  // most-constrained-first. Each call has its own max_steps budget.
  // Returns the verdict; matches land in results().
  MatchVerdict Search(bool stop_at_first) {
    if (mapping_.empty()) {
      blind_rank_ = BlindRank(p_);
      mapping_.assign(static_cast<size_t>(p_.num_nodes()), -1);
      pin_.assign(static_cast<size_t>(p_.num_nodes()), -1);
      used_.assign(static_cast<size_t>(g_.num_nodes()), 0);
    }
    stop_at_first_ = stop_at_first;
    results_.clear();
    steps_ = 0;
    BuildOrder();
    const bool completed = Backtrack(0);
    if (stats_ != nullptr) stats_->steps += static_cast<uint64_t>(steps_);
    if (!results_.empty()) return MatchVerdict::kMatch;
    // An aborted search that found nothing proves nothing — unless the
    // abort reason was "enough matches", impossible with zero results.
    return completed ? MatchVerdict::kNoMatch : MatchVerdict::kUnknown;
  }

  // Exact union of all embeddings (see MarkEmbeddingUnion). Requires a
  // successful Filter().
  void MarkUnion(std::vector<bool>* nodes, std::vector<bool>* edges) {
    if (Search(/*stop_at_first=*/true) != MatchVerdict::kMatch) return;
    for (int k = 0; k < p_.num_nodes(); ++k) {
      for (int i = pat_.inc_off_[static_cast<size_t>(k)];
           i < pat_.inc_off_[static_cast<size_t>(k) + 1]; ++i) {
        const NodeId pw = pat_.inc_[static_cast<size_t>(i)];
        if (pw > k) pattern_pairs_.emplace_back(k, pw);
      }
    }
    Mark(nodes, edges);
    // Nodes: a still-uncovered target node is covered iff an embedding
    // maps some pattern node onto it.
    for (NodeId gv = 0; gv < g_.num_nodes(); ++gv) {
      if ((*nodes)[static_cast<size_t>(gv)]) continue;
      for (int pv = 0; pv < p_.num_nodes(); ++pv) {
        if (IsCandidate(pv, gv) && FindPinned(pv, gv, -1, -1)) {
          Mark(nodes, edges);
          break;
        }
      }
    }
    // Edges: each target pair once, as its first edge. Only a pair whose
    // endpoints are both covered can be, by an embedding mapping some
    // pattern pair onto it in one of two ways.
    for (NodeId a = 0; a < g_.num_nodes(); ++a) {
      if (!(*nodes)[static_cast<size_t>(a)]) continue;
      for (int k = tgt_.inc_off_[static_cast<size_t>(a)];
           k < tgt_.inc_off_[static_cast<size_t>(a) + 1]; ++k) {
        const NodeId b = tgt_.inc_[static_cast<size_t>(k)];
        const size_t e = static_cast<size_t>(tgt_.inc_edge_[static_cast<size_t>(k)]);
        if (b < a || (*edges)[e] || !(*nodes)[static_cast<size_t>(b)]) {
          continue;
        }
        for (const auto& [pu, pw] : pattern_pairs_) {
          if ((IsCandidate(pu, a) && IsCandidate(pw, b) &&
               FindPinned(pu, a, pw, b)) ||
              (IsCandidate(pu, b) && IsCandidate(pw, a) &&
               FindPinned(pu, b, pw, a))) {
            Mark(nodes, edges);
            break;
          }
        }
      }
    }
  }

  std::vector<Match> TakeResults() { return std::move(results_); }
  const uint64_t* CandRow(int pv) const {
    return cand_.data() + static_cast<size_t>(pv) * words_;
  }

 private:
  uint64_t* MutableCandRow(int pv) {
    return cand_.data() + static_cast<size_t>(pv) * words_;
  }
  bool IsCandidate(int pv, NodeId gv) const {
    return bitops::TestBit(CandRow(pv), static_cast<size_t>(gv));
  }

  // Every key of pv's signature present at gv with at least its count.
  bool SignatureCovers(NodeId gv, int pv) const {
    int i = tgt_.sig_off_[static_cast<size_t>(gv)];
    const int iend = tgt_.sig_off_[static_cast<size_t>(gv) + 1];
    for (int k = pat_.sig_off_[static_cast<size_t>(pv)];
         k < pat_.sig_off_[static_cast<size_t>(pv) + 1]; ++k) {
      const uint64_t key = pat_.sig_key_[static_cast<size_t>(k)];
      while (i < iend && tgt_.sig_key_[static_cast<size_t>(i)] < key) ++i;
      if (i == iend || tgt_.sig_key_[static_cast<size_t>(i)] != key ||
          tgt_.sig_count_[static_cast<size_t>(i)] <
              pat_.sig_count_[static_cast<size_t>(k)]) {
        return false;
      }
    }
    return true;
  }

  // Early-exit search with pa -> ga (and pb -> gb when pb >= 0) fixed.
  bool FindPinned(int pa, NodeId ga, int pb, NodeId gb) {
    pin_[static_cast<size_t>(pa)] = ga;
    if (pb >= 0) pin_[static_cast<size_t>(pb)] = gb;
    const bool found = Search(/*stop_at_first=*/true) == MatchVerdict::kMatch;
    pin_[static_cast<size_t>(pa)] = -1;
    if (pb >= 0) pin_[static_cast<size_t>(pb)] = -1;
    return found;
  }

  // Marks the nodes and pair edges of the match just found.
  void Mark(std::vector<bool>* nodes, std::vector<bool>* edges) const {
    const Match& m = results_.back();
    for (NodeId v : m) (*nodes)[static_cast<size_t>(v)] = true;
    for (const auto& [pu, pw] : pattern_pairs_) {
      const int e = tgt_.PairEdge(m[static_cast<size_t>(pu)],
                                m[static_cast<size_t>(pw)]);
      if (e >= 0) (*edges)[static_cast<size_t>(e)] = true;
    }
  }

  size_t CandCount(int pv) const {
    return pin_[static_cast<size_t>(pv)] >= 0
               ? 1
               : cand_count_[static_cast<size_t>(pv)];
  }

  // Static order: start at the node with the fewest candidates; extend
  // connectivity-first (most placed neighbors), tie-breaking on candidate
  // count then degree, so the frontier stays maximally constrained.
  void BuildOrder() {
    const int np = p_.num_nodes();
    order_.clear();
    std::vector<bool> placed(static_cast<size_t>(np), false);
    int start = 0;
    for (int v = 1; v < np; ++v) {
      const size_t cv = CandCount(v);
      const size_t cs = CandCount(start);
      if (cv < cs || (cv == cs && p_.degree(v) > p_.degree(start))) {
        start = v;
      }
    }
    order_.push_back(start);
    placed[static_cast<size_t>(start)] = true;
    while (static_cast<int>(order_.size()) < np) {
      int best = -1;
      int best_conn = -1;
      size_t best_cands = 0;
      for (int v = 0; v < np; ++v) {
        if (placed[static_cast<size_t>(v)]) continue;
        int conn = 0;
        for (const Neighbor& nb : p_.neighbors(v)) {
          if (placed[static_cast<size_t>(nb.node)]) ++conn;
        }
        const size_t cands = CandCount(v);
        if (conn > best_conn ||
            (conn == best_conn &&
             (cands < best_cands ||
              (cands == best_cands && best != -1 &&
               p_.degree(v) > p_.degree(best))))) {
          best = v;
          best_conn = conn;
          best_cands = cands;
        }
      }
      order_.push_back(best);
      placed[static_cast<size_t>(best)] = true;
    }
  }

  bool Feasible(int pv, NodeId gv, int depth) const {
    // Type/degree/signature already vetted by the candidate set; only the
    // consistency against mapped neighbors remains. Pair roles follow the
    // blind matcher's placement ranks (see BlindRank) so the effective
    // edge type of a both-orientation pair resolves identically.
    for (int i = 0; i < depth; ++i) {
      int pa = order_[static_cast<size_t>(i)];
      int pb = pv;
      NodeId ga = mapping_[static_cast<size_t>(pa)];
      NodeId gb = gv;
      if (blind_rank_[static_cast<size_t>(pb)] <
          blind_rank_[static_cast<size_t>(pa)]) {
        std::swap(pa, pb);
        std::swap(ga, gb);
      }
      const bool g_edge = tgt_.Adjacent(ga, gb);
      if (pat_.Adjacent(pa, pb)) {
        if (!g_edge || pat_.PairType(pa, pb) != tgt_.PairType(ga, gb)) {
          return false;
        }
      } else if (opt_.semantics == MatchSemantics::kInduced && g_edge) {
        return false;
      }
    }
    return true;
  }

  bool TryCandidate(int pv, NodeId gv, int depth) {
    if (used_[static_cast<size_t>(gv)] != 0) return true;
    const NodeId pin = pin_[static_cast<size_t>(pv)];
    if (pin >= 0 ? pin != gv : !IsCandidate(pv, gv)) return true;
    if (!Feasible(pv, gv, depth)) return true;
    mapping_[static_cast<size_t>(pv)] = gv;
    used_[static_cast<size_t>(gv)] = 1;
    const bool keep = Backtrack(depth + 1);
    used_[static_cast<size_t>(gv)] = 0;
    mapping_[static_cast<size_t>(pv)] = -1;
    return keep;
  }

  // Returns false when the search should stop (budget or enough matches).
  bool Backtrack(int depth) {
    if (opt_.max_steps > 0 && ++steps_ > opt_.max_steps) return false;
    if (depth == p_.num_nodes()) {
      results_.push_back(mapping_);
      if (stop_at_first_) return false;
      if (opt_.max_matches > 0 &&
          static_cast<int>(results_.size()) >= opt_.max_matches) {
        return false;
      }
      return true;
    }
    const int pv = order_[static_cast<size_t>(depth)];
    int anchor = -1;
    for (int i = 0; i < depth; ++i) {
      const int pu = order_[static_cast<size_t>(i)];
      if (pat_.Adjacent(pu, pv)) {
        anchor = pu;
        break;
      }
    }
    if (anchor >= 0) {
      // Anchored: only neighbors of the anchor's image can work; intersect
      // that neighborhood with pv's candidate set via the O(1) bit test.
      const NodeId ga = mapping_[static_cast<size_t>(anchor)];
      for (const Neighbor& nb : g_.neighbors(ga)) {
        if (!TryCandidate(pv, nb.node, depth)) return false;
      }
      if (g_.directed()) {
        // Pure in-neighbors only: a both-orientation neighbor was already
        // tried above, and trying it again would emit a duplicate match.
        for (int k = tgt_.inc_off_[static_cast<size_t>(ga)];
             k < tgt_.inc_off_[static_cast<size_t>(ga) + 1]; ++k) {
          if (tgt_.inc_dir_[static_cast<size_t>(k)] == 2 &&
              !TryCandidate(pv, tgt_.inc_[static_cast<size_t>(k)], depth)) {
            return false;
          }
        }
      }
    } else if (pin_[static_cast<size_t>(pv)] >= 0) {
      return TryCandidate(pv, pin_[static_cast<size_t>(pv)], depth);
    } else {
      // Unanchored (first node, or a disconnected pattern component):
      // iterate the candidate set itself, one ctz per candidate.
      const uint64_t* cands = CandRow(pv);
      for (size_t wi = 0; wi < words_; ++wi) {
        uint64_t w = cands[wi];
        while (w != 0) {
          const NodeId gv = static_cast<NodeId>(
              (wi << 6) + static_cast<size_t>(__builtin_ctzll(w)));
          w &= w - 1;
          if (!TryCandidate(pv, gv, depth)) return false;
        }
      }
    }
    return true;
  }

  const PreparedGraph& pat_;
  const PreparedGraph& tgt_;
  const Graph& p_;
  const Graph& g_;
  MatchOptions opt_;
  MatcherStats* stats_;
  size_t words_ = 0;
  std::vector<uint64_t> cand_;      // np x words_ candidate bitsets
  std::vector<size_t> cand_count_;  // popcount per pattern node
  std::vector<NodeId> pin_;         // per pattern node; -1 = free
  std::vector<std::pair<int, int>> pattern_pairs_;  // adjacent, first < second
  std::vector<int> order_;
  std::vector<int> blind_rank_;
  Match mapping_;
  std::vector<uint8_t> used_;
  std::vector<Match> results_;
  int64_t steps_ = 0;
  bool stop_at_first_ = false;
};

}  // namespace matcher_internal

namespace {

using matcher_internal::FilteredMatcher;

// Shared driver: filter, then search.
MatchVerdict RunFiltered(const PreparedGraph& pattern,
                         const PreparedGraph& target,
                         const MatchOptions& options, bool stop_at_first,
                         MatcherStats* stats, std::vector<Match>* matches) {
  FilteredMatcher m(pattern, target, options, stats);
  if (!m.Filter()) {
    if (stats != nullptr) stats->filtered_out = true;
    return MatchVerdict::kNoMatch;
  }
  const MatchVerdict verdict = m.Search(stop_at_first);
  if (matches != nullptr) *matches = m.TakeResults();
  return verdict;
}

}  // namespace

bool BuildCandidateSets(const Graph& pattern, const Graph& target,
                        std::vector<std::vector<NodeId>>* candidates) {
  const PreparedGraph p(pattern);
  const PreparedGraph t(target);
  FilteredMatcher m(p, t, MatchOptions{}, nullptr);
  const bool feasible = m.Filter();
  const size_t words = bitops::WordsForBits(
      static_cast<size_t>(target.num_nodes()));
  candidates->assign(static_cast<size_t>(pattern.num_nodes()), {});
  for (size_t pv = 0; pv < candidates->size(); ++pv) {
    bitops::ForEachSetBit(m.CandRow(static_cast<int>(pv)), words,
                          [&](size_t gv) {
                            (*candidates)[pv].push_back(
                                static_cast<NodeId>(gv));
                          });
  }
  return feasible;
}

std::vector<Match> FilteredFindMatches(const Graph& pattern,
                                       const Graph& target,
                                       const MatchOptions& options,
                                       MatcherStats* stats) {
  if (pattern.num_nodes() == 0) return {};
  std::vector<Match> matches;
  (void)RunFiltered(PreparedGraph(pattern), PreparedGraph(target), options,
                    /*stop_at_first=*/false, stats, &matches);
  return matches;
}

bool FilteredContainsPattern(const Graph& target, const Graph& pattern,
                             const MatchOptions& options,
                             MatcherStats* stats) {
  if (pattern.num_nodes() == 0) return true;
  return FilteredContainsPattern(PreparedGraph(target),
                                 PreparedGraph(pattern), options, stats);
}

bool FilteredContainsPattern(const PreparedGraph& target,
                             const PreparedGraph& pattern,
                             const MatchOptions& options,
                             MatcherStats* stats) {
  if (pattern.graph().num_nodes() == 0) return true;
  return RunFiltered(pattern, target, options, /*stop_at_first=*/true, stats,
                     nullptr) == MatchVerdict::kMatch;
}

MatchVerdict FilteredContainsPatternBudgeted(const Graph& target,
                                             const Graph& pattern,
                                             const MatchOptions& options,
                                             MatcherStats* stats) {
  if (pattern.num_nodes() == 0) return MatchVerdict::kMatch;
  return RunFiltered(PreparedGraph(pattern), PreparedGraph(target), options,
                     /*stop_at_first=*/true, stats, nullptr);
}

void MarkEmbeddingUnion(const PreparedGraph& pattern,
                        const PreparedGraph& target,
                        const MatchOptions& options, std::vector<bool>* nodes,
                        std::vector<bool>* edges, MatcherStats* stats) {
  if (pattern.graph().num_nodes() == 0) return;
  FilteredMatcher m(pattern, target, options, stats);
  if (!m.Filter()) {
    if (stats != nullptr) stats->filtered_out = true;
    return;
  }
  m.MarkUnion(nodes, edges);
}

// --- McSplit-style maximum common subgraph ------------------------------

namespace {

// One label class: nodes of `a` (left) and `b` (right) that are pairwise
// compatible — same node type initially, refined by identical adjacency
// (presence + edge type) to every mapped pair.
struct LabelClass {
  std::vector<NodeId> left;
  std::vector<NodeId> right;
};

class McsSearcher {
 public:
  McsSearcher(const Graph& a, const Graph& b, const McsOptions& opt)
      : a_(a), b_(b), opt_(opt) {}

  McsResult Run() {
    // Initial partition by node type.
    std::map<int, LabelClass> by_type;
    for (NodeId v = 0; v < a_.num_nodes(); ++v) {
      by_type[a_.node_type(v)].left.push_back(v);
    }
    for (NodeId v = 0; v < b_.num_nodes(); ++v) {
      by_type[b_.node_type(v)].right.push_back(v);
    }
    std::vector<LabelClass> classes;
    for (auto& [type, cls] : by_type) {
      (void)type;
      if (!cls.left.empty() && !cls.right.empty()) {
        classes.push_back(std::move(cls));
      }
    }
    Search(classes);
    McsResult out;
    out.size = static_cast<int>(best_.size());
    out.exact = !exhausted_ && !stopped_;
    out.mapping = std::move(best_);
    std::sort(out.mapping.begin(), out.mapping.end());
    out.steps = steps_;
    return out;
  }

 private:
  // -1 encodes "no edge"; otherwise the edge type (checked both
  // orientations so undirected storage direction does not matter).
  int EdgeKey(const Graph& g, NodeId u, NodeId v) const {
    int t = g.EdgeType(u, v);
    if (t < 0 && !g.directed()) t = g.EdgeType(v, u);
    return t;
  }

  void Search(const std::vector<LabelClass>& classes) {
    if (stopped_ || exhausted_) return;
    if (opt_.max_steps > 0 && ++steps_ > opt_.max_steps) {
      exhausted_ = true;
      return;
    }
    if (current_.size() > best_.size()) {
      best_ = current_;
      if (opt_.target_size > 0 &&
          static_cast<int>(best_.size()) >= opt_.target_size) {
        stopped_ = true;
        return;
      }
    }
    // Soft bound: every class can contribute at most min(|left|, |right|).
    size_t bound = current_.size();
    for (const LabelClass& cls : classes) {
      bound += std::min(cls.left.size(), cls.right.size());
    }
    if (bound <= best_.size()) return;

    // min_max branching: the class with the smallest larger side.
    int pick = -1;
    size_t pick_metric = 0;
    for (size_t i = 0; i < classes.size(); ++i) {
      const size_t metric =
          std::max(classes[i].left.size(), classes[i].right.size());
      if (pick < 0 || metric < pick_metric) {
        pick = static_cast<int>(i);
        pick_metric = metric;
      }
    }
    if (pick < 0) return;
    const LabelClass& cls = classes[static_cast<size_t>(pick)];
    // Branch vertex: highest degree in `a` (most constraining), id tie.
    NodeId v = cls.left[0];
    for (NodeId u : cls.left) {
      if (a_.degree(u) > a_.degree(v)) v = u;
    }

    for (NodeId w : cls.right) {
      current_.emplace_back(v, w);
      // Split every class by adjacency (presence + edge type) to (v, w).
      std::vector<LabelClass> next;
      for (size_t i = 0; i < classes.size(); ++i) {
        const LabelClass& c = classes[static_cast<size_t>(i)];
        std::map<int, LabelClass> split;
        for (NodeId u : c.left) {
          if (u == v) continue;
          split[EdgeKey(a_, v, u)].left.push_back(u);
        }
        for (NodeId x : c.right) {
          if (x == w) continue;
          split[EdgeKey(b_, w, x)].right.push_back(x);
        }
        for (auto& [key, sub] : split) {
          (void)key;
          if (!sub.left.empty() && !sub.right.empty()) {
            next.push_back(std::move(sub));
          }
        }
      }
      Search(next);
      current_.pop_back();
      if (stopped_ || exhausted_) return;
    }

    // Branch with v unmatched: drop it from its class.
    std::vector<LabelClass> without = classes;
    LabelClass& mine = without[static_cast<size_t>(pick)];
    mine.left.erase(std::find(mine.left.begin(), mine.left.end(), v));
    if (!mine.left.empty()) {
      Search(without);
    } else {
      without.erase(without.begin() + pick);
      Search(without);
    }
  }

  const Graph& a_;
  const Graph& b_;
  McsOptions opt_;
  int64_t steps_ = 0;
  bool exhausted_ = false;
  bool stopped_ = false;
  std::vector<std::pair<NodeId, NodeId>> current_, best_;
};

}  // namespace

McsResult MaxCommonSubgraph(const Graph& a, const Graph& b,
                            const McsOptions& options) {
  McsSearcher searcher(a, b, options);
  return searcher.Run();
}

}  // namespace gvex
