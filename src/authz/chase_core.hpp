// Internal machinery of the chase (IncrementalClosure, incremental.cpp,
// which ChaseClosure wraps): the edge bitsets (endpoint visibility and join
// paths), the join-edge index, the subsumption-aware rule pool, and the
// semi-naïve fixpoint loop itself.
//
// The loop is parameterized by `delta_begin`: a from-scratch server chase
// starts it at 0 (every initial rule is delta), while an incremental grant
// appends the new rule to a persistent pool and starts the loop at the old
// pool size — the textbook semi-naïve delta round, so a grant only pays for
// the pairs its own derivations introduce. Nothing here is part of the
// public authz API.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "authz/authorization.hpp"
#include "authz/chase.hpp"
#include "catalog/catalog.hpp"

namespace cisqp::authz::chase_internal {

/// A bitset over the catalog's join edges (bit e is cat.join_edges()[e]),
/// viewing words its owner stores: RulePool keeps every rule's masks in one
/// flat array, so a rule costs no mask allocations and the pair loop reads
/// contiguous memory. Federations declare tens of edges, so one or two
/// words cover the whole schema.
class EdgeBits {
 public:
  explicit EdgeBits(std::span<const std::uint64_t> words) : words_(words) {}

  bool Test(std::size_t bit) const noexcept {
    return ((words_[bit >> 6] >> (bit & 63)) & 1) != 0;
  }

  /// |a ∪ b|.
  static std::size_t UnionCount(EdgeBits a, EdgeBits b) {
    std::size_t count = 0;
    for (std::size_t w = 0; w < a.words_.size(); ++w) {
      count += static_cast<std::size_t>(std::popcount(a.words_[w] | b.words_[w]));
    }
    return count;
  }

  /// How many edges ForEachJoinable would visit.
  static std::size_t CountJoinable(EdgeBits left_a, EdgeBits right_a,
                                   EdgeBits left_b, EdgeBits right_b) {
    std::size_t count = 0;
    for (std::size_t w = 0; w < left_a.words_.size(); ++w) {
      count += static_cast<std::size_t>(
          std::popcount(Joinable(left_a, right_a, left_b, right_b, w)));
    }
    return count;
  }

  /// Invokes `fn(edge_index)` for every edge set in
  /// (a.left & b.right) | (a.right & b.left) — the edges whose endpoints are
  /// visible one through each rule, in ascending edge order.
  template <typename Fn>
  static void ForEachJoinable(EdgeBits left_a, EdgeBits right_a,
                              EdgeBits left_b, EdgeBits right_b, Fn&& fn) {
    for (std::size_t w = 0; w < left_a.words_.size(); ++w) {
      std::uint64_t word = Joinable(left_a, right_a, left_b, right_b, w);
      while (word != 0) {
        const int bit = std::countr_zero(word);
        word &= word - 1;
        fn((w << 6) + static_cast<std::size_t>(bit));
      }
    }
  }

 private:
  static std::uint64_t Joinable(EdgeBits left_a, EdgeBits right_a,
                                EdgeBits left_b, EdgeBits right_b,
                                std::size_t w) {
    return (left_a.words_[w] & right_b.words_[w]) |
           (right_a.words_[w] & left_b.words_[w]);
  }

  std::span<const std::uint64_t> words_;
};

/// cat.join_edges() indexed by endpoint attribute (for each attribute, the
/// edges it is the left (resp. right) endpoint of) and by atom. Built once
/// per closure and shared read-only by every server task.
///
/// Catalog::AddJoinEdge stores each edge once, normalized like a JoinAtom,
/// so edge e's atom is bit e of a path mask.
class EdgeIndex {
 public:
  explicit EdgeIndex(const catalog::Catalog& cat) : cat_(cat) {
    const std::vector<catalog::JoinEdge>& edges = cat.join_edges();
    words_ = (edges.size() + 63) / 64;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      left_of_[edges[e].left].push_back(e);
      right_of_[edges[e].right].push_back(e);
      const bool unique =
          edge_of_atom_.emplace(JoinAtom::Make(edges[e].left, edges[e].right), e)
              .second;
      CISQP_CHECK_MSG(unique, "join edge declared twice");
    }
  }

  const catalog::JoinEdge& edge(std::size_t e) const {
    return cat_.join_edges()[e];
  }
  /// Words per mask.
  std::size_t words() const noexcept { return words_; }

  /// Sets in `out` the edges whose left (resp. right) endpoint is visible
  /// in `attrs`.
  void MarkLeftVisible(const IdSet& attrs, std::span<std::uint64_t> out) const {
    Mark(left_of_, attrs, out);
  }
  void MarkRightVisible(const IdSet& attrs, std::span<std::uint64_t> out) const {
    Mark(right_of_, attrs, out);
  }

  /// Sets in `out` the atoms of `path` that are schema edges and returns
  /// how many are not (a base rule may name any cross-relation atom; the
  /// chase only ever adds edges).
  std::size_t MarkPath(const JoinPath& path, std::span<std::uint64_t> out) const {
    std::size_t non_edge_atoms = 0;
    for (const JoinAtom& atom : path.atoms()) {
      const auto it = edge_of_atom_.find(atom);
      if (it == edge_of_atom_.end()) {
        ++non_edge_atoms;
      } else {
        Set(out, it->second);
      }
    }
    return non_edge_atoms;
  }

 private:
  static void Set(std::span<std::uint64_t> out, std::size_t bit) {
    out[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }

  static void Mark(
      const std::map<catalog::AttributeId, std::vector<std::size_t>>& index,
      const IdSet& attrs, std::span<std::uint64_t> out) {
    for (const catalog::AttributeId attr : attrs) {
      const auto it = index.find(attr);
      if (it == index.end()) continue;
      for (const std::size_t e : it->second) Set(out, e);
    }
  }

  const catalog::Catalog& cat_;
  std::size_t words_ = 0;
  std::map<catalog::AttributeId, std::vector<std::size_t>> left_of_;
  std::map<catalog::AttributeId, std::vector<std::size_t>> right_of_;
  std::map<JoinAtom, std::size_t> edge_of_atom_;
};

/// Working form of a server's rule set: the rules in derivation order, each
/// with three edge masks, plus a per-path subsumption index.
class RulePool {
 public:
  explicit RulePool(const EdgeIndex& index) : index_(&index) {}

  struct Rule {
    IdSet attrs;
    JoinPath path;
    std::size_t non_edge_atoms = 0;  ///< path atoms that are not schema edges
  };

  /// Adds unless an existing same-path rule already grants a superset of
  /// attributes. Returns true when the pool changed.
  bool AddIfNovel(IdSet attrs, JoinPath path) {
    std::vector<IdSet>& grants = by_path_[path];
    for (const IdSet& existing : grants) {
      if (attrs.IsSubsetOf(existing)) return false;
    }
    grants.push_back(attrs);
    const std::size_t words = index_->words();
    masks_.resize(masks_.size() + kMasks * words, 0);
    const std::span<std::uint64_t> masks(
        masks_.data() + rules_.size() * kMasks * words, kMasks * words);
    index_->MarkLeftVisible(attrs, masks.subspan(0, words));
    index_->MarkRightVisible(attrs, masks.subspan(words, words));
    const std::size_t non_edge_atoms =
        index_->MarkPath(path, masks.subspan(2 * words, words));
    rules_.push_back(Rule{std::move(attrs), std::move(path), non_edge_atoms});
    return true;
  }

  std::size_t size() const noexcept { return rules_.size(); }
  const Rule& rule(std::size_t i) const { return rules_[i]; }
  const std::vector<Rule>& rules() const noexcept { return rules_; }

  /// Rule i's edges whose left (resp. right) endpoint is in its attributes.
  /// Mask views stay valid until the next AddIfNovel.
  EdgeBits left(std::size_t i) const { return Mask(i, 0); }
  EdgeBits right(std::size_t i) const { return Mask(i, 1); }
  /// Rule i's path atoms that are schema edges.
  EdgeBits path_bits(std::size_t i) const { return Mask(i, 2); }

 private:
  static constexpr std::size_t kMasks = 3;

  EdgeBits Mask(std::size_t i, std::size_t which) const {
    const std::size_t words = index_->words();
    return EdgeBits(std::span<const std::uint64_t>(
        masks_.data() + (kMasks * i + which) * words, words));
  }

  const EdgeIndex* index_;
  std::vector<Rule> rules_;
  std::vector<std::uint64_t> masks_;  ///< per rule: left, right, path_bits
  std::map<JoinPath, std::vector<IdSet>> by_path_;
};

/// The kResourceExhausted error every cap site reports identically.
Status ExceededCap(const ChaseOptions& options);

/// Semi-naïve fixpoint over `pool` for one server, starting from the delta
/// `[delta_begin, pool.size())`. Round k pairs only the delta (rules first
/// seen in round k-1) against everything older, so each unordered rule pair
/// is visited exactly once over the whole run; the edge masks restrict a
/// pair to the edges it can fire. New derivations are buffered per round and
/// inserted after the scan — rules are never moved while references into the
/// pool are live, so nothing is copied per pair.
///
/// Under ChaseOptions::max_path_atoms the path-cap verdict is decided per
/// pair before any path is built: a derived path is Pi ∪ Pj plus the fired
/// edge's atom, so |Pi ∪ Pj| (a popcount of the path masks, or a sorted
/// merge when either path has a non-edge atom) over the cap rules out every
/// edge of the pair, and |Pi ∪ Pj| at the cap admits only edges whose atom
/// is already in the union. Skipped edges still count in
/// stats.pairs_considered, so the stats, like the derived rules and their
/// order, are those of building and testing every candidate path.
///
/// `stats` accumulates across the call; the cap compares the accumulated
/// stats.derived_rules against options.max_derived_rules, so a caller
/// spreading one budget over several calls seeds the field with the running
/// total. Returns kResourceExhausted when the cap trips (the pool is then
/// partially extended and should be discarded).
Status RunSemiNaive(const catalog::Catalog& cat, const EdgeIndex& index,
                    RulePool& pool, std::size_t delta_begin,
                    catalog::ServerId server, const ChaseOptions& options,
                    ChaseStats& stats);

}  // namespace cisqp::authz::chase_internal
