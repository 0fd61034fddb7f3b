#include "authz/chase_core.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cisqp::authz::chase_internal {

namespace {

/// |Pi ∪ Pj| for pool rules i and j: a popcount of the path masks, or a
/// counting merge of the sorted atoms when either path has an atom the
/// masks cannot hold.
std::size_t UnionAtoms(const RulePool& pool, std::size_t i, std::size_t j) {
  const RulePool::Rule& a = pool.rule(i);
  const RulePool::Rule& b = pool.rule(j);
  if (a.non_edge_atoms == 0 && b.non_edge_atoms == 0) {
    return EdgeBits::UnionCount(pool.path_bits(i), pool.path_bits(j));
  }
  const std::vector<JoinAtom>& x = a.path.atoms();
  const std::vector<JoinAtom>& y = b.path.atoms();
  std::size_t count = 0;
  std::size_t p = 0;
  std::size_t q = 0;
  while (p < x.size() && q < y.size()) {
    if (x[p] < y[q]) {
      ++p;
    } else if (y[q] < x[p]) {
      ++q;
    } else {
      ++p;
      ++q;
    }
    ++count;
  }
  return count + (x.size() - p) + (y.size() - q);
}

}  // namespace

Status ExceededCap(const ChaseOptions& options) {
  return ResourceExhaustedError("chase closure exceeded max_derived_rules=" +
                                std::to_string(options.max_derived_rules));
}

Status RunSemiNaive(const catalog::Catalog& cat, const EdgeIndex& index,
                    RulePool& pool, std::size_t delta_begin,
                    catalog::ServerId server, const ChaseOptions& options,
                    ChaseStats& stats) {
  const std::size_t cap = options.max_path_atoms;
  std::vector<std::pair<IdSet, JoinPath>> pending;
  while (delta_begin < pool.size()) {
    ++stats.iterations;
    CISQP_METRIC_INC("chase.iterations");
    CISQP_TRACE_SPAN(round_span, "authz.chase.iteration");
    round_span.AddAttribute("server", cat.server(server).name);
    const std::size_t round_start_rules = stats.derived_rules;
    const std::size_t frozen = pool.size();
    pending.clear();
    for (std::size_t j = delta_begin; j < frozen; ++j) {
      const RulePool::Rule& rule_j = pool.rule(j);
      const EdgeBits left_j = pool.left(j);
      const EdgeBits right_j = pool.right(j);
      for (std::size_t i = 0; i < j; ++i) {
        const RulePool::Rule& rule_i = pool.rule(i);
        const EdgeBits left_i = pool.left(i);
        const EdgeBits right_i = pool.right(i);
        // The path-cap verdict for the whole pair, before building anything.
        bool at_cap = false;
        if (cap != 0) {
          const std::size_t union_atoms = UnionAtoms(pool, i, j);
          if (union_atoms > cap) {
            stats.pairs_considered +=
                EdgeBits::CountJoinable(left_i, right_i, left_j, right_j);
            continue;
          }
          at_cap = union_atoms == cap;
        }
        EdgeBits::ForEachJoinable(
            left_i, right_i, left_j, right_j, [&](std::size_t e) {
              ++stats.pairs_considered;
              // At the cap only an edge already in the union keeps the
              // derived path within it.
              if (at_cap && !pool.path_bits(i).Test(e) &&
                  !pool.path_bits(j).Test(e)) {
                return;
              }
              // One endpoint is visible through rule i, the other through
              // rule j: the server can join the two authorized views locally
              // on attributes it already sees. The derived rule is symmetric
              // in (i, j), so the unordered pair is derived once.
              const catalog::JoinEdge& edge = index.edge(e);
              JoinPath derived_path = JoinPath::Union(rule_i.path, rule_j.path);
              derived_path.Insert(JoinAtom::Make(edge.left, edge.right));
              if (cap != 0 && derived_path.size() > cap) return;
              pending.emplace_back(IdSet::Union(rule_i.attrs, rule_j.attrs),
                                   std::move(derived_path));
            });
      }
    }
    for (auto& [attrs, path] : pending) {
      if (!pool.AddIfNovel(std::move(attrs), std::move(path))) continue;
      if (++stats.derived_rules > options.max_derived_rules) {
        return ExceededCap(options);
      }
    }
    round_span.AddAttribute("rules_fired",
                            stats.derived_rules - round_start_rules);
    delta_begin = frozen;
  }
  return Status::Ok();
}

}  // namespace cisqp::authz::chase_internal
