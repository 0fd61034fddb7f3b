#include "authz/incremental.hpp"

#include <algorithm>
#include <utility>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cisqp::authz {

using chase_internal::EdgeIndex;
using chase_internal::RulePool;

namespace {

void AddStats(ChaseStats& total, const ChaseStats& run) {
  total.iterations += run.iterations;
  total.pairs_considered += run.pairs_considered;
  total.derived_rules += run.derived_rules;
}

}  // namespace

IdSet RuleRelations(const catalog::Catalog& cat, const Authorization& auth) {
  IdSet relations = auth.path.Relations(cat);
  for (const IdSet::value_type a : auth.attributes) {
    relations.Insert(cat.attribute(a).relation);
  }
  return relations;
}

IncrementalClosure::IncrementalClosure(const catalog::Catalog& cat,
                                       AuthorizationSet base,
                                       ChaseOptions options)
    : cat_(&cat),
      options_(options),
      index_(std::make_unique<EdgeIndex>(cat)),
      base_(std::move(base)) {}

Result<IncrementalClosure> IncrementalClosure::Build(
    const catalog::Catalog& cat, const AuthorizationSet& base,
    const ChaseOptions& options) {
  IncrementalClosure closure(cat, base, options);
  CISQP_RETURN_IF_ERROR(closure.ChaseAll());
  return closure;
}

Status IncrementalClosure::ChaseAll() {
  CISQP_TRACE_SPAN(span, "authz.chase");
  span.AddAttribute("input_rules", base_.size());
  const std::size_t servers = cat_->server_count();
  const std::size_t threads = options_.threads == 0
                                  ? ThreadPool::HardwareConcurrency()
                                  : options_.threads;
  span.AddAttribute("threads", threads);

  // Per-server closures are independent; fan them out, each server writing
  // only its own slots.
  pools_.assign(servers, RulePool(*index_));
  canon_.assign(servers, {});
  derived_.assign(servers, 0);
  std::vector<Status> runs(servers);
  std::vector<ChaseStats> run_stats(servers);
  {
    ThreadPool pool(std::min(threads, std::max<std::size_t>(servers, 1)));
    pool.ParallelFor(servers, [&](std::size_t s) {
      const auto server = static_cast<catalog::ServerId>(s);
      runs[s] = ChaseServer(server, pools_[s], run_stats[s]);
      if (runs[s].ok()) canon_[s] = Canonicalize(pools_[s]);
    });
  }

  // Reduce in server order. Each server ran under its own counter, but the
  // cap is a whole-closure budget: check it over the ordered running total,
  // so the closure, the stats and the cap verdict match at any thread count.
  ChaseStats total;
  capped_ = false;
  for (std::size_t s = 0; s < servers && !capped_; ++s) {
    AddStats(total, run_stats[s]);
    derived_[s] = run_stats[s].derived_rules;
    capped_ = !runs[s].ok() || total.derived_rules > options_.max_derived_rules;
  }
  AddStats(stats_, total);
  if (capped_) {
    // closed() serves the base until an edit's rechase fits again.
    pools_.clear();
    canon_.clear();
    closed_ = AuthorizationSet{};
    return Status::Ok();
  }
  CISQP_METRIC_ADD("chase.derived_rules", total.derived_rules);
  CISQP_METRIC_ADD("chase.pairs_considered", total.pairs_considered);
  span.AddAttribute("derived_rules", total.derived_rules);
  span.AddAttribute("iterations", total.iterations);
  for (catalog::ServerId s = 0; s < servers; ++s) {
    CISQP_RETURN_IF_ERROR(SyncClosed(s));
  }
  return Status::Ok();
}

Status IncrementalClosure::ChaseServer(catalog::ServerId server, RulePool& pool,
                                       ChaseStats& stats) const {
  for (const Authorization& auth : base_.ForServer(server)) {
    pool.AddIfNovel(auth.attributes, auth.path);
  }
  return chase_internal::RunSemiNaive(*cat_, *index_, pool, 0, server,
                                      options_, stats);
}

bool IncrementalClosure::OverClosureCap() const {
  std::size_t total = 0;
  for (const std::size_t d : derived_) total += d;
  return total > options_.max_derived_rules;
}

IncrementalClosure::CanonicalRules IncrementalClosure::Canonicalize(
    const RulePool& pool) {
  CanonicalRules canon;
  for (const RulePool::Rule& rule : pool.rules()) {
    canon[rule.path].push_back(rule.attrs);
  }
  for (auto& [path, grants] : canon) {
    std::vector<IdSet> kept;
    for (const IdSet& candidate : grants) {
      const bool subsumed =
          std::any_of(grants.begin(), grants.end(), [&](const IdSet& other) {
            return !(other == candidate) && candidate.IsSubsetOf(other);
          });
      if (!subsumed &&
          std::find(kept.begin(), kept.end(), candidate) == kept.end()) {
        kept.push_back(candidate);
      }
    }
    std::sort(kept.begin(), kept.end());
    grants = std::move(kept);
  }
  return canon;
}

Status IncrementalClosure::SyncClosed(catalog::ServerId server) {
  // Built aside and swapped in whole, so a failed Add leaves closed_ as it
  // was.
  AuthorizationSet slice;
  for (const auto& [path, grants] : canon_[server]) {
    for (const IdSet& attrs : grants) {
      CISQP_RETURN_IF_ERROR(
          slice.Add(*cat_, Authorization{attrs, path, server}));
    }
  }
  closed_.ReplaceServer(server, std::move(slice));
  return Status::Ok();
}

Status IncrementalClosure::Publish(catalog::ServerId server,
                                   CanonicalRules next, ClosureDelta& delta) {
  const CanonicalRules& prev = canon_[server];
  // Count the symmetric difference of the two canonical rule sets. Both
  // sides are path-sorted maps of sorted grant vectors, so per-path set
  // differences see everything.
  for (const auto& [path, grants] : next) {
    const auto it = prev.find(path);
    for (const IdSet& attrs : grants) {
      const bool existed =
          it != prev.end() &&
          std::binary_search(it->second.begin(), it->second.end(), attrs);
      if (!existed) ++delta.added_rules;
    }
  }
  for (const auto& [path, grants] : prev) {
    const auto it = next.find(path);
    for (const IdSet& attrs : grants) {
      const bool survives =
          it != next.end() &&
          std::binary_search(it->second.begin(), it->second.end(), attrs);
      if (!survives) ++delta.removed_rules;
    }
  }
  if (delta.added_rules == 0 && delta.removed_rules == 0) {
    // The canonical closure is unchanged, so no profile's verdict is:
    // every cache entry survives the edit.
    delta.relations = IdSet{};
    return Status::Ok();
  }
  delta.servers.Insert(server);
  // A server gaining its first rule (or losing its last) flips the
  // kNoRulesForServer deny reason for every profile probed at it, including
  // profiles over unrelated relations — selective retention is off the
  // table for this edit.
  if (prev.empty() != next.empty()) delta.full = true;

  canon_[server] = std::move(next);
  return SyncClosed(server);
}

Result<ClosureDelta> IncrementalClosure::RechaseAfter(const Authorization& auth,
                                                      bool grant,
                                                      ClosureDelta delta) {
  CISQP_RETURN_IF_ERROR(ChaseAll());
  delta.full = true;
  delta.servers.Insert(auth.server);
  (grant ? delta.added_rules : delta.removed_rules) = 1;
  return delta;
}

Result<ClosureDelta> IncrementalClosure::AddRule(const Authorization& auth) {
  CISQP_RETURN_IF_ERROR(base_.Add(*cat_, auth));
  CISQP_TRACE_SPAN(span, "authz.incremental.grant");
  CISQP_METRIC_INC("authz.incremental.grants");
  ClosureDelta delta;
  delta.relations = RuleRelations(*cat_, auth);
  if (capped_) return RechaseAfter(auth, /*grant=*/true, std::move(delta));

  RulePool& pool = pools_[auth.server];
  const std::size_t delta_begin = pool.size();
  if (!pool.AddIfNovel(auth.attributes, auth.path)) {
    // Subsumed by an existing closure rule: every derivation through the
    // new rule is subsumed by the corresponding derivation through the
    // subsuming rule, so the canonical closure (and every cache entry) is
    // unchanged.
    return ClosureDelta{};
  }
  // Seed the counter with this server's prior derived count so the cap
  // sees exactly what a from-scratch chase over the edited base would: the
  // server's existing derivations plus this delta round's — never other
  // servers' work or earlier edits' rechases.
  const std::size_t prior = derived_[auth.server];
  ChaseStats local;
  local.derived_rules = prior;
  const Status run = chase_internal::RunSemiNaive(
      *cat_, *index_, pool, delta_begin, auth.server, options_, local);
  derived_[auth.server] = local.derived_rules;
  local.derived_rules -= prior;
  AddStats(stats_, local);
  if (!run.ok() || OverClosureCap()) {
    return RechaseAfter(auth, /*grant=*/true, std::move(delta));
  }
  CISQP_RETURN_IF_ERROR(Publish(auth.server, Canonicalize(pool), delta));
  span.AddAttribute("added_rules", delta.added_rules);
  return delta;
}

Result<ClosureDelta> IncrementalClosure::RevokeRule(const Authorization& auth) {
  CISQP_RETURN_IF_ERROR(base_.Remove(*cat_, auth));
  CISQP_TRACE_SPAN(span, "authz.incremental.revoke");
  CISQP_METRIC_INC("authz.incremental.revokes");
  ClosureDelta delta;
  delta.relations = RuleRelations(*cat_, auth);
  if (capped_) return RechaseAfter(auth, /*grant=*/false, std::move(delta));

  // Fresh counter: the cap bounds this from-scratch chase of one server,
  // never chase work accumulated over the object's lifetime.
  RulePool pool(*index_);
  ChaseStats local;
  const Status run = ChaseServer(auth.server, pool, local);
  AddStats(stats_, local);
  derived_[auth.server] = local.derived_rules;
  if (!run.ok() || OverClosureCap()) {
    return RechaseAfter(auth, /*grant=*/false, std::move(delta));
  }
  CanonicalRules next = Canonicalize(pool);
  pools_[auth.server] = std::move(pool);
  CISQP_RETURN_IF_ERROR(Publish(auth.server, std::move(next), delta));
  span.AddAttribute("removed_rules", delta.removed_rules);
  return delta;
}

}  // namespace cisqp::authz
