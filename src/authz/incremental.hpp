// IncrementalClosure: the chase closure of a policy, computed once and then
// maintained under grant/revoke edits (DESIGN.md §16).
//
// Build runs the batch chase: every server's semi-naïve fixpoint from
// scratch, fanned out across a ThreadPool and reduced in server order.
// ChaseClosure (chase.hpp) is a thin wrapper over it, so the one-shot chase
// and the maintained one are the same code. The object keeps the per-server
// rule pools alive between edits and updates them as deltas:
//
//   grant   the new rule is appended to its server's persistent pool and
//           the semi-naïve loop resumes with the pool tail as the delta —
//           exactly the round the batch chase would have run had the rule
//           been present from the start (closure confluence: the minimized
//           fixpoint is insertion-order independent), paying only for the
//           pairs the new rule introduces. A grant subsumed by an existing
//           rule is a no-op on the closure.
//   revoke  derivations are not counted individually (the pool's novelty
//           check skips subsumed derivations, which makes per-rule
//           derivation counts ill-defined), so a revoke rederives the one
//           affected server from its surviving base rules. Other servers'
//           pools are untouched — the paper's derivation never crosses
//           servers — so the cost is 1/|servers| of a full rechase before
//           the delta round's savings.
//
// Every successful edit returns a ClosureDelta naming the relations whose
// authorized profiles may have changed. The summary is intentionally the
// *edited rule's* relations, not the diffed rules': every closure rule a
// grant or revoke of `r` can add or remove derives through `r`, so its join
// path mentions (at least) every relation of `r` — a cached verdict whose
// relation set is disjoint from relations(r) cannot have changed, which is
// what lets the serving layer re-stamp disjoint cache entries instead of
// sweeping them (front_door.cpp). The one exception is a server whose rule
// set transitions between empty and non-empty: that flips the
// kNoRulesForServer deny reason for *every* profile probed at that server,
// so the delta degrades to `full` and the caches sweep as before. An edit
// that changes no canonical closure rule (a subsumed grant, a revoke of a
// rule the rest of the policy still derives) names no relations at all:
// nothing a cache holds can have changed, so every entry survives it.
//
// closed() is kept per server: an edit re-syncs only the edited server's
// slice (Add per canonical rule into a fresh set, then
// AuthorizationSet::ReplaceServer), and
// Build syncs every server the same way.
//
// The derived-rules cap (ChaseOptions::max_derived_rules) is a state, not
// an error. When it trips — in Build or in an edit — the object is
// capped(): closed() is the raw base policy (sound: the chase only adds
// derivable grants, so the raw rules are just stricter), and every edit
// applied while capped edits the base, rechases from scratch (which may
// lift the cap), and reports a `full` delta.
//
// Uncapped, closed() is maintained in canonical form (minimized, grants
// sorted within each path) and equals Canonicalize(ChaseClosure(base))
// after every edit — the invariant the policy-edit fuzz arm checks against
// the from-scratch oracle, byte for byte.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "authz/authorization.hpp"
#include "authz/chase.hpp"
#include "authz/chase_core.hpp"
#include "catalog/catalog.hpp"

namespace cisqp::authz {

/// What one policy edit changed, summarized for cache invalidation.
struct ClosureDelta {
  /// Selective retention is unsound for this edit (a server's rule set
  /// appeared or vanished, or the closure was capped before or after it);
  /// every epoch-stamped cache entry must go.
  bool full = false;
  /// Relations whose authorized profiles may have changed: any cached
  /// verdict/plan touching none of them is unaffected by the edit. Empty
  /// when the edit changed no closure rule, so every entry survives it.
  IdSet relations;
  /// Servers whose canonical closure changed.
  IdSet servers;
  std::size_t added_rules = 0;    ///< canonical closure rules added
  std::size_t removed_rules = 0;  ///< canonical closure rules removed

  /// False when the edit provably changed no closure rule (e.g. a grant
  /// already subsumed, or a revoke of a still-derivable rule).
  bool changed() const noexcept {
    return full || added_rules != 0 || removed_rules != 0;
  }
};

class IncrementalClosure {
 public:
  /// Chases `base` from scratch: per-server fixpoints on
  /// ChaseOptions::threads workers (0 = hardware concurrency, 1 = the
  /// calling thread), reduced in server order, the whole-closure cap
  /// checked over the running total in that order — so closure, stats and
  /// cap verdict are identical at any thread count. A tripped cap yields a
  /// capped() object, not an error. `cat` must outlive the object.
  static Result<IncrementalClosure> Build(const catalog::Catalog& cat,
                                          const AuthorizationSet& base,
                                          const ChaseOptions& options = {});

  /// The maintained base policy (every applied edit, no derivations).
  const AuthorizationSet& base() const noexcept { return base_; }

  /// The canonical chased closure of base(): minimized, grants sorted
  /// within each (server, path) bucket. base() itself while capped().
  const AuthorizationSet& closed() const noexcept {
    return capped_ ? base_ : closed_;
  }

  /// True while the chase of base() exceeds ChaseOptions::max_derived_rules.
  bool capped() const noexcept { return capped_; }

  /// Chase work accumulated across Build and every edit, for reporting
  /// only. The ChaseOptions::max_derived_rules cap is NOT applied to this
  /// lifetime total: it bounds the *current closure* — each per-server
  /// chase run plus the sum of per-server derived counts, the same budget
  /// the batch chase enforces — so an arbitrarily long edit history whose
  /// every intermediate closure fits under the cap never trips it.
  const ChaseStats& stats() const noexcept { return stats_; }

  /// Grants `auth`. Validation failures (kInvalidArgument, kNotFound,
  /// kAlreadyExists) leave the object untouched.
  Result<ClosureDelta> AddRule(const Authorization& auth);

  /// Revokes exactly `auth` from the base policy (kNotFound when absent,
  /// nothing changed). Rederives the edited server only.
  Result<ClosureDelta> RevokeRule(const Authorization& auth);

 private:
  /// Reads the un-minimized pools, in server and derivation order.
  friend Result<AuthorizationSet> ChaseClosure(const catalog::Catalog& cat,
                                               const AuthorizationSet& auths,
                                               const ChaseOptions& options,
                                               ChaseStats* stats);

  /// Minimized per-path grants of one server, sorted within each path —
  /// the canonical form diffs and closed() are built from.
  using CanonicalRules = std::map<JoinPath, std::vector<IdSet>>;

  IncrementalClosure(const catalog::Catalog& cat, AuthorizationSet base,
                     ChaseOptions options);

  static CanonicalRules Canonicalize(const chase_internal::RulePool& pool);

  /// The batch chase: rechases every server of base() in parallel and
  /// reduces in server order, setting capped_ when the cap trips.
  Status ChaseAll();

  /// Seeds `pool` with `server`'s base rules and runs its fixpoint from
  /// scratch under a fresh counter in `stats`; kResourceExhausted when the
  /// per-server cap trips. Reads only immutable state (safe in parallel).
  Status ChaseServer(catalog::ServerId server, chase_internal::RulePool& pool,
                     ChaseStats& stats) const;

  /// An edit the delta path cannot take — made while capped, or one that
  /// tripped the cap: rechases everything and reports a full delta.
  Result<ClosureDelta> RechaseAfter(const Authorization& auth, bool grant,
                                    ClosureDelta delta);

  /// Replaces server `s`'s canonical rules with `next`, re-syncs that
  /// server's slice of closed(), and fills the delta bookkeeping (counts,
  /// transition, servers; no relations when no canonical rule changed).
  Status Publish(catalog::ServerId server, CanonicalRules next,
                 ClosureDelta& delta);

  /// Replaces closed_'s rules of `server` with canon_[server], each through
  /// AuthorizationSet::Add's validation; on a failed Add closed_ is
  /// unchanged. Other servers' rules are untouched.
  Status SyncClosed(catalog::ServerId server);

  /// True when the per-server derived counts sum past max_derived_rules —
  /// the batch chase's whole-closure budget.
  bool OverClosureCap() const;

  const catalog::Catalog* cat_;
  ChaseOptions options_;
  std::unique_ptr<chase_internal::EdgeIndex> index_;
  AuthorizationSet base_;
  bool capped_ = false;
  std::vector<chase_internal::RulePool> pools_;  ///< per server, persistent
  std::vector<CanonicalRules> canon_;            ///< per server, canonical
  /// Rules each server's pool holds beyond its base seeds; the cap applies
  /// to their sum (the closure's size), never to lifetime chase work.
  std::vector<std::size_t> derived_;
  AuthorizationSet closed_;
  ChaseStats stats_;  ///< lifetime totals, reporting only (see stats())
};

/// The relations an authorization mentions: its join path's relations plus
/// (for an empty path) the owning relation of its attributes.
IdSet RuleRelations(const catalog::Catalog& cat, const Authorization& auth);

}  // namespace cisqp::authz
