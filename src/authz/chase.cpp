#include "authz/chase.hpp"

#include "authz/chase_core.hpp"
#include "authz/incremental.hpp"

namespace cisqp::authz {

Result<AuthorizationSet> ChaseClosure(const catalog::Catalog& cat,
                                      const AuthorizationSet& auths,
                                      const ChaseOptions& options,
                                      ChaseStats* stats) {
  CISQP_ASSIGN_OR_RETURN(const IncrementalClosure closure,
                         IncrementalClosure::Build(cat, auths, options));
  if (closure.capped()) return chase_internal::ExceededCap(options);
  // The pools' rules as derived: un-minimized, in server and derivation
  // order (IncrementalClosure::closed() is the canonical form).
  AuthorizationSet closed;
  for (catalog::ServerId server = 0; server < closure.pools_.size(); ++server) {
    for (const chase_internal::RulePool::Rule& rule :
         closure.pools_[server].rules()) {
      const Status status =
          closed.Add(cat, Authorization{rule.attrs, rule.path, server});
      // The pool dedups, so only a malformed input rule can fail here.
      if (!status.ok() && status.code() != StatusCode::kAlreadyExists) {
        return status;
      }
    }
  }
  if (stats != nullptr) *stats = closure.stats();
  return closed;
}

}  // namespace cisqp::authz
