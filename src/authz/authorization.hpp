// Authorizations (paper Def. 3.1) and the authorized-view test (Def. 3.3).
//
// An authorization `[Attributes, JoinPath] → Server` states that `Server`
// may view the listed attributes for tuples satisfying the join path. The
// policy is closed: a release is allowed only when some authorization covers
// it. `AuthorizationSet` stores one federation's policy, indexed per server
// and per join path so the planner's hot `CanView` probe is an exact path
// lookup followed by subset tests.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "authz/policy.hpp"
#include "authz/profile.hpp"

namespace cisqp::authz {

/// One rule `[Attributes, JoinPath] → Server`.
struct Authorization {
  IdSet attributes;
  JoinPath path;
  catalog::ServerId server = catalog::kInvalidId;

  /// Def. 3.3 for this single rule: `profile.π ∪ profile.σ ⊆ attributes`
  /// and `profile.⋈ = path`.
  bool Covers(const Profile& profile) const {
    return profile.join == path &&
           profile.VisibleAttributes().IsSubsetOf(attributes);
  }

  /// "[{A, B}, {(C, D)}] -> S" with catalog names.
  std::string ToString(const catalog::Catalog& cat) const;

  friend bool operator==(const Authorization&, const Authorization&) = default;
};

/// A federation's closed policy: the set of authorizations of all servers.
class AuthorizationSet : public Policy {
 public:
  AuthorizationSet() = default;

  /// Adds a rule. Validates that the rule is well formed per Def. 3.1:
  /// the join path must mention (at least) every relation that owns an
  /// authorized attribute when it spans several relations, and attributes of
  /// several relations require a non-empty path. Duplicate rules (same
  /// server, attributes, path) are rejected with kAlreadyExists.
  Status Add(const catalog::Catalog& cat, Authorization auth);

  /// Convenience: builds the rule from names. `attribute_names` are bare or
  /// dotted attribute names; `path_pairs` are (left, right) attribute name
  /// pairs; `server_name` must be registered.
  Status Add(const catalog::Catalog& cat, std::string_view server_name,
             const std::vector<std::string>& attribute_names,
             const std::vector<std::pair<std::string, std::string>>& path_pairs);

  /// Removes exactly `auth` (same server, attributes, path). kNotFound when
  /// no such rule is present.
  Status Remove(const catalog::Catalog& cat, const Authorization& auth);

  /// Replaces every rule granted to `server` with the rules `from` grants
  /// it (already validated by `from`'s Add). Other servers' rules are
  /// untouched; `from` is left empty.
  void ReplaceServer(catalog::ServerId server, AuthorizationSet&& from);

  /// Def. 3.3: true iff some authorization of `server` covers `profile`.
  bool CanView(const Profile& profile,
               catalog::ServerId server) const override;

  /// Def. 3.3 with evidence: the covering grant on allow; on deny, whether
  /// the failure was the join-path equality or the attribute coverage, and
  /// in the latter case the closest rule's uncovered attributes.
  CanViewExplanation ExplainCanView(const Profile& profile,
                                    catalog::ServerId server) const override;

  /// Number of rules across all servers.
  std::size_t size() const noexcept { return total_; }

  /// All rules granted to `server`, in insertion order.
  std::vector<Authorization> ForServer(catalog::ServerId server) const;

  /// All rules, grouped by server id, insertion order within a server.
  std::vector<Authorization> All() const;

  /// True iff `auth` (exact attributes+path+server) is present.
  bool Contains(const Authorization& auth) const;

  /// Drops rules subsumed by another rule of the same server with the same
  /// path and a superset of attributes. Returns the number removed.
  std::size_t Minimize();

  /// Minimize() plus a deterministic order: within every (server, path)
  /// bucket the surviving grants are sorted. Two equivalent policies — e.g.
  /// an incrementally maintained closure and a from-scratch rechase, whose
  /// raw rule orders differ — canonicalize to identical sets, so
  /// order-sensitive consumers (ExplainCanView's first-wins tie among
  /// incomparable grants) answer identically over either.
  void Canonicalize();

  /// Multi-line policy dump, one rule per line.
  std::string ToString(const catalog::Catalog& cat) const;

 private:
  // server -> join path -> attribute sets granted under that exact path.
  using PathIndex = std::map<JoinPath, std::vector<IdSet>>;
  std::vector<PathIndex> by_server_;
  std::size_t total_ = 0;
};

}  // namespace cisqp::authz
