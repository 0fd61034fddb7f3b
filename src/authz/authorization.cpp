#include "authz/authorization.hpp"

#include <algorithm>
#include <sstream>

namespace cisqp::authz {

std::string Authorization::ToString(const catalog::Catalog& cat) const {
  std::ostringstream oss;
  oss << "[" << AttributeSetToString(cat, attributes) << ", "
      << path.ToString(cat) << "] -> " << cat.server(server).name;
  return oss.str();
}

Status AuthorizationSet::Add(const catalog::Catalog& cat, Authorization auth) {
  if (auth.server >= cat.server_count()) {
    return NotFoundError("authorization targets an unknown server id");
  }
  if (auth.attributes.empty()) {
    return InvalidArgumentError("authorization must grant at least one attribute");
  }
  for (IdSet::value_type a : auth.attributes) {
    if (a >= cat.attribute_count()) {
      return NotFoundError("authorization grants an unknown attribute id");
    }
  }
  for (const JoinAtom& atom : auth.path.atoms()) {
    if (atom.first >= cat.attribute_count() || atom.second >= cat.attribute_count()) {
      return NotFoundError("authorization join path references an unknown attribute id");
    }
    if (cat.attribute(atom.first).relation == cat.attribute(atom.second).relation) {
      return InvalidArgumentError(
          "join path atom (" + cat.attribute(atom.first).name + ", " +
          cat.attribute(atom.second).name + ") stays within one relation");
    }
  }
  // Def. 3.1(2): the join path must include at least every relation owning a
  // granted attribute; an empty path is only valid when all granted
  // attributes come from a single relation.
  IdSet granted_relations;
  for (IdSet::value_type a : auth.attributes) {
    granted_relations.Insert(cat.attribute(a).relation);
  }
  if (auth.path.empty()) {
    if (granted_relations.size() > 1) {
      return InvalidArgumentError(
          "authorization grants attributes of several relations but has an "
          "empty join path (Def. 3.1 requires the path to connect them)");
    }
  } else if (!granted_relations.IsSubsetOf(auth.path.Relations(cat))) {
    return InvalidArgumentError(
        "authorization join path does not include every relation owning a "
        "granted attribute (Def. 3.1)");
  }

  if (by_server_.size() < cat.server_count()) by_server_.resize(cat.server_count());
  PathIndex& index = by_server_[auth.server];
  std::vector<IdSet>& grants = index[auth.path];
  if (std::find(grants.begin(), grants.end(), auth.attributes) != grants.end()) {
    return AlreadyExistsError("duplicate authorization " + auth.ToString(cat));
  }
  grants.push_back(std::move(auth.attributes));
  ++total_;
  return Status::Ok();
}

Status AuthorizationSet::Add(
    const catalog::Catalog& cat, std::string_view server_name,
    const std::vector<std::string>& attribute_names,
    const std::vector<std::pair<std::string, std::string>>& path_pairs) {
  Authorization auth;
  CISQP_ASSIGN_OR_RETURN(auth.server, cat.FindServer(server_name));
  for (const std::string& name : attribute_names) {
    CISQP_ASSIGN_OR_RETURN(catalog::AttributeId id, cat.FindAttribute(name));
    auth.attributes.Insert(id);
  }
  std::vector<JoinAtom> atoms;
  for (const auto& [left, right] : path_pairs) {
    CISQP_ASSIGN_OR_RETURN(catalog::AttributeId l, cat.FindAttribute(left));
    CISQP_ASSIGN_OR_RETURN(catalog::AttributeId r, cat.FindAttribute(right));
    atoms.push_back(JoinAtom::Make(l, r));
  }
  auth.path = JoinPath::FromAtoms(std::move(atoms));
  return Add(cat, std::move(auth));
}

Status AuthorizationSet::Remove(const catalog::Catalog& cat,
                                const Authorization& auth) {
  if (auth.server < by_server_.size()) {
    PathIndex& index = by_server_[auth.server];
    const auto it = index.find(auth.path);
    if (it != index.end()) {
      std::vector<IdSet>& grants = it->second;
      const auto grant =
          std::find(grants.begin(), grants.end(), auth.attributes);
      if (grant != grants.end()) {
        grants.erase(grant);
        if (grants.empty()) index.erase(it);
        --total_;
        return Status::Ok();
      }
    }
  }
  return NotFoundError("no such authorization to revoke: " +
                       auth.ToString(cat));
}

void AuthorizationSet::ReplaceServer(catalog::ServerId server,
                                     AuthorizationSet&& from) {
  PathIndex incoming;
  if (server < from.by_server_.size()) {
    incoming = std::move(from.by_server_[server]);
  }
  from = AuthorizationSet{};
  if (by_server_.size() <= server) by_server_.resize(server + 1);
  for (const auto& [path, grants] : by_server_[server]) total_ -= grants.size();
  for (const auto& [path, grants] : incoming) total_ += grants.size();
  by_server_[server] = std::move(incoming);
}

bool AuthorizationSet::CanView(const Profile& profile,
                               catalog::ServerId server) const {
  if (server >= by_server_.size()) return false;
  const PathIndex& index = by_server_[server];
  const auto it = index.find(profile.join);
  if (it == index.end()) return false;
  const IdSet visible = profile.VisibleAttributes();
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](const IdSet& grant) { return visible.IsSubsetOf(grant); });
}

CanViewExplanation AuthorizationSet::ExplainCanView(
    const Profile& profile, catalog::ServerId server) const {
  CanViewExplanation explanation;
  if (server >= by_server_.size() || by_server_[server].empty()) {
    explanation.reason = DenyReason::kNoRulesForServer;
    return explanation;
  }
  const PathIndex& index = by_server_[server];
  const auto it = index.find(profile.join);
  if (it == index.end()) {
    explanation.reason = DenyReason::kJoinPathMismatch;
    return explanation;
  }
  const IdSet visible = profile.VisibleAttributes();
  std::optional<IdSet> best_missing;
  for (const IdSet& grant : it->second) {
    if (visible.IsSubsetOf(grant)) {
      explanation.allowed = true;
      explanation.matched_attributes = grant;
      return explanation;
    }
    IdSet missing;
    for (IdSet::value_type a : visible) {
      if (!grant.Contains(a)) missing.Insert(a);
    }
    if (!best_missing || missing.size() < best_missing->size()) {
      best_missing = std::move(missing);
    }
  }
  explanation.reason = DenyReason::kAttributeCoverage;
  if (best_missing) explanation.missing_attributes = std::move(*best_missing);
  return explanation;
}

std::vector<Authorization> AuthorizationSet::ForServer(
    catalog::ServerId server) const {
  std::vector<Authorization> out;
  if (server >= by_server_.size()) return out;
  for (const auto& [path, grants] : by_server_[server]) {
    for (const IdSet& attrs : grants) {
      out.push_back(Authorization{attrs, path, server});
    }
  }
  return out;
}

std::vector<Authorization> AuthorizationSet::All() const {
  std::vector<Authorization> out;
  for (catalog::ServerId s = 0; s < by_server_.size(); ++s) {
    std::vector<Authorization> server_auths = ForServer(s);
    out.insert(out.end(), std::make_move_iterator(server_auths.begin()),
               std::make_move_iterator(server_auths.end()));
  }
  return out;
}

bool AuthorizationSet::Contains(const Authorization& auth) const {
  if (auth.server >= by_server_.size()) return false;
  const PathIndex& index = by_server_[auth.server];
  const auto it = index.find(auth.path);
  if (it == index.end()) return false;
  return std::find(it->second.begin(), it->second.end(), auth.attributes) !=
         it->second.end();
}

std::size_t AuthorizationSet::Minimize() {
  std::size_t removed = 0;
  for (PathIndex& index : by_server_) {
    for (auto& [path, grants] : index) {
      std::vector<IdSet> kept;
      for (const IdSet& candidate : grants) {
        const bool subsumed = std::any_of(
            grants.begin(), grants.end(), [&](const IdSet& other) {
              return !(other == candidate) && candidate.IsSubsetOf(other);
            });
        if (subsumed) {
          ++removed;
        } else if (std::find(kept.begin(), kept.end(), candidate) == kept.end()) {
          kept.push_back(candidate);
        }
      }
      grants = std::move(kept);
    }
  }
  total_ -= removed;
  return removed;
}

void AuthorizationSet::Canonicalize() {
  Minimize();
  for (PathIndex& index : by_server_) {
    for (auto& [path, grants] : index) {
      std::sort(grants.begin(), grants.end());
    }
  }
}

std::string AuthorizationSet::ToString(const catalog::Catalog& cat) const {
  std::ostringstream oss;
  for (const Authorization& auth : All()) {
    oss << auth.ToString(cat) << "\n";
  }
  return oss.str();
}

}  // namespace cisqp::authz
