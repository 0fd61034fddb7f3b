#include "authz/audit.hpp"

#include <utility>

namespace cisqp::authz {

bool AuditedCanView(const catalog::Catalog& cat, const Policy& policy,
                    const Profile& profile, catalog::ServerId server,
                    obs::AuditSite site, int node_id, std::string_view detail) {
  obs::AuthzAuditLog& log = obs::AuthzAuditLog::Get();
  if (!log.enabled()) return policy.CanView(profile, server);

  const CanViewExplanation explanation =
      policy.ExplainCanView(profile, server);
  obs::AuditEntry entry;
  entry.allowed = explanation.allowed;
  entry.site = site;
  entry.node_id = node_id;
  entry.server = cat.server(server).name;
  entry.profile = profile.ToString(cat);
  entry.detail = std::string(detail);
  if (explanation.allowed) {
    if (explanation.matched_attributes) {
      std::string matched("[");
      matched += AttributeSetToString(cat, *explanation.matched_attributes);
      matched += ", ";
      matched += profile.join.ToString(cat);
      matched += "] -> ";
      matched += cat.server(server).name;
      entry.matched = std::move(matched);
    }
  } else {
    entry.reason = explanation.DescribeDenial(cat);
    if (explanation.reason == DenyReason::kDenialFired &&
        explanation.matched_attributes) {
      entry.matched =
          AttributeSetToString(cat, *explanation.matched_attributes);
    }
  }
  log.Record(std::move(entry));
  return explanation.allowed;
}

}  // namespace cisqp::authz
