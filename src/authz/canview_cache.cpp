#include "authz/canview_cache.hpp"

#include "common/strings.hpp"
#include "obs/metrics.hpp"

namespace cisqp::authz {

std::string ProfileCacheKey(const Profile& profile, catalog::ServerId server) {
  // Ids rendered with unambiguous separators: IdSet and JoinPath are both
  // canonically sorted, so equal profiles encode identically and distinct
  // profiles cannot collide (every component is delimited).
  std::string key = Numbered("v", server);
  key += "|p";
  for (const IdSet::value_type id : profile.pi) {
    key += std::to_string(id);
    key += ",";
  }
  key += "|j";
  for (const JoinAtom& atom : profile.join.atoms()) {
    key += std::to_string(atom.first);
    key += "-";
    key += std::to_string(atom.second);
    key += ",";
  }
  key += "|s";
  for (const IdSet::value_type id : profile.sigma) {
    key += std::to_string(id);
    key += ",";
  }
  return key;
}

CanViewExplanation CachingPolicy::Explain(const Profile& profile,
                                          catalog::ServerId server) const {
  const std::string key = ProfileCacheKey(profile, server);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      CISQP_METRIC_INC("authz.canview_cache.hit");
      return it->second.explanation;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CISQP_METRIC_INC("authz.canview_cache.miss");
  Entry entry;
  entry.explanation = base_.ExplainCanView(profile, server);
  if (cat_ != nullptr) {
    entry.relations = profile.join.Relations(*cat_);
    for (const IdSet::value_type a : profile.VisibleAttributes()) {
      entry.relations.Insert(cat_->attribute(a).relation);
    }
  }
  CanViewExplanation explanation = entry.explanation;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    memo_.emplace(std::move(key), std::move(entry));
  }
  return explanation;
}

std::size_t CachingPolicy::RetainFrom(const CachingPolicy& prior,
                                      const IdSet& changed_relations) {
  if (cat_ == nullptr || prior.cat_ == nullptr) return 0;
  const std::lock_guard<std::mutex> prior_lock(prior.mu_);
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t retained = 0;
  for (const auto& [key, entry] : prior.memo_) {
    if (entry.relations.empty()) continue;
    if (entry.relations.Intersects(changed_relations)) continue;
    memo_.emplace(key, entry);
    ++retained;
  }
  CISQP_METRIC_ADD("authz.canview_cache.retained", retained);
  return retained;
}

void CachingPolicy::BumpEpoch() {
  const std::lock_guard<std::mutex> lock(mu_);
  // Every entry carries the pre-bump epoch's verdicts; all are affected.
  memo_.clear();
  epoch_.fetch_add(1, std::memory_order_relaxed);
  CISQP_METRIC_INC("authz.canview_cache.epoch_bumps");
}

std::size_t CachingPolicy::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return memo_.size();
}

}  // namespace cisqp::authz
