#include "serve/front_door.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "planner/plan_search.hpp"
#include "sql/binder.hpp"
#include "sql/signature.hpp"

namespace cisqp::serve {
namespace {

/// The door's closure of `auths`. Build reports a tripped cap as a state,
/// and every rule of an AuthorizationSet was validated when it was added,
/// so a failure here is a broken invariant.
authz::IncrementalClosure Close(const catalog::Catalog& cat,
                                const authz::AuthorizationSet& auths,
                                const authz::ChaseOptions& options) {
  Result<authz::IncrementalClosure> built =
      authz::IncrementalClosure::Build(cat, auths, options);
  CISQP_CHECK_MSG(built.ok(), built.status().ToString());
  return std::move(*built);
}

}  // namespace

FrontDoor::EpochState::EpochState(std::uint64_t number,
                                  const authz::AuthorizationSet& closed,
                                  const catalog::Catalog& cat)
    : epoch(number), policy(closed), memo(policy, &cat) {}

FrontDoor::FrontDoor(const catalog::Catalog& cat,
                     authz::AuthorizationSet auths,
                     const exec::Cluster& cluster,
                     const plan::StatsCatalog* stats, ServeOptions options)
    : cat_(cat),
      cluster_(cluster),
      stats_(stats),
      options_(options),
      admission_(options.max_concurrent, options.max_queue,
                 options.admission_max_wait_us),
      plan_cache_(options.plan_cache_capacity),
      closure_(Close(cat, auths, options.chase)),
      state_(std::make_shared<const EpochState>(0, closure_.closed(), cat)) {}

std::shared_ptr<const FrontDoor::EpochState> FrontDoor::State() const {
  const std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

std::optional<std::string> FrontDoor::CachedSignature(
    const std::string& sql) const {
  const std::lock_guard<std::mutex> lock(sig_mu_);
  const auto it = sig_memo_.find(sql);
  if (it == sig_memo_.end()) {
    CISQP_METRIC_INC("serve.sig_memo.miss");
    return std::nullopt;
  }
  CISQP_METRIC_INC("serve.sig_memo.hit");
  return it->second;
}

void FrontDoor::MemoizeSignature(const std::string& sql,
                                 const std::string& signature) {
  const std::lock_guard<std::mutex> lock(sig_mu_);
  // Several spellings share one signature, so the memo gets more headroom
  // than the plan cache; when full, new spellings simply keep parsing.
  if (sig_memo_.size() >= options_.plan_cache_capacity * 8) return;
  sig_memo_.emplace(sql, signature);
}

Result<Response> FrontDoor::Serve(const Request& request) {
  const std::int64_t start_us = obs::NowMicros();
  requests_.fetch_add(1, std::memory_order_relaxed);
  CISQP_METRIC_INC("serve.requests");

  Response out;
  Result<AdmissionController::Ticket> admit = admission_.Admit(&out.queue_us);
  if (!admit.ok()) return admit.status();
  const AdmissionController::Ticket ticket = std::move(*admit);
  const obs::Span span("serve.request");

  // The signature memo lets a repeated spelling skip parse+bind: the bound
  // spec is only needed on the cold path (signatures are computed from
  // specs, so the first sighting of a spelling parses and memoizes).
  std::optional<std::string> memo_sig = CachedSignature(request.sql);
  std::optional<plan::QuerySpec> spec;
  const auto parse = [&]() -> Status {
    const std::int64_t parse_start = obs::NowMicros();
    Result<plan::QuerySpec> parsed = [&] {
      const obs::Span parse_span("serve.parse", span);
      return sql::ParseAndBind(cat_, request.sql);
    }();
    if (!parsed.ok()) return parsed.status();
    out.parse_us = obs::NowMicros() - parse_start;
    spec = std::move(*parsed);
    return Status::Ok();
  };
  if (memo_sig.has_value()) {
    out.signature = std::move(*memo_sig);
  } else {
    CISQP_RETURN_IF_ERROR(parse());
    out.signature = sql::CanonicalQuerySignature(*spec);
    MemoizeSignature(request.sql, out.signature);
  }

  // Feasibility depends on who receives the result, so the requestor is
  // part of the cache key alongside the signature.
  std::string key = out.signature;
  key += "|rq";
  key += request.requestor.has_value() ? std::to_string(*request.requestor)
                                       : std::string("-");

  const std::shared_ptr<const EpochState> state = State();
  out.policy_epoch = state->epoch;

  const std::int64_t plan_start = obs::NowMicros();
  std::optional<CachedPlanEntry> entry = plan_cache_.Lookup(key, state->epoch);
  out.plan_cache_hit = entry.has_value();
  if (!entry.has_value()) {
    // Memoized spelling but no live plan for this epoch — parse after all.
    if (!spec.has_value()) CISQP_RETURN_IF_ERROR(parse());
    obs::Span plan_span("serve.plan", span);
    plan_span.AddAttribute("cached", "false");
    planner::FeasiblePlanSearch search(cat_, state->memo, stats_, nullptr);
    planner::PlanSearchOptions popt;
    popt.max_orders = options_.max_orders;
    popt.threads = options_.planning_threads;
    popt.planner_options.allow_third_party = options_.allow_third_party;
    popt.planner_options.requestor = request.requestor;
    Result<planner::PlanSearchResult> found = search.Search(*spec, popt);
    CachedPlanEntry fresh;
    fresh.epoch = state->epoch;
    for (const catalog::RelationId rel : spec->Relations()) {
      fresh.relations.Insert(rel);
    }
    if (found.ok()) {
      fresh.handle =
          std::make_shared<const planner::PlanSearchResult>(std::move(*found));
    } else if (found.status().code() == StatusCode::kInfeasible) {
      // Negative caching: the typed verdict is the answer, and repeating it
      // from the cache reproduces the cold message byte-for-byte.
      fresh.verdict = found.status();
    } else {
      return found.status();  // internal/transient — never cached
    }
    plan_cache_.Insert(key, fresh);
    entry = std::move(fresh);
  } else {
    obs::Span plan_span("serve.plan", span);
    plan_span.AddAttribute("cached", "true");
  }
  out.plan_us = obs::NowMicros() - plan_start;
  CISQP_METRIC_OBSERVE(
      out.plan_cache_hit ? "serve.plan_us.cached" : "serve.plan_us.cold",
      static_cast<double>(out.plan_us));
  if (!entry->verdict.ok()) return entry->verdict;

  const std::int64_t exec_start = obs::NowMicros();
  exec::ExecutionOptions eopt;
  eopt.enforce_releases =
      request.enforce_releases.value_or(options_.enforce_releases);
  eopt.requestor = request.requestor;
  eopt.profile = request.profile;
  eopt.threads = options_.exec_threads;
  eopt.morsel = options_.morsel;
  const exec::DistributedExecutor executor(cluster_, state->memo);
  Result<exec::ExecutionResult> run = [&] {
    const obs::Span exec_span("serve.exec", span);
    return executor.Execute(entry->handle->plan,
                            entry->handle->safe_plan.assignment, eopt);
  }();
  if (!run.ok()) return run.status();
  out.exec_us = obs::NowMicros() - exec_start;

  out.table = std::move(run->table);
  out.result_server = run->result_server;
  out.network = std::move(run->network);
  out.estimated_bytes = entry->handle->estimated_bytes;
  out.total_us = obs::NowMicros() - start_us;
  CISQP_METRIC_OBSERVE(
      out.plan_cache_hit ? "serve.latency_us.cached" : "serve.latency_us.cold",
      static_cast<double>(out.total_us));
  return out;
}

void FrontDoor::SetPolicy(authz::AuthorizationSet auths) {
  const std::lock_guard<std::mutex> lock(edit_mu_);
  closure_ = Close(cat_, auths, options_.chase);
  Publish(nullptr);
}

Result<authz::ClosureDelta> FrontDoor::AddRule(const authz::Authorization& auth) {
  return EditPolicy(auth, /*grant=*/true);
}

Result<authz::ClosureDelta> FrontDoor::RevokeRule(
    const authz::Authorization& auth) {
  return EditPolicy(auth, /*grant=*/false);
}

Result<authz::ClosureDelta> FrontDoor::EditPolicy(
    const authz::Authorization& auth, bool grant) {
  const std::lock_guard<std::mutex> lock(edit_mu_);
  const obs::Span span(grant ? "serve.policy_grant" : "serve.policy_revoke");
  Result<authz::ClosureDelta> delta =
      grant ? closure_.AddRule(auth) : closure_.RevokeRule(auth);
  if (!delta.ok()) return delta;  // validation failure: nothing changed
  CISQP_METRIC_INC(grant ? "serve.policy_grants" : "serve.policy_revokes");
  Publish(&*delta);
  return delta;
}

void FrontDoor::Publish(const authz::ClosureDelta* delta) {
  // Snapshot the closure and seed the new memo before taking the reader
  // lock: readers only ever wait for the swap below. Writers are
  // serialized by edit_mu_, so `prev` stays the published state throughout.
  const std::shared_ptr<const EpochState> prev = State();
  auto next =
      std::make_shared<EpochState>(prev->epoch + 1, closure_.closed(), cat_);
  // Re-stamp what the edit provably left intact: every cache entry whose
  // relations are disjoint from the delta.
  const bool retain = delta != nullptr && !delta->full;
  if (retain) next->memo.RetainFrom(prev->memo, delta->relations);

  const std::lock_guard<std::mutex> lock(state_mu_);
  retired_canview_hits_ += prev->memo.hits();
  retired_canview_misses_ += prev->memo.misses();
  // Re-stamp the plan cache before any reader can snapshot the new epoch.
  if (retain) {
    plan_cache_.AdvanceEpoch(next->epoch, delta->relations);
  } else {
    plan_cache_.InvalidateBefore(next->epoch);
  }
  state_ = std::move(next);
  epoch_.store(state_->epoch, std::memory_order_release);
  CISQP_METRIC_INC("serve.policy_epoch_bumps");
}

FrontDoorStats FrontDoor::Stats() const {
  FrontDoorStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.admitted = admission_.admitted();
  stats.rejected = admission_.rejected();
  stats.plan_cache_hits = plan_cache_.hits();
  stats.plan_cache_misses = plan_cache_.misses();
  stats.plan_cache_stale_evictions = plan_cache_.stale_evictions();
  stats.plan_cache_retained = plan_cache_.retained();
  stats.plan_cache_size = plan_cache_.size();
  const std::lock_guard<std::mutex> lock(state_mu_);
  stats.canview_hits = retired_canview_hits_ + state_->memo.hits();
  stats.canview_misses = retired_canview_misses_ + state_->memo.misses();
  stats.canview_memo_size = state_->memo.size();
  return stats;
}

}  // namespace cisqp::serve
