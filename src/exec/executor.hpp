// DistributedExecutor: runs a query tree plan under an executor assignment,
// materializing the exact Fig. 5 flows — whole-relation shipments for
// regular joins, the 5-step semi-join protocol — over the simulated cluster,
// with per-transfer network accounting and runtime release enforcement.
//
// Runtime enforcement is the second line of defense behind the planner: every
// *physical* shipment is checked against the authorization set with the
// profile of the shipped relation before the receiving server sees a byte.
// A safe assignment never trips it (tests assert this); a hand-crafted unsafe
// assignment is stopped at the first unauthorized transfer.
//
// Fault tolerance (DESIGN.md §10): when a FaultModel is attached, every
// shipment attempt can be dropped (transient) or fail permanently. Transient
// faults retry with exponential backoff on a per-query *virtual* clock under
// a per-query deadline; a permanent server failure triggers
// authorization-aware failover — the plan is re-planned over the surviving
// servers (SafePlanner with the dead servers excluded, audited under the
// failover site) and re-executed, with Def. 3.3 re-checked at runtime on
// every replanned transfer. Recovery can therefore never widen a release:
// an unrecoverable query fails kUnavailable, an unsafe re-route kUnauthorized.
#pragma once

#include <cstdint>

#include "algebra/vectorized.hpp"
#include "authz/authorization.hpp"
#include "exec/cluster.hpp"
#include "exec/fault_model.hpp"
#include "exec/network.hpp"
#include "obs/profile.hpp"
#include "planner/assignment.hpp"
#include "planner/mode_views.hpp"
#include "planner/safe_planner.hpp"

namespace cisqp::exec {

/// Re-send policy for transient faults. Backoff advances the query's
/// virtual clock (no real sleeping): attempt k waits
/// min(initial * multiplier^(k-1), max_backoff_us) before re-sending, and
/// the query as a whole fails kUnavailable once the clock would pass
/// `deadline_us`.
struct RetryPolicy {
  int max_attempts = 5;                  ///< send attempts per transfer
  std::int64_t initial_backoff_us = 1000;
  double backoff_multiplier = 2.0;
  std::int64_t max_backoff_us = 256000;
  std::int64_t deadline_us = 10000000;   ///< per-query virtual deadline
};

/// What recovery did during one execution (all zero on the happy path).
struct RecoveryStats {
  std::size_t transient_faults = 0;  ///< dropped attempts observed
  std::size_t retries = 0;           ///< re-send attempts performed
  std::size_t failovers = 0;         ///< replan-over-survivors rounds
  std::int64_t backoff_wait_us = 0;  ///< virtual time spent backing off
  /// Permanently-failed servers excluded from the plan, exclusion order.
  std::vector<catalog::ServerId> excluded_servers;
};

struct ExecutionOptions {
  /// Check every physical transfer against the authorization set.
  bool enforce_releases = true;
  /// Deliver the final result to this server (checked as a release when it
  /// differs from the root master).
  std::optional<catalog::ServerId> requestor;
  /// Fault injector consulted on every shipment attempt; nullptr = the
  /// fault-free federation the paper assumes.
  FaultModel* faults = nullptr;
  RetryPolicy retry;
  /// Replan over surviving servers when a server fails permanently. When
  /// false the same schedule fails with a typed kUnavailable instead.
  bool failover = true;
  /// Base planner options for the failover replan (third-party setting etc.).
  /// The executor adds the dead-server exclusions, the requestor above, and
  /// the kFailover audit site itself.
  planner::SafePlannerOptions failover_planner;
  /// When set, receives the transfer log of a FAILED execution —
  /// ExecutionResult only exists on success, but enforcement tests must be
  /// able to assert what was (not) shipped before the error. On success the
  /// log lives solely in ExecutionResult::network and this sink is cleared,
  /// never left holding a duplicate copy of the log.
  NetworkStats* network_out = nullptr;
  /// When set, the execution fills one OperatorStats per plan node and one
  /// TransferStats per shipment into this profile (EXPLAIN ANALYZE, benches,
  /// stats feedback). Independent of the Tracer/MetricsRegistry enablement;
  /// nullptr — the default — costs one pointer test per operator.
  obs::QueryProfile* profile = nullptr;
  /// Intra-operator parallelism for the vectorized kernels (DESIGN.md §14):
  /// target thread count including the caller. 1 — the default — runs the
  /// exact sequential kernel paths; >1 borrows the process-shared pool for
  /// that thread count and fans operators out in morsels — concurrent
  /// queries share the workers rather than each spawning their own. Results
  /// are byte-identical at any thread count.
  std::size_t threads = 1;
  /// Kernel tiling knobs (morsel_rows, radix_bits, min_parallel_rows). The
  /// pool field inside is ignored — the executor installs the pool resolved
  /// from `threads` above.
  algebra::MorselContext morsel;
};

/// Compute performed at one server during a query (operator invocations, the
/// rows they produced, and the wall-clock time spent producing them) — the
/// load-distribution side of the accounting, complementing NetworkStats'
/// communication side.
struct ServerLoad {
  std::size_t operations = 0;
  std::size_t rows_produced = 0;
  std::int64_t busy_us = 0;  ///< wall-clock microseconds in operator code
};

struct ExecutionResult {
  storage::Table table;
  catalog::ServerId result_server = catalog::kInvalidId;
  NetworkStats network;
  std::map<catalog::ServerId, ServerLoad> load;  ///< per executing server
  std::int64_t duration_us = 0;  ///< total wall-clock execution time
  RecoveryStats recovery;        ///< retries/failovers performed, if any
};

class DistributedExecutor {
 public:
  DistributedExecutor(const Cluster& cluster,
                      const authz::Policy& auths)
      : cluster_(cluster), auths_(auths) {}

  /// Executes `plan` under `assignment`. Fails with kUnauthorized when
  /// enforcement trips, kUnavailable when injected faults exhaust recovery,
  /// kInvalidArgument on malformed plans/assignments.
  Result<ExecutionResult> Execute(const plan::QueryPlan& plan,
                                  const planner::Assignment& assignment,
                                  const ExecutionOptions& options = {}) const;

 private:
  const Cluster& cluster_;
  const authz::Policy& auths_;
};

/// Reference evaluator: runs `plan` as if all relations were local, with no
/// authorization or distribution concerns. The distributed execution of a
/// valid assignment must return the same row multiset (tests rely on this).
Result<storage::Table> ExecuteCentralized(const Cluster& cluster,
                                          const plan::QueryPlan& plan);

}  // namespace cisqp::exec
