#include "workloads.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unordered_set>

#include "authz/canview_cache.hpp"
#include "authz/chase.hpp"
#include "authz/incremental.hpp"
#include "check.hpp"
#include "exec/cluster.hpp"
#include "exec/executor.hpp"
#include "obs/profile.hpp"
#include "plan/builder.hpp"
#include "planner/plan_search.hpp"
#include "serve/front_door.hpp"
#include "spans.hpp"
#include "sql/binder.hpp"
#include "sql/signature.hpp"
#include "workload/generator.hpp"
#include "workload/medical.hpp"

namespace perfbench {
namespace {

using namespace cisqp;
using workload::MedicalScenario;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Returns freed heap memory to the system between repeated set-ups and
/// idle-edit waves, so each starts like a fresh process and peak_rss_mb
/// measures one world, not the arenas of threads that held earlier ones.
void TrimHeap() { (void)malloc_trim(0); }

/// Thrown for set-up failures; RunWorkload turns it into an error return.
struct SetupError {
  std::string what;
};

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) throw SetupError{what + ": " + result.status().ToString()};
  return std::move(result).value();
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) throw SetupError{what + ": " + status.ToString()};
}

/// Fixes what a workload is: schema, policy, data rows, query shapes and
/// edit rules. --seed varies only the order of each client's requests and
/// how queries are dealt to clients, so runs with different seeds do the
/// same work and differ only in timing.
constexpr std::uint64_t kShapeSeed = 2026;

std::size_t HwThreads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Worlds: catalog, policy, loaded cluster, stats and the door under test.

struct World {
  workload::Federation fed;  ///< fed.catalog is the catalog
  authz::AuthorizationSet auths;
  std::unique_ptr<exec::Cluster> cluster;
  plan::StatsCatalog stats;
  std::unique_ptr<serve::FrontDoor> door;
  double columnar_first_touch_us = 0;

  const catalog::Catalog& cat() const { return fed.catalog; }
};

/// The workload's shape: how to build its world and what to send.
struct Workload {
  std::size_t clients = 1;
  serve::ServeOptions door_options;
  /// Builds catalog, policy, cluster and stats (no door yet).
  std::function<std::unique_ptr<World>()> build;
  /// Served once each during set-up, before timing.
  std::vector<std::string> warm;
  /// Per-client request lists, built before the timed phase.
  std::vector<std::vector<std::string>> lists;
  /// > 0: an admin thread edits the policy once per this many reads.
  std::size_t reads_per_edit = 0;
};

std::unique_ptr<World> MedicalWorld(std::size_t citizens) {
  auto w = std::make_unique<World>();
  w->fed.catalog = MedicalScenario::BuildCatalog();
  w->auths = MedicalScenario::BuildAuthorizations(w->cat());
  w->cluster = std::make_unique<exec::Cluster>(w->cat());
  Rng rng(kShapeSeed);
  Must(MedicalScenario::PopulateCluster(
           *w->cluster, MedicalScenario::DataConfig{citizens, 0.4, 0.6, 10},
           rng),
       "populate medical cluster");
  w->stats = MedicalScenario::ComputeStats(*w->cluster);
  return w;
}

/// cold_plan's and policy_churn's federation: 10 relations on 5 servers,
/// 50-200 rows each, a dense policy with short path grants.
std::unique_ptr<World> GeneratedWorld() {
  auto w = std::make_unique<World>();
  Rng rng(kShapeSeed);
  workload::FederationConfig fc;
  fc.servers = 5;
  fc.relations = 10;
  w->fed = workload::GenerateFederation(fc, rng);
  workload::AuthzConfig ac;
  ac.base_grant_prob = 0.8;
  ac.path_grants_per_server = 3;
  ac.max_path_atoms = 2;
  w->auths = workload::GenerateAuthorizations(w->cat(), ac, rng);
  w->cluster = std::make_unique<exec::Cluster>(w->cat());
  Rng data(kShapeSeed + 2);
  Must(workload::PopulateCluster(*w->cluster, w->fed,
                                 workload::DataConfig{50, 200}, data),
       "populate generated cluster");
  w->stats = workload::ComputeStats(*w->cluster);
  return w;
}

serve::ServeOptions GeneratedDoorOptions() {
  serve::ServeOptions o;
  o.allow_third_party = true;
  // Unbounded path length exhausts memory on this policy (NOTES.md).
  o.chase.max_path_atoms = 3;
  return o;
}

/// `count` distinct generated queries (by canonical signature) of
/// `min_rel`..`max_rel` relations, rendered as SQL that parses back.
std::vector<std::string> GeneratedQueries(const catalog::Catalog& cat,
                                          std::size_t count,
                                          std::size_t min_rel,
                                          std::size_t max_rel, Rng& rng) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (std::size_t attempt = 0; out.size() < count; ++attempt) {
    if (attempt > count * 50) throw SetupError{"cannot generate queries"};
    workload::QueryConfig qc;
    qc.relations = min_rel + static_cast<std::size_t>(rng.UniformIndex(
                                 max_rel - min_rel + 1));
    Result<plan::QuerySpec> spec = workload::GenerateQuery(cat, qc, rng);
    if (!spec.ok()) continue;
    std::string sql = spec->ToString(cat);
    Result<plan::QuerySpec> parsed = sql::ParseAndBind(cat, sql);
    if (!parsed.ok()) continue;
    if (!seen.insert(sql::CanonicalQuerySignature(*parsed)).second) continue;
    out.push_back(std::move(sql));
  }
  return out;
}

/// Policy rules not in `base` that the door can grant and then revoke.
/// Whole-relation grants and path grants of up to 3 atoms, one atom longer
/// than the base policy's: on policy_churn half of them flip the verdict of
/// some read shape, so a cache that keeps an entry across an edit it should
/// not survive serves a verdict the answer check refuses.
std::vector<authz::Authorization> EditRules(const catalog::Catalog& cat,
                                            const authz::AuthorizationSet& base) {
  Rng rng(kShapeSeed ^ 0xed17ull);
  workload::AuthzConfig ac;
  ac.grant_own_relations = false;
  ac.base_grant_prob = 0.5;
  ac.attribute_keep_prob = 1.0;
  ac.path_grants_per_server = 3;
  ac.max_path_atoms = 3;
  std::vector<authz::Authorization> out;
  for (const authz::Authorization& rule :
       workload::GenerateAuthorizations(cat, ac, rng).All()) {
    if (base.Contains(rule)) continue;
    authz::AuthorizationSet probe = base;
    if (!probe.Add(cat, rule).ok()) continue;
    out.push_back(rule);
    if (out.size() == 16) break;
  }
  if (out.empty()) throw SetupError{"no policy edit candidates"};
  return out;
}

/// Each client's list is `shapes` in a seeded order repeated `repeats`
/// times, rotated per client so clients do not move in lockstep.
std::vector<std::vector<std::string>> RotatedLists(
    std::vector<std::string> shapes, std::size_t clients, std::size_t repeats,
    Rng& rng) {
  rng.Shuffle(shapes);
  std::vector<std::string> one;
  for (std::size_t r = 0; r < repeats; ++r) {
    one.insert(one.end(), shapes.begin(), shapes.end());
  }
  std::vector<std::vector<std::string>> lists(clients, one);
  for (std::size_t c = 0; c < clients; ++c) {
    std::rotate(lists[c].begin(),
                lists[c].begin() + static_cast<std::ptrdiff_t>(
                                       c * one.size() / clients),
                lists[c].end());
  }
  return lists;
}

/// WHERE-literal variants of the nine medical workload queries: each query
/// keeps its text and gains variants filtered on an integer key.
std::vector<std::string> MedicalVariants(Rng& rng) {
  static const std::map<std::string, std::string> kKey = {
      {"paper_ex2.2", "Holder"},          {"registry_scan", "Citizen"},
      {"plans_with_aid", "Holder"},       {"physicians_for_disease", "Patient"},
      {"treatments_per_plan", "Holder"},  {"aid_of_patients", "Patient"},
      {"insured_patients", "Holder"},     {"registry_hospital_sweep", "Citizen"}};
  static const std::vector<int> kLiterals = {8, 16, 24, 32, 40, 48, 56};
  std::vector<std::string> out;
  for (const MedicalScenario::NamedQuery& q : MedicalScenario::WorkloadQueries()) {
    out.push_back(q.sql);
    const auto key = kKey.find(q.name);
    if (key == kKey.end()) continue;
    const bool has_where = q.sql.find(" WHERE ") != std::string::npos;
    for (std::size_t v = 0; v < 3; ++v) {
      const int literal = kLiterals[rng.UniformIndex(kLiterals.size())];
      out.push_back(q.sql + (has_where ? " AND " : " WHERE ") + key->second +
                    " >= " + std::to_string(literal));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  const std::size_t hw = HwThreads();
  if (name == "hot_serve") {
    // As many slots as clients: a client never waits on another's hand-off,
    // whose wake-up time is the host scheduler's, not the program's
    // (NOTES.md, "Departures").
    w.clients = std::min<std::size_t>(2, hw);
    w.door_options.max_concurrent = 2;
    w.door_options.allow_third_party = true;
    w.build = [] { return MedicalWorld(64); };
    Rng literals(kShapeSeed + 3);
    w.warm = MedicalVariants(literals);
    w.lists = RotatedLists(w.warm, w.clients, 4, rng);
  } else if (name == "big_scan") {
    w.clients = 1;
    w.door_options.allow_third_party = true;
    w.door_options.exec_threads = hw;
    w.build = [] { return MedicalWorld(100000); };
    for (const MedicalScenario::NamedQuery& q :
         MedicalScenario::WorkloadQueries()) {
      w.warm.push_back(q.sql);
    }
    w.lists = RotatedLists(w.warm, w.clients, 1, rng);
  } else if (name == "cold_plan" || name == "policy_churn") {
    w.door_options = GeneratedDoorOptions();
    w.build = GeneratedWorld;
  } else {
    throw SetupError{"unknown workload '" + name + "'"};
  }
  return w;
}

/// Fills the request lists of the generated-federation workloads, which
/// need the catalog.
void AddGeneratedRequests(const std::string& name, const World& world,
                          std::uint64_t seed, Workload& w) {
  Rng shapes(kShapeSeed + 1);
  Rng rng(seed * 0xc2b2ae3d27d4eb4full + 29);
  const std::size_t hw = HwThreads();
  if (name == "cold_plan") {
    // Every request misses the plan cache: each client cycles through its
    // own distinct queries, and between two sends of one query the clients
    // insert far more entries than the cache holds (LRU).
    w.clients = std::min<std::size_t>(4, hw);
    w.door_options.max_concurrent = 4;
    w.door_options.plan_cache_capacity = 64;
    constexpr std::size_t kPerClient = 128;
    std::vector<std::string> all = GeneratedQueries(
        world.cat(), kPerClient * w.clients + 1, 3, 8, shapes);
    w.warm = {all.back()};  // outside the lists: pays the first chase
    all.pop_back();
    rng.Shuffle(all);
    w.lists.assign(w.clients, {});
    for (std::size_t i = 0; i < all.size(); ++i) {
      w.lists[i % w.clients].push_back(all[i]);
    }
  } else {  // policy_churn
    w.clients = std::max<std::size_t>(1, std::min<std::size_t>(3, hw - 1));
    w.door_options.max_concurrent = 4;
    w.reads_per_edit = 1000;
    w.warm = GeneratedQueries(world.cat(), 64, 2, 4, shapes);
    w.lists = RotatedLists(w.warm, w.clients, 4, rng);
  }
}

// ---------------------------------------------------------------------------
// Set-up, references, timed phase.

/// A door over `world` that has served the workload's warm-up list.
std::unique_ptr<serve::FrontDoor> WarmDoor(const Workload& w,
                                           const World& world) {
  auto door = std::make_unique<serve::FrontDoor>(
      world.cat(), world.auths, *world.cluster, &world.stats, w.door_options);
  for (const std::string& sql : w.warm) {
    serve::Request request;
    request.sql = sql;
    Result<serve::Response> r = door->Serve(request);
    if (!r.ok() && r.status().code() != StatusCode::kInfeasible) {
      throw SetupError{"warm-up serve failed: " + r.status().ToString()};
    }
  }
  return door;
}

/// Builds the world and door and warms it; `setup_us` covers all of it.
std::unique_ptr<World> SetUp(const Workload& w, double* setup_us) {
  const double t0 = NowUs();
  std::unique_ptr<World> world = w.build();
  const double touch0 = NowUs();
  for (std::size_t rel = 0; rel < world->cat().relation_count(); ++rel) {
    (void)world->cluster->ColumnarOf(static_cast<catalog::RelationId>(rel));
  }
  world->columnar_first_touch_us = NowUs() - touch0;
  world->door = WarmDoor(w, *world);
  *setup_us = NowUs() - t0;
  return world;
}

/// The CPUs this process may run on.
std::vector<std::size_t> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<std::size_t> out;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
    }
  }
  if (out.empty()) out.push_back(0);
  return out;
}

/// Pins the calling thread to `cpu`, best effort.
void PinTo(std::size_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Moves the calling thread to `cpu`, then lets it run anywhere again: it
/// stays there until the scheduler has a reason to move it, and threads it
/// starts (the chase's pool) get the full CPU mask.
void StartOn(std::size_t cpu) {
  cpu_set_t all;
  CPU_ZERO(&all);
  const bool have_mask =
      pthread_getaffinity_np(pthread_self(), sizeof all, &all) == 0;
  PinTo(cpu);
  if (have_mask) (void)pthread_setaffinity_np(pthread_self(), sizeof all, &all);
}

/// Set-up samples for setup_s. On a shared VM each CPU runs fast or about
/// 1.5x slower for periods far longer than one set-up, so a sample is the
/// mean set-up time over a batch of whole rounds, one set-up started on
/// each CPU in turn, lasting at least kSetupBatchUs; batches continue until
/// kSetupBudgetUs have passed (at least three). Returns the last world
/// built.
constexpr double kSetupBatchUs = 3e5;
constexpr double kSetupBudgetUs = 3e6;

std::unique_ptr<World> SampleSetUps(const Workload& w,
                                    std::vector<double>* samples) {
  const std::vector<std::size_t> cpus = AllowedCpus();
  std::unique_ptr<World> world;
  const double t0 = NowUs();
  while (samples->size() < 3 || NowUs() - t0 < kSetupBudgetUs) {
    double batch_us = 0;
    std::size_t n = 0;
    while (n % cpus.size() != 0 || n == 0 || batch_us < kSetupBatchUs) {
      std::exception_ptr failed;
      double us = 0;
      std::jthread([&] {
        StartOn(cpus[n % cpus.size()]);
        try {
          world.reset();
          TrimHeap();
          world = SetUp(w, &us);
        } catch (...) {
          failed = std::current_exception();
        }
      }).join();
      if (failed) std::rethrow_exception(failed);
      batch_us += us;
      ++n;
    }
    samples->push_back(batch_us / static_cast<double>(n));
  }
  return world;
}

/// The policies the door can serve in the timed phase: the base, and
/// under concurrent edits the base plus each edit rule, since the edit
/// script grants and then revokes one rule at a time.
std::vector<authz::AuthorizationSet> PolicyStates(
    const Workload& w, const World& world,
    const std::vector<authz::Authorization>& rules) {
  std::vector<authz::AuthorizationSet> out = {world.auths};
  if (w.reads_per_edit == 0) return out;
  for (const authz::Authorization& rule : rules) {
    authz::AuthorizationSet with = world.auths;
    Must(with.Add(world.cat(), rule), "policy state");
    out.push_back(std::move(with));
  }
  return out;
}

/// References for every distinct request, one book per policy in
/// `policies`: the verdict of a fresh single-threaded door with the
/// workload's options, and the centralized row multiset, which no policy
/// changes.
std::vector<ReferenceBook> BuildReferences(
    const Workload& w, const World& world,
    const std::vector<authz::AuthorizationSet>& policies) {
  std::set<std::string> distinct;
  for (const auto& list : w.lists) distinct.insert(list.begin(), list.end());
  std::map<std::string, Expected> rows;
  for (const std::string& sql : distinct) {
    const plan::QuerySpec spec =
        Must(sql::ParseAndBind(world.cat(), sql), "reference parse");
    const plan::QueryPlan plan =
        Must(plan::PlanBuilder(world.cat()).Build(spec), "reference plan");
    const storage::Table table =
        Must(exec::ExecuteCentralized(*world.cluster, plan),
             "reference execution");
    Expected& e = rows[sql];
    e.columns = table.columns();
    e.rows = table.row_count();
    e.digest = RowMultisetDigest(table);
  }
  serve::ServeOptions ref_options = w.door_options;
  ref_options.max_concurrent = 1;
  ref_options.exec_threads = 1;
  std::vector<ReferenceBook> books;
  for (const authz::AuthorizationSet& policy : policies) {
    serve::FrontDoor ref_door(world.cat(), policy, *world.cluster,
                              &world.stats, ref_options);
    ReferenceBook& book = books.emplace_back();
    for (const auto& [sql, expected] : rows) {
      Expected e = expected;
      serve::Request request;
      request.sql = sql;
      Result<serve::Response> r = ref_door.Serve(request);
      if (r.ok()) {
        e.answered = true;
      } else {
        e.code = r.status().code();
        e.message = r.status().message();
      }
      book.Set(sql, std::move(e));
    }
  }
  return books;
}

/// Per-layer accumulators of one client's traced requests.
struct LayerAcc {
  std::size_t answered = 0;
  std::size_t refused = 0;
  std::vector<double> queue_us;
  double unattributed_us = 0;
  std::vector<double> search_us;  ///< plan time on cache misses
  double lookup_us = 0;
  std::size_t hits = 0;
  std::size_t parse_skipped = 0;
  double exec_us = 0;
  std::map<std::string, double> op_self_us;
  double exec_unattributed_us = 0;
  double messages = 0, rows_shipped = 0, bytes_shipped = 0;
  double worker_busy_us = 0, worker_capacity_us = 0;
  double hash_build = 0, hash_probe = 0, rows_out = 0;
  double estimated_bytes = 0;
  double e2e_us = 0;
  double root_self_us = 0;
  std::map<std::string, double> layer_self_us;

  void Merge(const LayerAcc& o) {
    answered += o.answered;
    refused += o.refused;
    queue_us.insert(queue_us.end(), o.queue_us.begin(), o.queue_us.end());
    unattributed_us += o.unattributed_us;
    search_us.insert(search_us.end(), o.search_us.begin(), o.search_us.end());
    lookup_us += o.lookup_us;
    hits += o.hits;
    parse_skipped += o.parse_skipped;
    exec_us += o.exec_us;
    for (const auto& [k, v] : o.op_self_us) op_self_us[k] += v;
    exec_unattributed_us += o.exec_unattributed_us;
    messages += o.messages;
    rows_shipped += o.rows_shipped;
    bytes_shipped += o.bytes_shipped;
    worker_busy_us += o.worker_busy_us;
    worker_capacity_us += o.worker_capacity_us;
    hash_build += o.hash_build;
    hash_probe += o.hash_probe;
    rows_out += o.rows_out;
    estimated_bytes += o.estimated_bytes;
    e2e_us += o.e2e_us;
    root_self_us += o.root_self_us;
    for (const auto& [k, v] : o.layer_self_us) layer_self_us[k] += v;
  }
};

/// Latency samples kept per client and kind (untraced, traced): enough
/// for the windowed p99 (about 1100 samples in each of up to one window
/// per second) on every workload.
constexpr std::size_t kSamplesPerClient = 16384;
/// Spans kept per client in a traced run; later ones are counted as dropped.
constexpr std::size_t kSpansPerClient = 25000;

struct ClientOut {
  ClientOut(std::uint64_t seed, std::size_t windows, bool trace)
      : latency(kSamplesPerClient, seed), window_counts(windows, 0) {
    if (trace) {
      traced_latency = std::make_unique<Reservoir>(kSamplesPerClient, seed + 1);
      spans = std::make_unique<SpanBuffer>(kSpansPerClient);
    }
  }

  Counts counts;
  /// Untraced latencies (us) with completion times (s from phase start).
  Reservoir latency;
  std::unique_ptr<Reservoir> traced_latency;  ///< traced runs only
  /// Requests completed per window of the timed phase.
  std::vector<std::uint64_t> window_counts;
  double answered_bytes = 0;
  std::vector<std::string> problems;
  bool wrong = false;
  LayerAcc acc;
  std::unique_ptr<SpanBuffer> spans;  ///< traced runs only
};

/// Records one traced request: spans rebuilt from the client's own timing
/// around Serve and the stage times and operator profile of the response.
void TraceRequest(std::uint64_t request_id, double t0, double t1,
                  const Result<serve::Response>& r,
                  const obs::QueryProfile& profile, std::size_t exec_threads,
                  double phase_start, ClientOut& out) {
  LayerAcc& acc = out.acc;
  const auto start = static_cast<std::int64_t>(t0 - phase_start);
  const auto end = static_cast<std::int64_t>(t1 - phase_start);
  std::vector<SpanRecord> spans;
  spans.push_back({"serve.request", start, end, -1, request_id});
  acc.e2e_us += t1 - t0;
  if (r.ok()) {
    const serve::Response& resp = *r;
    ++acc.answered;
    std::int64_t cursor = start;
    auto child = [&](const char* name, std::int64_t dur, int parent) {
      spans.push_back({name, cursor, cursor + dur, parent, request_id});
      cursor += dur;
      return static_cast<int>(spans.size() - 1);
    };
    // A memoized spelling whose plan missed parses inside the plan window;
    // the stages then sum to more than the door's total.
    const bool parse_in_plan = resp.queue_us + resp.parse_us + resp.plan_us +
                                   resp.exec_us > resp.total_us;
    child("serve.queue", resp.queue_us, 0);
    if (resp.parse_us > 0 && !parse_in_plan) child("sql.parse", resp.parse_us, 0);
    if (resp.plan_cache_hit) {
      child("serve.plan_lookup", resp.plan_us, 0);
      acc.lookup_us += static_cast<double>(resp.plan_us);
      ++acc.hits;
    } else {
      const std::int64_t plan_start = cursor;
      const int plan = child("planner.search", resp.plan_us, 0);
      if (parse_in_plan) {
        spans.push_back({"sql.parse", plan_start, plan_start + resp.parse_us,
                         plan, request_id});
      }
      acc.search_us.push_back(static_cast<double>(resp.plan_us));
    }
    if (resp.parse_us == 0) ++acc.parse_skipped;
    const std::int64_t exec_start = cursor;
    const int exec = child("exec.execute", resp.exec_us, 0);
    cursor = exec_start;
    double op_total = 0;
    for (const obs::OperatorStats& op : profile.operators) {
      if (op.op.empty()) continue;
      // OperatorStats::time_us is exclusive: the executor times each
      // kernel after its children have run and excludes shipping.
      child(op.op == "select"      ? "algebra.select"
            : op.op == "project"   ? "algebra.project"
            : op.op == "join"      ? "algebra.join"
            : op.op == "semi_join" ? "algebra.semi_join"
                                   : "algebra.other",
            op.time_us, exec);
      acc.op_self_us[op.op] += static_cast<double>(op.time_us);
      op_total += static_cast<double>(op.time_us);
      acc.hash_build += static_cast<double>(op.hash_build_rows);
      acc.hash_probe += static_cast<double>(op.hash_probe_rows);
      acc.rows_out += static_cast<double>(op.rows_out);
      for (const std::int64_t busy : op.worker_busy_us) {
        acc.worker_busy_us += static_cast<double>(busy);
      }
    }
    acc.queue_us.push_back(static_cast<double>(resp.queue_us));
    acc.unattributed_us += static_cast<double>(
        resp.total_us - resp.queue_us - resp.plan_us - resp.exec_us -
        (parse_in_plan ? 0 : resp.parse_us));
    acc.exec_us += static_cast<double>(resp.exec_us);
    acc.exec_unattributed_us +=
        static_cast<double>(profile.duration_us) - op_total;
    acc.worker_capacity_us += static_cast<double>(profile.duration_us) *
                              static_cast<double>(exec_threads);
    acc.messages += static_cast<double>(resp.network.total_messages());
    acc.rows_shipped += static_cast<double>(resp.network.total_rows());
    acc.bytes_shipped += static_cast<double>(resp.network.total_bytes());
    acc.estimated_bytes += resp.estimated_bytes;
  } else {
    ++acc.refused;
  }
  // The root's own time is unattributed (1 - trace.coverage), not serve's.
  const std::vector<std::int64_t> self = SelfTimes(spans);
  acc.root_self_us += static_cast<double>(self[0]);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    acc.layer_self_us[LayerOf(spans[i].name)] += static_cast<double>(self[i]);
  }
  out.spans->Append(spans);
}

struct EditLog {
  std::vector<double> wall_us;
  std::vector<std::pair<std::size_t, bool>> applied;  ///< (rule, grant)
  std::vector<std::string> problems;
};

/// Alternating grant/revoke of `rules`: edit k grants rule k/2 when k is
/// even and revokes it when odd, so the base policy returns to its start.
bool Edit(serve::FrontDoor& door, const std::vector<authz::Authorization>& rules,
          std::size_t k, EditLog& log) {
  const std::size_t rule = (k / 2) % rules.size();
  const bool grant = k % 2 == 0;
  const double t0 = NowUs();
  Result<authz::ClosureDelta> r =
      grant ? door.AddRule(rules[rule]) : door.RevokeRule(rules[rule]);
  log.wall_us.push_back(NowUs() - t0);
  if (!r.ok()) {
    log.problems.push_back(std::string(grant ? "grant" : "revoke") +
                           " failed: " + r.status().ToString());
    return false;
  }
  log.applied.emplace_back(rule, grant);
  return true;
}

/// Runs the 128-edit script on freshly warmed doors in waves: one door per
/// CPU, each edited by a thread pinned to its CPU, all CPUs at once. At
/// least one wave, more until kIdleEditBudgetUs or kIdleEditMaxRounds.
/// Pooling from every CPU keeps one slow CPU from setting the figure (the
/// same edits ran 1.0x-1.45x on one CPU over seconds), and a budget of
/// several seconds spans more of the host's slow and fast stretches; edits
/// start no threads, so they can run pinned. Returns the plan-cache entries
/// the edits retained.
constexpr double kIdleEditBudgetUs = 8e6;
constexpr std::size_t kIdleEditMaxRounds = 1024;

double IdleEdits(const Workload& w, const World& world,
                 const std::vector<authz::Authorization>& rules,
                 EditLog& log) {
  const std::vector<std::size_t> cpu_ids = AllowedCpus();
  const std::size_t cpus = cpu_ids.size();
  const double t0 = NowUs();
  double retained = 0;
  for (std::size_t wave = 0;
       wave == 0 ||
       (NowUs() - t0 < kIdleEditBudgetUs && wave * cpus < kIdleEditMaxRounds);
       ++wave) {
    std::vector<std::unique_ptr<serve::FrontDoor>> doors;
    for (std::size_t c = 0; c < cpus; ++c) doors.push_back(WarmDoor(w, world));
    std::vector<EditLog> logs(cpus);
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < cpus; ++c) {
        threads.emplace_back([&, c] {
          PinTo(cpu_ids[c]);
          for (std::size_t k = 0; k < 128; ++k) {
            if (!Edit(*doors[c], rules, k, logs[c])) break;
          }
        });
      }
    }
    for (std::size_t c = 0; c < cpus; ++c) {
      // Warm-up serves do not edit, so every retained entry is an edit's.
      retained += static_cast<double>(doors[c]->Stats().plan_cache_retained);
      const EditLog& l = logs[c];
      log.wall_us.insert(log.wall_us.end(), l.wall_us.begin(), l.wall_us.end());
      log.applied.insert(log.applied.end(), l.applied.begin(), l.applied.end());
      log.problems.insert(log.problems.end(), l.problems.begin(),
                          l.problems.end());
    }
    doors.clear();
    TrimHeap();
    if (!log.problems.empty()) break;
  }
  return retained;
}

/// One-second windows (at least four) over a timed phase.
std::size_t TimedWindows(double seconds) {
  return std::max<std::size_t>(4, static_cast<std::size_t>(seconds));
}

struct TimedResult {
  std::vector<ClientOut> clients;
  EditLog edits;  ///< concurrent edits (policy_churn)
  serve::FrontDoorStats before, after;
};

/// The timed phase: clients released together by a barrier, each sending
/// its list in whole passes until the deadline has passed. In a traced run
/// every other pass is traced, so traced and untraced requests see the same
/// cache and memo state.
TimedResult RunTimed(const Workload& w, World& world, const BookAt& book_at,
                     const std::vector<authz::Authorization>& edit_rules,
                     double seconds, bool trace, std::uint64_t seed) {
  TimedResult out;
  const std::size_t windows = TimedWindows(seconds);
  const double window_s = seconds / static_cast<double>(windows);
  out.clients.reserve(w.clients);
  for (std::size_t c = 0; c < w.clients; ++c) {
    out.clients.emplace_back(seed * 64 + c, windows, trace);
  }
  serve::FrontDoor& door = *world.door;
  const bool admin = w.reads_per_edit > 0;
  double phase_start = 0;
  std::barrier start(static_cast<std::ptrdiff_t>(w.clients + (admin ? 1 : 0)),
                     [&]() noexcept { phase_start = NowUs(); });
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::size_t> finished{0};
  out.before = door.Stats();

  auto client = [&](std::size_t c) {
    ClientOut& me = out.clients[c];
    const std::vector<std::string>& list = w.lists[c];
    start.arrive_and_wait();
    const double deadline = phase_start + seconds * 1e6;
    std::uint64_t seq = 0;
    for (std::size_t pass = 0;; ++pass) {
      const bool traced = trace && pass % 2 == 1;
      for (const std::string& sql : list) {
        serve::Request request;
        request.sql = sql;
        obs::QueryProfile profile;
        if (traced) request.profile = &profile;
        const std::uint64_t first_epoch = door.policy_epoch();
        const double t0 = NowUs();
        Result<serve::Response> r = door.Serve(request);
        const double t1 = NowUs();
        const std::uint64_t last_epoch = door.policy_epoch();
        const Checked checked =
            CheckServed(book_at, sql, r, first_epoch, last_epoch);
        Tally(checked, me.counts);
        const double done_s = (t1 - phase_start) / 1e6;
        (traced ? *me.traced_latency : me.latency).Add(t1 - t0, done_s);
        if (done_s < seconds) {
          ++me.window_counts[std::min(windows - 1,
                                      static_cast<std::size_t>(done_s / window_s))];
        }
        if (checked.outcome == Outcome::kAnswered) {
          me.answered_bytes += static_cast<double>(r->network.total_bytes());
        } else if (checked.outcome == Outcome::kFailed) {
          me.wrong = me.wrong || checked.wrong;
          if (me.problems.size() < 4) {
            me.problems.push_back(checked.why + " [" + sql + "]");
          }
        }
        if (traced) {
          TraceRequest((static_cast<std::uint64_t>(c) << 40) | seq, t0, t1, r,
                       profile, w.door_options.exec_threads, phase_start, me);
        }
        ++seq;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
      if (NowUs() >= deadline) break;
    }
    finished.fetch_add(1);
  };

  auto admin_loop = [&] {
    start.arrive_and_wait();
    for (std::size_t k = 0;; ++k) {
      const std::uint64_t due = (k + 1) * w.reads_per_edit;
      while (reads.load(std::memory_order_relaxed) < due &&
             finished.load() < w.clients) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      if (finished.load() == w.clients) break;
      if (!Edit(door, edit_rules, k, out.edits)) break;
    }
  };

  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < w.clients; ++c) threads.emplace_back(client, c);
    if (admin) threads.emplace_back(admin_loop);
  }
  out.after = door.Stats();
  return out;
}

// ---------------------------------------------------------------------------
// Traced-run replays: direct calls into each layer's public functions.

struct Replay {
  std::vector<double> parse_us, signature_us;
  std::vector<double> orders_tried, orders_feasible;
  double chase_us = 0;
  authz::ChaseStats chase_stats;
  std::size_t closure_rules = 0;
  std::vector<double> edit_us, delta_relations;
};

Replay RunReplays(const Workload& w, const World& world,
                  const std::vector<authz::Authorization>& rules,
                  const EditLog& edits) {
  Replay out;
  std::set<std::string> distinct;
  for (const auto& list : w.lists) distinct.insert(list.begin(), list.end());
  std::vector<plan::QuerySpec> specs;
  for (const std::string& sql : distinct) {
    if (specs.size() == 256) break;
    const double t0 = NowUs();
    Result<plan::QuerySpec> spec = sql::ParseAndBind(world.cat(), sql);
    const double t1 = NowUs();
    if (!spec.ok()) continue;
    (void)sql::CanonicalQuerySignature(*spec);
    out.parse_us.push_back(t1 - t0);
    out.signature_us.push_back(NowUs() - t1);
    specs.push_back(std::move(*spec));
  }

  const double c0 = NowUs();
  authz::AuthorizationSet closure = Must(
      authz::ChaseClosure(world.cat(), world.auths, w.door_options.chase,
                          &out.chase_stats),
      "replay chase");
  out.chase_us = NowUs() - c0;
  closure.Canonicalize();
  out.closure_rules = closure.size();

  const authz::CachingPolicy memo(closure, &world.cat());
  const planner::FeasiblePlanSearch search(world.cat(), memo, &world.stats);
  planner::PlanSearchOptions popt;
  popt.max_orders = w.door_options.max_orders;
  popt.threads = w.door_options.planning_threads;
  popt.planner_options.allow_third_party = w.door_options.allow_third_party;
  for (std::size_t i = 0; i < specs.size() && i < 64; ++i) {
    Result<planner::PlanSearchResult> found = search.Search(specs[i], popt);
    if (found.ok()) {
      out.orders_tried.push_back(static_cast<double>(found->orders_tried));
      out.orders_feasible.push_back(static_cast<double>(found->orders_feasible));
    }
  }

  Result<authz::IncrementalClosure> inc = authz::IncrementalClosure::Build(
      world.cat(), world.auths, w.door_options.chase);
  if (inc.ok()) {
    for (std::size_t k = 0; k < edits.applied.size() && k < 64; ++k) {
      const auto& [rule, grant] = edits.applied[k];
      const double t0 = NowUs();
      Result<authz::ClosureDelta> d =
          grant ? inc->AddRule(rules[rule]) : inc->RevokeRule(rules[rule]);
      out.edit_us.push_back(NowUs() - t0);
      if (d.ok()) out.delta_relations.push_back(static_cast<double>(d->relations.size()));
    }
  }
  return out;
}

/// Resets the process's high-water RSS to its current RSS (Linux), so
/// peak_rss_mb leaves out the benchmark's reference computation. False
/// when the kernel does not allow it.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

/// High-water RSS in MB: VmHWM, which ResetPeakRss resets (getrusage also
/// keeps the high-water marks of exited threads), else getrusage.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kb = -1;
    while (kb < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kb) != 1) kb = -1;
    }
    std::fclose(f);
    if (kb >= 0) return kb / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

bool RunWorkload(const RunConfig& config, RunReport* report,
                 std::string* error) {
  try {
    Workload w = MakeWorkload(config.workload, config.seed);
    // Requests, edit rules and references come from a world of their own,
    // before anything is timed or counted in peak_rss_mb. Worlds are built
    // from fixed seeds, so the served world holds the same rows.
    std::vector<authz::Authorization> rules;
    std::vector<ReferenceBook> books;
    {
      const std::unique_ptr<World> probe = w.build();
      if (w.lists.empty()) {
        AddGeneratedRequests(config.workload, *probe, config.seed, w);
      }
      rules = EditRules(probe->cat(), probe->auths);
      books = BuildReferences(w, *probe, PolicyStates(w, *probe, rules));
    }
    TrimHeap();
    report->clients = w.clients;
    report->peak_rss_reset = ResetPeakRss();

    // setup_s comes from the timed run's set-up samples; the traced run
    // sets up once.
    std::vector<double> setup_us;
    std::unique_ptr<World> world;
    if (config.trace) {
      double us = 0;
      world = SetUp(w, &us);
      setup_us.push_back(us);
    } else {
      world = SampleSetUps(w, &setup_us);
    }

    // The epoch-k policy: k edits after the timed phase starts, the edit
    // script (see Edit) has granted rule (k / 2) % n when k is odd and
    // restored the base when k is even.
    const std::uint64_t start_epoch = world->door->policy_epoch();
    const BookAt book_at = [&](std::uint64_t epoch) -> const ReferenceBook* {
      if (epoch < start_epoch) return nullptr;
      const std::uint64_t k = epoch - start_epoch;
      const std::size_t state = k % 2 == 0 ? 0 : 1 + (k / 2) % rules.size();
      return state < books.size() ? &books[state] : nullptr;
    };
    TimedResult timed = RunTimed(w, *world, book_at, rules, config.seconds,
                                 config.trace, config.seed);
    const double peak_rss_mb = PeakRssMb();

    // Workloads without concurrent edits time the same edit script on
    // freshly warmed doors with no readers, so the caches an edit retains
    // or sweeps hold the same entries in every run.
    EditLog idle;
    double idle_retained = 0;
    if (w.reads_per_edit == 0) {
      idle_retained = IdleEdits(w, *world, rules, idle);
    }
    const EditLog& edits = w.reads_per_edit > 0 ? timed.edits : idle;
    report->edits = edits.wall_us.size();
    report->setup_batches = setup_us.size();

    // Counts, correctness, problems.
    std::vector<double> latency, done_s, traced_latency;
    std::vector<std::uint64_t> window_counts(TimedWindows(config.seconds), 0);
    LayerAcc acc;
    double answered_bytes = 0;
    for (const ClientOut& c : timed.clients) {
      report->counts += c.counts;
      const auto append = [](std::vector<double>& to,
                             const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(latency, c.latency.values());
      append(done_s, c.latency.times());
      if (c.traced_latency) append(traced_latency, c.traced_latency->values());
      for (std::size_t i = 0; i < window_counts.size(); ++i) {
        window_counts[i] += c.window_counts[i];
      }
      answered_bytes += c.answered_bytes;
      acc.Merge(c.acc);
      if (c.wrong) report->correct = false;
      for (const std::string& p : c.problems) {
        if (report->problems.size() < 8) report->problems.push_back(p);
      }
    }
    for (const std::string& p : edits.problems) {
      report->correct = false;
      if (report->problems.size() < 8) report->problems.push_back(p);
    }
    if (report->counts.failed > 0) report->correct = false;
    if (!report->counts.Consistent()) {
      report->correct = false;
      report->problems.push_back("attempted != answered + refused + failed");
    }

    auto add = [&](const std::string& name, double value,
                   const std::string& unit) {
      report->metrics.push_back({name, value, unit});
    };
    auto need = [&](std::optional<double> v, const char* what,
                    std::size_t samples) {
      if (!v.has_value()) {
        throw SetupError{std::string("too few samples for ") + what + " (" +
                         std::to_string(samples) + ")"};
      }
      return *v;
    };
    const auto& c = report->counts;

    if (!config.trace) {
      add("setup_s", Median(setup_us) / 1e6, "s");
      // Throughput and median over one-second windows of the timed phase.
      const Windowed windowed =
          WindowedMedians(window_counts, done_s, latency, config.seconds);
      need(Percentile(latency, 0.50), "latency p50", latency.size());
      add("qps", windowed.rate_per_s, "req/s");
      add("latency_p50_us", windowed.p50, "us");
      // p99 per window of about 1100 samples (so each has ten beyond),
      // median over windows.
      add("latency_p99_us",
          need(WindowedPercentile(done_s, latency, config.seconds, 0.99, 1100),
               "latency p99", latency.size()),
          "us");
      add("answered_frac",
          Ratio(static_cast<double>(c.answered), static_cast<double>(c.attempted)),
          "ratio");
      add("bytes_per_answer",
          Ratio(answered_bytes, static_cast<double>(c.answered)), "bytes");
      add("edit_p50_us", need(Percentile(edits.wall_us, 0.50), "edit p50", edits.wall_us.size()), "us");
      add("edit_p90_us", need(Percentile(edits.wall_us, 0.90), "edit p90", edits.wall_us.size()), "us");
      add("peak_rss_mb", peak_rss_mb, "MB");
      return true;
    }

    // Traced run: per-layer metrics.
    const Replay replay = RunReplays(w, *world, rules, edits);
    const double answered = static_cast<double>(acc.answered);
    const double edit_count = static_cast<double>(edits.wall_us.size());
    const serve::FrontDoorStats& b = timed.before;
    const serve::FrontDoorStats& a = timed.after;
    const double hits = static_cast<double>(a.plan_cache_hits - b.plan_cache_hits);
    const double misses =
        static_cast<double>(a.plan_cache_misses - b.plan_cache_misses);
    const double cv_hits = static_cast<double>(a.canview_hits - b.canview_hits);
    const double cv_misses =
        static_cast<double>(a.canview_misses - b.canview_misses);
    const double retained =
        w.reads_per_edit > 0
            ? static_cast<double>(a.plan_cache_retained - b.plan_cache_retained)
            : idle_retained;
    add("serve.queue_us.mean", Mean(acc.queue_us), "us");
    add("serve.queue_us.p99", TailPercentile(acc.queue_us, 0.99), "us");
    add("serve.unattributed_us.mean", Ratio(acc.unattributed_us, answered), "us");
    add("serve.plan_cache.hit_rate", Ratio(hits, hits + misses), "ratio");
    add("serve.plan_cache.retained_per_edit", Ratio(retained, edit_count), "count");
    add("serve.plan_lookup_us.mean",
        Ratio(acc.lookup_us, static_cast<double>(acc.hits)), "us");
    add("serve.sig_memo.skip_frac",
        Ratio(static_cast<double>(acc.parse_skipped), answered), "ratio");
    add("serve.edit_publish_us.mean",
        std::max(0.0, Mean(edits.wall_us) - Mean(replay.edit_us)), "us");
    add("sql.parse_us.mean", Mean(replay.parse_us), "us");
    add("sql.signature_us.mean", Mean(replay.signature_us), "us");
    add("planner.search_us.mean", Mean(acc.search_us), "us");
    add("planner.search_us.p99", TailPercentile(acc.search_us, 0.99), "us");
    add("planner.orders_tried.mean", Mean(replay.orders_tried), "count");
    add("planner.orders_feasible.mean", Mean(replay.orders_feasible), "count");
    add("planner.refused_frac",
        Ratio(static_cast<double>(acc.refused),
              static_cast<double>(acc.refused + acc.answered)),
        "ratio");
    add("planner.est_over_actual_bytes",
        Ratio(acc.estimated_bytes, acc.bytes_shipped), "ratio");
    add("authz.canview.hit_rate", Ratio(cv_hits, cv_hits + cv_misses), "ratio");
    add("authz.chase_us", replay.chase_us, "us");
    add("authz.closure_rules", static_cast<double>(replay.closure_rules), "count");
    add("authz.chase.pairs_considered",
        static_cast<double>(replay.chase_stats.pairs_considered), "count");
    add("authz.edit_us.mean", Mean(replay.edit_us), "us");
    add("authz.delta_relations.mean", Mean(replay.delta_relations), "count");
    add("exec.exec_us.mean", Ratio(acc.exec_us, answered), "us");
    for (const char* op : {"select", "join", "semi_join", "project"}) {
      const auto it = acc.op_self_us.find(op);
      add(std::string("exec.op_self_us.") + op,
          Ratio(it == acc.op_self_us.end() ? 0.0 : it->second, answered), "us");
    }
    add("exec.unattributed_us.mean", Ratio(acc.exec_unattributed_us, answered),
        "us");
    add("exec.messages", Ratio(acc.messages, answered), "count");
    add("exec.rows_shipped", Ratio(acc.rows_shipped, answered), "count");
    add("exec.bytes_shipped", Ratio(acc.bytes_shipped, answered), "bytes");
    if (w.door_options.exec_threads > 1) {  // big_scan only
      add("exec.worker_busy_frac",
          Ratio(acc.worker_busy_us, acc.worker_capacity_us), "ratio");
    }
    add("algebra.hash_build_rows", Ratio(acc.hash_build, answered), "count");
    add("algebra.hash_probe_rows", Ratio(acc.hash_probe, answered), "count");
    add("algebra.rows_out", Ratio(acc.rows_out, answered), "count");
    add("storage.columnar_first_touch_us", world->columnar_first_touch_us, "us");
    const double untraced_p50 = Percentile(latency, 0.5).value_or(0.0);
    const double traced_p50 = Percentile(traced_latency, 0.5).value_or(0.0);
    add("obs.trace_overhead_pct",
        untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0) : 0.0, "%");
    for (const char* layer : {"serve", "sql", "planner", "exec", "algebra"}) {
      const auto it = acc.layer_self_us.find(layer);
      add(std::string("share.") + layer,
          Ratio(it == acc.layer_self_us.end() ? 0.0 : it->second, acc.e2e_us),
          "ratio");
    }
    add("trace.coverage", 1.0 - Ratio(acc.root_self_us, acc.e2e_us), "ratio");

    std::vector<const SpanBuffer*> buffers;
    for (const ClientOut& cl : timed.clients) {
      buffers.push_back(cl.spans.get());
      report->spans_kept += cl.spans->spans().size();
      report->spans_dropped += cl.spans->dropped();
    }
    if (!config.span_path.empty()) {
      if (!WriteSpans(config.span_path, buffers)) {
        report->problems.push_back("could not write " + config.span_path);
      }
    }
    return true;
  } catch (const SetupError& e) {
    *error = e.what;
    return false;
  }
}

}  // namespace perfbench
