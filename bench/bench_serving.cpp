// E19 — multi-query serving front door: plan + CanView caching under
// concurrent load.
//
// The front door admits 1/8/32 concurrent clients onto one shared door and
// measures per-request latency in two modes:
//
//   cold    every request carries a unique WHERE literal, so its canonical
//           signature never repeats — each request pays parse + full
//           feasible-plan search + execution.
//   cached  requests draw from a small fixed set of warmed shapes — each
//           request pays parse + cache lookup + execution, and its answer
//           must be byte-identical to the single-threaded cold reference.
//
// Claims gated by scripts/check_bench_regression.sh: at 1 client the cached
// p50 is >=5x below the cold p50, every cached answer is byte-identical to
// its reference, and 32 clients queueing on 8 admission slots keep at least
// half the 8-client cached throughput. The artifact records {clients, mode,
// requests, p50_us, p99_us, plan_p50_us, exec_p50_us, queue_p50_us,
// queue_p99_us, total_p50_us, total_p99_us, qps, identical} rows plus a
// summary row with the 1-client speedup and hw_threads.
#include "bench_util.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "exec/cluster.hpp"
#include "serve/front_door.hpp"

namespace cisqp::bench {
namespace {

using workload::MedicalScenario;

std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The world every phase serves against: catalog, policy, populated
/// cluster, stats. Built once; front doors are cheap views over it.
struct World {
  catalog::Catalog cat = MedicalScenario::BuildCatalog();
  authz::AuthorizationSet auths = MedicalScenario::BuildAuthorizations(cat);
  exec::Cluster cluster{cat};
  plan::StatsCatalog stats;

  World() {
    Rng rng(2026);
    UnwrapStatus(MedicalScenario::PopulateCluster(
                     cluster, MedicalScenario::DataConfig{64, 0.4, 0.6, 10},
                     rng),
                 "populate cluster");
    stats = MedicalScenario::ComputeStats(cluster);
  }

  serve::FrontDoor MakeDoor(std::size_t clients) const {
    serve::ServeOptions options;
    options.max_concurrent = std::min<std::size_t>(clients, 8);
    // Third-party assignments widen the per-order candidate space — the
    // paper's cooperative-server mode, and the realistic cold-planning cost.
    options.allow_third_party = true;
    return serve::FrontDoor(cat, auths, cluster, &stats, options);
  }
};

/// The paper's Example 2.2 join — the widest feasible chain under the
/// Fig. 3 policy. Its order/assignment space is what a cold request must
/// search and a cached request skips.
const std::string kWideQuery{MedicalScenario::kPaperQuery};

/// The warmed shapes for cached mode (all feasible under the Fig. 3 policy;
/// selective point-ish filters — the serving workload's bread and butter).
std::vector<std::string> CachedShapes() {
  return {kWideQuery + " WHERE Holder >= 56",
          kWideQuery + " WHERE Holder >= 48 AND Plan <> 'gold'",
          "SELECT Citizen, HealthAid, Patient, Disease FROM Nat_registry "
          "JOIN Hospital ON Citizen = Patient WHERE Citizen >= 56",
          "SELECT Holder, Plan FROM Insurance WHERE Holder >= 56"};
}

/// A query whose signature is unique per `k` — cold mode's cache-miss feed.
std::string ColdShape(std::size_t k) {
  return kWideQuery + " WHERE Holder >= " + std::to_string(k);
}

struct PhaseResult {
  std::int64_t p50_us = 0;
  std::int64_t p99_us = 0;
  std::int64_t plan_p50_us = 0;
  std::int64_t exec_p50_us = 0;
  std::int64_t queue_p50_us = 0;  ///< Response::queue_us (admission wait)
  std::int64_t queue_p99_us = 0;
  std::int64_t total_p50_us = 0;  ///< Response::total_us (door-measured)
  std::int64_t total_p99_us = 0;
  double qps = 0.0;
  bool identical = true;
  std::size_t requests = 0;
};

/// One served request's timings.
struct Sample {
  std::int64_t latency_us = 0;  ///< client-measured round trip
  std::int64_t plan_us = 0;
  std::int64_t exec_us = 0;
  std::int64_t queue_us = 0;
  std::int64_t total_us = 0;
};

/// p50 and p99 of `field` over `samples`.
std::pair<std::int64_t, std::int64_t> Percentiles(
    const std::vector<Sample>& samples, std::int64_t Sample::*field) {
  std::vector<std::int64_t> values;
  values.reserve(samples.size());
  for (const Sample& sample : samples) values.push_back(sample.*field);
  std::sort(values.begin(), values.end());
  return {values[values.size() / 2], values[(values.size() * 99) / 100]};
}

/// Runs `sqls` through `door` from `clients` worker threads. Request i goes
/// to client i % clients; every client's request list is built before the
/// phase, and all clients start together on a barrier, so the clock covers
/// serving only. When `references` is non-null, request i's table must be
/// byte-identical to (*references)[i % references->size()].
PhaseResult RunPhase(serve::FrontDoor& door,
                     const std::vector<std::string>& sqls,
                     std::size_t clients,
                     const std::vector<storage::Table>* references) {
  struct Job {
    serve::Request request;
    const storage::Table* want = nullptr;
  };
  std::vector<std::vector<Job>> jobs(clients);
  std::vector<std::vector<Sample>> samples(clients);
  for (std::size_t i = 0; i < sqls.size(); ++i) {
    Job job;
    job.request.sql = sqls[i];
    if (references != nullptr) {
      job.want = &(*references)[i % references->size()];
    }
    jobs[i % clients].push_back(std::move(job));
  }
  for (std::size_t c = 0; c < clients; ++c) samples[c].reserve(jobs[c].size());

  std::atomic<bool> identical{true};
  std::int64_t phase_start = 0;
  std::barrier start(static_cast<std::ptrdiff_t>(clients),
                     [&]() noexcept { phase_start = NowUs(); });
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        start.arrive_and_wait();
        for (const Job& job : jobs[c]) {
          const std::int64_t t0 = NowUs();
          Result<serve::Response> response = door.Serve(job.request);
          const std::int64_t latency_us = NowUs() - t0;
          if (!response.ok()) {
            std::fprintf(stderr, "FATAL (serve): %s\n",
                         response.status().ToString().c_str());
            std::abort();
          }
          samples[c].push_back(Sample{latency_us, response->plan_us,
                                      response->exec_us, response->queue_us,
                                      response->total_us});
          if (job.want != nullptr &&
              (response->table.rows() != job.want->rows() ||
               response->table.columns() != job.want->columns())) {
            identical.store(false, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const std::int64_t elapsed_us = NowUs() - phase_start;

  std::vector<Sample> all;
  all.reserve(sqls.size());
  for (const std::vector<Sample>& client : samples) {
    all.insert(all.end(), client.begin(), client.end());
  }
  PhaseResult out;
  out.requests = sqls.size();
  out.identical = identical.load();
  std::tie(out.p50_us, out.p99_us) = Percentiles(all, &Sample::latency_us);
  out.plan_p50_us = Percentiles(all, &Sample::plan_us).first;
  out.exec_p50_us = Percentiles(all, &Sample::exec_us).first;
  std::tie(out.queue_p50_us, out.queue_p99_us) =
      Percentiles(all, &Sample::queue_us);
  std::tie(out.total_p50_us, out.total_p99_us) =
      Percentiles(all, &Sample::total_us);
  out.qps = elapsed_us > 0 ? 1e6 * static_cast<double>(sqls.size()) /
                                 static_cast<double>(elapsed_us)
                           : 0.0;
  return out;
}

constexpr const char* kExperiment =
    "E19: multi-query serving with plan + CanView caching";
constexpr const char* kClaim =
    "cached-hit p50 >=5x below cold p50 at 1 client; cached answers "
    "byte-identical to the cold reference; 32-client cached qps >=0.5x the "
    "8-client cached qps";

void PrintServingSweep() {
  PrintHeader(kExperiment, kClaim);
  const World world;
  const std::vector<std::string> shapes = CachedShapes();

  // Single-threaded cold references for the cached shapes.
  std::vector<storage::Table> references;
  {
    serve::FrontDoor ref_door = world.MakeDoor(1);
    for (const std::string& sql : shapes) {
      serve::Request request;
      request.sql = sql;
      references.push_back(
          Unwrap(ref_door.Serve(request), "reference serve").table);
    }
  }

  Artifact artifact("serving", kExperiment, kClaim);
  std::printf("%8s %8s %9s %10s %10s %10s %10s %10s %10s\n", "clients",
              "mode", "requests", "p50_us", "p99_us", "queue_p50",
              "queue_p99", "qps", "identical");

  std::int64_t cold_p50_1 = 0;
  std::int64_t cached_p50_1 = 0;
  std::size_t cold_counter = 0;
  bool all_identical = true;
  for (const std::size_t clients : {1u, 8u, 32u}) {
    // Cold: every request is a fresh signature on a fresh door.
    serve::FrontDoor door = world.MakeDoor(clients);
    const std::size_t cold_requests = 24 * clients;
    std::vector<std::string> cold_sqls;
    cold_sqls.reserve(cold_requests);
    for (std::size_t i = 0; i < cold_requests; ++i) {
      cold_sqls.push_back(ColdShape(cold_counter++));
    }
    const PhaseResult cold = RunPhase(door, cold_sqls, clients, nullptr);

    // Cached: warm the fixed shapes once, then serve them repeatedly.
    std::vector<std::string> warm_sqls;
    const std::size_t cached_requests = 240 * clients;
    warm_sqls.reserve(cached_requests);
    for (std::size_t i = 0; i < cached_requests; ++i) {
      warm_sqls.push_back(shapes[i % shapes.size()]);
    }
    {  // Warm-up pass (excluded from timing): one cold serve per shape.
      for (const std::string& sql : shapes) {
        serve::Request request;
        request.sql = sql;
        (void)Unwrap(door.Serve(request), "warmup serve");
      }
    }
    const PhaseResult cached = RunPhase(door, warm_sqls, clients, &references);
    all_identical = all_identical && cached.identical;
    if (clients == 1) {
      cold_p50_1 = cold.p50_us;
      cached_p50_1 = cached.p50_us;
    }

    for (const auto* phase : {&cold, &cached}) {
      const bool is_cold = phase == &cold;
      std::printf("%8zu %8s %9zu %10lld %10lld %10lld %10lld %10.0f %10s\n",
                  clients, is_cold ? "cold" : "cached", phase->requests,
                  static_cast<long long>(phase->p50_us),
                  static_cast<long long>(phase->p99_us),
                  static_cast<long long>(phase->queue_p50_us),
                  static_cast<long long>(phase->queue_p99_us), phase->qps,
                  phase->identical ? "yes" : "NO");
      artifact.Row()
          .Value("clients", clients)
          .Value("mode", is_cold ? "cold" : "cached")
          .Value("requests", phase->requests)
          .Value("p50_us", phase->p50_us)
          .Value("p99_us", phase->p99_us)
          .Value("plan_p50_us", phase->plan_p50_us)
          .Value("exec_p50_us", phase->exec_p50_us)
          .Value("queue_p50_us", phase->queue_p50_us)
          .Value("queue_p99_us", phase->queue_p99_us)
          .Value("total_p50_us", phase->total_p50_us)
          .Value("total_p99_us", phase->total_p99_us)
          .Value("qps", phase->qps)
          .Value("identical", phase->identical);
    }
  }

  const double speedup =
      cached_p50_1 > 0 ? static_cast<double>(cold_p50_1) /
                             static_cast<double>(cached_p50_1)
                       : 0.0;
  std::printf("1-client cached speedup: %.2fx (cold p50 %lldus / cached "
              "p50 %lldus)\n",
              speedup, static_cast<long long>(cold_p50_1),
              static_cast<long long>(cached_p50_1));
  artifact.Row()
      .Value("mode", "summary")
      .Value("cold_p50_us", cold_p50_1)
      .Value("cached_p50_us", cached_p50_1)
      .Value("speedup", speedup)
      .Value("hw_threads", ThreadPool::HardwareConcurrency())
      .Value("identical", all_identical);
  artifact.Write();

  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: a cached answer differed from its cold reference\n");
    std::abort();
  }
}

void BM_ServeCached(benchmark::State& state) {
  const World world;
  serve::FrontDoor door = world.MakeDoor(1);
  serve::Request request;
  request.sql = std::string(MedicalScenario::kPaperQuery);
  (void)Unwrap(door.Serve(request), "warmup serve");
  for (auto _ : state) {
    Result<serve::Response> response = door.Serve(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServeCached)->Unit(benchmark::kMicrosecond);

void BM_ServeCold(benchmark::State& state) {
  const World world;
  serve::FrontDoor door = world.MakeDoor(1);
  std::size_t k = 0;
  for (auto _ : state) {
    serve::Request request;
    request.sql = ColdShape(k++);
    Result<serve::Response> response = door.Serve(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServeCold)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cisqp::bench

int main(int argc, char** argv) {
  cisqp::bench::PrintServingSweep();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
