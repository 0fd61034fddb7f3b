// The benchmark's own tests: percentile rule, latency sampling and windows,
// outcome accounting, the fail-closed answer check, and span self-time
// arithmetic.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "check.hpp"
#include "exec/cluster.hpp"
#include "exec/executor.hpp"
#include "plan/builder.hpp"
#include "serve/front_door.hpp"
#include "spans.hpp"
#include "sql/binder.hpp"
#include "stats.hpp"
#include "workload/medical.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;
using cisqp::workload::MedicalScenario;

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileNeedsTenBeyond() {
  // Nearest rank: p99 of 1..1000 is 990, with exactly ten samples above.
  EXPECT(Percentile(Range(1000), 0.99) == 990.0);
  EXPECT(!Percentile(Range(999), 0.99).has_value());
  EXPECT(Percentile(Range(20), 0.50) == 10.0);
  EXPECT(!Percentile(Range(19), 0.50).has_value());
  EXPECT(!Percentile({}, 0.50).has_value());
  // The per-layer tail falls back to the highest percentile that has ten
  // samples beyond it, and to 0 when none has.
  EXPECT(TailPercentile(Range(1000), 0.99) == 990.0);
  EXPECT(TailPercentile(Range(50), 0.99) == 40.0);
  EXPECT(TailPercentile(Range(10), 0.99) == 0.0);
  EXPECT(Median({3, 1, 2}) == 2.0);
  EXPECT(Median({4, 1, 2, 3}) == 2.5);
}

void TestReservoirAndWindows() {
  Reservoir small(8, 1);
  for (int i = 0; i < 5; ++i) small.Add(i, i);
  EXPECT(small.values().size() == 5 && small.seen() == 5);  // keeps all
  Reservoir capped(100, 1);
  for (int i = 0; i < 10000; ++i) capped.Add(i, i);
  EXPECT(capped.values().size() == 100 && capped.seen() == 10000);
  EXPECT(capped.values().capacity() == 100);  // never grows
  EXPECT(Mean(capped.values()) > 2500 && Mean(capped.values()) < 7500);

  // Two 1-second windows: 10 and 30 completions; window medians 2 and 4;
  // a sample completing after the phase is left out.
  const Windowed w =
      WindowedMedians({10, 30}, {0.1, 0.2, 0.3, 1.1, 1.2, 1.3, 2.5},
                      {1, 2, 3, 3, 4, 5, 100}, 2.0);
  EXPECT(w.rate_per_s == 20.0);
  EXPECT(w.p50 == 3.0);

  // 3000 samples over 3 s, 1000 per window: p99s 990, 1990, 2990 -> 1990.
  std::vector<double> done, lat;
  for (int i = 0; i < 3000; ++i) {
    done.push_back(i / 1000.0);
    lat.push_back(i % 1000 + 1 + 1000 * (i / 1000));
  }
  EXPECT(WindowedPercentile(done, lat, 3.0, 0.99, 1000) == 1990.0);
  // Too few per window for ten beyond: one window over everything.
  EXPECT(WindowedPercentile(done, lat, 3.0, 0.99, 2000) == 2970.0);
  EXPECT(!WindowedPercentile({0.1}, {5}, 3.0, 0.99, 1000).has_value());
}

void TestSpanSelfTimes() {
  // Root [0,100] with overlapping children [10,30] and [20,50] (covering 40)
  // and one running past the root's end, clipped to [90,100].
  const std::vector<SpanRecord> spans = {
      {"serve.request", 0, 100, -1, 1},
      {"planner.search", 10, 30, 0, 1},
      {"sql.parse", 20, 50, 0, 1},
      {"exec.execute", 90, 120, 0, 1},
      {"algebra.join", 95, 105, 3, 1},
  };
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30 - 10);
  EXPECT(self[4] == 10);
  EXPECT(LayerOf("algebra.semi_join") == "algebra");
  EXPECT(LayerOf("serve") == "serve");

  SpanBuffer buffer(6);
  buffer.Append({spans[0], spans[1]});
  buffer.Append({spans[0], spans[1], spans[2]});
  EXPECT(buffer.spans().size() == 5);
  EXPECT(buffer.spans()[3].parent == 2);  // re-based onto the buffer
  buffer.Append({spans[0], spans[1]});    // over capacity: dropped
  EXPECT(buffer.spans().size() == 5);
  EXPECT(buffer.dropped() == 2);
}

/// A small medical world and one served answer to check against.
struct Fixture {
  cisqp::catalog::Catalog cat = MedicalScenario::BuildCatalog();
  cisqp::authz::AuthorizationSet auths =
      MedicalScenario::BuildAuthorizations(cat);
  cisqp::exec::Cluster cluster{cat};
  std::string sql{MedicalScenario::kPaperQuery};

  Fixture() {
    cisqp::Rng rng(7);
    (void)MedicalScenario::PopulateCluster(
        cluster, MedicalScenario::DataConfig{64, 0.4, 0.6, 10}, rng);
  }

  Expected Reference() const {
    const auto spec = cisqp::sql::ParseAndBind(cat, sql).value();
    const auto plan = cisqp::plan::PlanBuilder(cat).Build(spec).value();
    const auto table = cisqp::exec::ExecuteCentralized(cluster, plan).value();
    Expected e;
    e.answered = true;
    e.columns = table.columns();
    e.rows = table.row_count();
    e.digest = RowMultisetDigest(table);
    return e;
  }
};

void TestCheckFailsClosed() {
  Fixture f;
  cisqp::serve::FrontDoor door(f.cat, f.auths, f.cluster, nullptr);
  cisqp::serve::Request request;
  request.sql = f.sql;
  const cisqp::Result<cisqp::serve::Response> answer = door.Serve(request);
  EXPECT(answer.ok());
  if (!answer.ok()) return;
  const Expected good = f.Reference();
  EXPECT(CheckResponse(&good, answer).outcome == Outcome::kAnswered);

  // Row order does not matter; row content does.
  cisqp::storage::Table reversed(answer->table.columns());
  for (auto it = answer->table.rows().rbegin(); it != answer->table.rows().rend();
       ++it) {
    reversed.AppendRowUnchecked(*it);
  }
  EXPECT(RowMultisetDigest(reversed) == good.digest);

  Counts counts;
  Expected planted = good;
  planted.digest ^= 1;  // a wrong reference must fail the run
  Checked c = CheckResponse(&planted, answer);
  EXPECT(c.outcome == Outcome::kFailed && c.wrong);
  Tally(c, counts);
  planted = good;
  planted.rows += 1;
  c = CheckResponse(&planted, answer);
  EXPECT(c.outcome == Outcome::kFailed && c.wrong);
  Tally(c, counts);
  c = CheckResponse(nullptr, answer);  // no reference at all
  EXPECT(c.outcome == Outcome::kFailed && c.wrong);
  Tally(c, counts);
  planted = good;
  planted.answered = false;  // the reference door refused it
  c = CheckResponse(&planted, answer);
  EXPECT(c.outcome == Outcome::kFailed && c.wrong);
  Tally(c, counts);

  // Refusals: a matching kInfeasible verdict is refused, not failed; a
  // different verdict or any other status is failed.
  const cisqp::Result<cisqp::serve::Response> refusal =
      cisqp::Status(cisqp::StatusCode::kInfeasible, "no safe assignment");
  Expected refused;
  refused.code = cisqp::StatusCode::kInfeasible;
  refused.message = "no safe assignment";
  c = CheckResponse(&refused, refusal);
  EXPECT(c.outcome == Outcome::kRefused);
  Tally(c, counts);
  c = CheckResponse(&good, refusal);
  EXPECT(c.outcome == Outcome::kFailed && c.wrong);
  Tally(c, counts);
  const cisqp::Result<cisqp::serve::Response> rejected =
      cisqp::Status(cisqp::StatusCode::kResourceExhausted, "queue full");
  c = CheckResponse(&good, rejected);
  EXPECT(c.outcome == Outcome::kFailed && !c.wrong);
  Tally(c, counts);
  EXPECT(counts.attempted == 7 && counts.refused == 1 && counts.failed == 6);
  EXPECT(counts.Consistent());
}

// Under concurrent policy edits the verdict depends on the epoch: an answer
// is checked against the policy of the epoch it reports, a refusal against
// the epochs its serve spanned.
void TestCheckFollowsPolicyEpoch() {
  Fixture f;
  cisqp::serve::FrontDoor door(f.cat, f.auths, f.cluster, nullptr);
  cisqp::serve::Request request;
  request.sql = f.sql;
  cisqp::Result<cisqp::serve::Response> answer = door.Serve(request);
  EXPECT(answer.ok());
  if (!answer.ok()) return;
  const std::uint64_t epoch = answer->policy_epoch;
  Expected allowed = f.Reference();
  allowed.answered = true;
  Expected refused = f.Reference();
  refused.answered = false;
  refused.code = cisqp::StatusCode::kInfeasible;
  refused.message = "no safe assignment";
  ReferenceBook allow, deny;
  allow.Set(f.sql, allowed);
  deny.Set(f.sql, refused);
  // The policy allows the query at `epoch` and forbids it at epoch + 1.
  const BookAt book_at = [&](std::uint64_t e) -> const ReferenceBook* {
    return e == epoch ? &allow : e == epoch + 1 ? &deny : nullptr;
  };
  EXPECT(CheckServed(book_at, f.sql, answer, epoch, epoch + 1).outcome ==
         Outcome::kAnswered);
  // A planted retention bug: the door answers at an epoch whose policy
  // refuses the query.
  answer->policy_epoch = epoch + 1;
  Checked c = CheckServed(book_at, f.sql, answer, epoch, epoch + 1);
  EXPECT(c.outcome == Outcome::kFailed && c.wrong);
  // An answer reporting an epoch outside its serve window.
  answer->policy_epoch = epoch;
  c = CheckServed(book_at, f.sql, answer, epoch + 1, epoch + 1);
  EXPECT(c.outcome == Outcome::kFailed && c.wrong);

  const cisqp::Result<cisqp::serve::Response> refusal =
      cisqp::Status(cisqp::StatusCode::kInfeasible, "no safe assignment");
  EXPECT(CheckServed(book_at, f.sql, refusal, epoch, epoch + 1).outcome ==
         Outcome::kRefused);
  c = CheckServed(book_at, f.sql, refusal, epoch, epoch);
  EXPECT(c.outcome == Outcome::kFailed && c.wrong);
}

void TestShortRunAccounts() {
  RunConfig config;
  config.workload = "hot_serve";
  config.seed = 3;
  config.seconds = 0.3;
  RunReport report;
  std::string error;
  EXPECT(RunWorkload(config, &report, &error));
  EXPECT(report.correct);
  EXPECT(report.counts.attempted > 0);
  EXPECT(report.counts.Consistent());
  EXPECT(report.counts.failed == 0);
  std::set<std::string> names;
  for (const MetricValue& m : report.metrics) names.insert(m.name);
  EXPECT(names == (std::set<std::string>{
                      "setup_s", "qps", "latency_p50_us", "latency_p99_us",
                      "answered_frac", "bytes_per_answer", "edit_p50_us",
                      "edit_p90_us", "peak_rss_mb"}));

  // Concurrent edits: every answer and refusal checked against the policy
  // of its epoch. One edit per 1000 reads: edit_p90_us needs 100 edits,
  // which 4 s gave only at 25k reads/s or more.
  RunConfig churn = config;
  churn.workload = "policy_churn";
  churn.seconds = 10;
  RunReport churned;
  EXPECT(RunWorkload(churn, &churned, &error));
  if (!error.empty()) std::fprintf(stderr, "policy_churn: %s\n", error.c_str());
  EXPECT(churned.correct && churned.counts.failed == 0);
  EXPECT(churned.edits > 0);

  RunConfig unknown = config;
  unknown.workload = "no_such_workload";
  RunReport ignored;
  EXPECT(!RunWorkload(unknown, &ignored, &error));
}

}  // namespace

int main() {
  TestPercentileNeedsTenBeyond();
  TestReservoirAndWindows();
  TestSpanSelfTimes();
  TestCheckFailsClosed();
  TestCheckFollowsPolicyEpoch();
  TestShortRunAccounts();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
