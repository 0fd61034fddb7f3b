// E5 — planning scalability: the two-traversal algorithm's cost as the query
// tree and the policy grow (the paper argues the algorithm fits a practical
// two-step optimizer; it must stay far below optimization cost).
#include "bench_util.hpp"

#include "common/strings.hpp"
#include "workload/generator.hpp"

namespace cisqp::bench {
namespace {

struct ChainWorkload {
  workload::Federation fed;
  authz::AuthorizationSet auths;
  plan::QueryPlan plan;
};

/// A chain query of `joins` joins over a chain-shaped federation where every
/// server may view everything (full-visibility policy exercises the worst
/// case of candidate propagation: every server stays a candidate).
ChainWorkload MakeChain(std::size_t joins, std::size_t servers) {
  ChainWorkload out{workload::Federation{}, {}, plan::QueryPlan{}};
  catalog::Catalog& cat = out.fed.catalog;
  for (std::size_t s = 0; s < servers; ++s) {
    UnwrapStatus(cat.AddServer(Numbered("S", s)).status(), "server");
  }
  const std::size_t relations = joins + 1;
  for (std::size_t r = 0; r < relations; ++r) {
    UnwrapStatus(
        cat.AddRelation(Numbered("R", r),
                        static_cast<catalog::ServerId>(r % servers),
                        {{Numbered("K", r), catalog::ValueType::kInt64},
                         {Numbered("V", r), catalog::ValueType::kInt64}},
                        {Numbered("K", r)})
            .status(),
        "relation");
  }
  for (std::size_t r = 0; r + 1 < relations; ++r) {
    UnwrapStatus(cat.AddJoinEdge(Numbered("V", r), Numbered("K", r + 1)),
                 "edge");
  }

  // Full-visibility policy: every server granted every prefix path.
  for (catalog::ServerId s = 0; s < cat.server_count(); ++s) {
    IdSet attrs;
    std::vector<authz::JoinAtom> atoms;
    for (std::size_t r = 0; r < relations; ++r) {
      attrs.UnionWith(cat.relation(static_cast<catalog::RelationId>(r)).attribute_set);
      if (r > 0) {
        atoms.push_back(authz::JoinAtom::Make(
            cat.FindAttribute(Numbered("V", r - 1)).value(),
            cat.FindAttribute(Numbered("K", r)).value()));
      }
      // Grant every contiguous prefix (the profiles the chain plan produces),
      // and every suffix-of-prefix attribute subset is implied by ⊆.
      UnwrapStatus(
          [&] {
            authz::Authorization auth;
            auth.attributes = attrs;
            auth.path = authz::JoinPath::FromAtoms(atoms);
            auth.server = s;
            Status status = out.auths.Add(cat, std::move(auth));
            if (status.code() == StatusCode::kAlreadyExists) return Status::Ok();
            return status;
          }(),
          "auth");
      // Single-relation grants for slave views.
      authz::Authorization single;
      single.attributes = cat.relation(static_cast<catalog::RelationId>(r)).attribute_set;
      single.server = s;
      const Status status = out.auths.Add(cat, std::move(single));
      if (!status.ok() && status.code() != StatusCode::kAlreadyExists) {
        UnwrapStatus(status, "single auth");
      }
    }
  }

  // SELECT K0, V_last FROM R0 JOIN ... (chain).
  plan::QuerySpec spec;
  spec.first_relation = 0;
  for (std::size_t r = 1; r < relations; ++r) {
    plan::JoinStep step;
    step.relation = static_cast<catalog::RelationId>(r);
    step.atoms.push_back(algebra::EquiJoinAtom{
        cat.FindAttribute(Numbered("V", r - 1)).value(),
        cat.FindAttribute(Numbered("K", r)).value()});
    spec.joins.push_back(std::move(step));
  }
  spec.select_list = {cat.FindAttribute("K0").value(),
                      cat.FindAttribute(Numbered("V", relations - 1)).value()};
  out.plan = Unwrap(plan::PlanBuilder(cat).Build(spec), "chain plan");
  return out;
}

void PrintScaleTable() {
  PrintHeader("E5 / §5 two-traversal algorithm",
              "planning work (CanView probes) vs query size under a "
              "full-visibility policy (worst-case candidate sets)");
  Artifact artifact("planning_scale", "E5 / §5 two-traversal algorithm",
                    "CanView probes vs query size under full visibility");
  std::printf("%-8s %-8s %-10s %-14s %-12s\n", "joins", "nodes", "servers",
              "canview", "feasible");
  for (const std::size_t joins : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const ChainWorkload w = MakeChain(joins, 8);
    planner::SafePlanner planner(w.fed.catalog, w.auths);
    const auto report = Unwrap(planner.Analyze(w.plan), "analyze");
    std::printf("%-8zu %-8d %-10zu %-14zu %s\n", joins, w.plan.node_count(),
                w.fed.catalog.server_count(), report.can_view_calls,
                report.feasible ? "yes" : "no");
    artifact.Row()
        .Value("joins", joins)
        .Value("nodes", w.plan.node_count())
        .Value("servers", w.fed.catalog.server_count())
        .Value("canview_calls", report.can_view_calls)
        .Value("feasible", report.feasible);
  }
  artifact.Write();
  std::printf("\n");
}

void BM_PlanChainJoins(benchmark::State& state) {
  const ChainWorkload w = MakeChain(static_cast<std::size_t>(state.range(0)), 8);
  planner::SafePlanner planner(w.fed.catalog, w.auths);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Analyze(w.plan));
  }
  state.counters["nodes"] = w.plan.node_count();
}
BENCHMARK(BM_PlanChainJoins)->Arg(2)->Arg(8)->Arg(32)->Arg(128)->Arg(256);

void BM_PlanVsServerCount(benchmark::State& state) {
  const ChainWorkload w = MakeChain(16, static_cast<std::size_t>(state.range(0)));
  planner::SafePlanner planner(w.fed.catalog, w.auths);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Analyze(w.plan));
  }
}
BENCHMARK(BM_PlanVsServerCount)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_PlanVsPolicySize(benchmark::State& state) {
  // Random-policy planning over a generated federation; policy size sweeps.
  Rng rng(77);
  workload::FederationConfig fed_config;
  fed_config.servers = 6;
  fed_config.relations = 10;
  const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
  workload::AuthzConfig authz_config;
  authz_config.base_grant_prob = 0.8;
  authz_config.path_grants_per_server = static_cast<std::size_t>(state.range(0));
  const authz::AuthorizationSet auths =
      workload::GenerateAuthorizations(fed.catalog, authz_config, rng);
  workload::QueryConfig query_config;
  query_config.relations = 5;
  const auto spec = Unwrap(workload::GenerateQuery(fed.catalog, query_config, rng),
                           "query");
  const auto plan = Unwrap(plan::PlanBuilder(fed.catalog).Build(spec), "plan");
  planner::SafePlanner planner(fed.catalog, auths);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Analyze(plan));
  }
  state.counters["rules"] = static_cast<double>(auths.size());
}
BENCHMARK(BM_PlanVsPolicySize)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace cisqp::bench

int main(int argc, char** argv) {
  cisqp::bench::PrintScaleTable();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
