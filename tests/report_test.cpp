// Tests for the reporting helpers (DOT / Markdown rendering).
#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "obs/audit.hpp"
#include "planner/report.hpp"
#include "planner/safe_planner.hpp"
#include "planner/verifier.hpp"
#include "test_util.hpp"

namespace cisqp::planner {
namespace {

using cisqp::testing::MedicalFixture;

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    plan_ = fix_.PaperPlan();
    SafePlanner planner(fix_.cat, fix_.auths);
    auto sp = planner.Plan(plan_);
    ASSERT_OK(sp.status());
    assignment_ = sp->assignment;
  }

  MedicalFixture fix_;
  plan::QueryPlan plan_;
  Assignment assignment_;
};

TEST_F(ReportTest, DotContainsEveryNodeAndShipEdges) {
  ASSERT_OK_AND_ASSIGN(std::string dot, ToDot(fix_.cat, plan_, assignment_));
  EXPECT_NE(dot.find("digraph cisqp_plan"), std::string::npos);
  for (int id = 0; id < plan_.node_count(); ++id) {
    EXPECT_NE(dot.find(Numbered("n", id) + " [label="), std::string::npos)
        << "missing node n" << id;
  }
  // Fig. 7: n4 (S_I) ships into n2 (S_N) and n2 (S_N) ships into n1 (S_H):
  // at least two dashed edges.
  std::size_t ships = 0;
  for (std::size_t pos = dot.find("style=dashed"); pos != std::string::npos;
       pos = dot.find("style=dashed", pos + 1)) {
    ++ships;
  }
  EXPECT_EQ(ships, 2u);
  // Legend lists all four servers.
  EXPECT_NE(dot.find("legend_3"), std::string::npos);
}

TEST_F(ReportTest, DotProfilesOptional) {
  DotOptions options;
  options.show_profiles = true;
  options.graph_name = "custom";
  ASSERT_OK_AND_ASSIGN(std::string dot,
                       ToDot(fix_.cat, plan_, assignment_, options));
  EXPECT_NE(dot.find("digraph custom"), std::string::npos);
  EXPECT_NE(dot.find("Holder"), std::string::npos);
}

TEST_F(ReportTest, DotRejectsInvalidAssignments) {
  EXPECT_FALSE(ToDot(fix_.cat, plan_, Assignment(plan_.node_count())).ok());
}

TEST_F(ReportTest, MarkdownTableListsReleases) {
  ASSERT_OK_AND_ASSIGN(std::string md,
                       ReleasesToMarkdown(fix_.cat, plan_, assignment_));
  EXPECT_NE(md.find("| node | from | to |"), std::string::npos);
  EXPECT_NE(md.find("| n2 | S_I | S_N |"), std::string::npos);
  EXPECT_NE(md.find("semi-join step 4"), std::string::npos);
  // Three releases → header + separator + 3 rows.
  std::size_t rows = 0;
  for (std::size_t pos = md.find('\n'); pos != std::string::npos;
       pos = md.find('\n', pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 5u);
}

TEST_F(ReportTest, MarkdownReleasesAgreeWithAuditLog) {
  // The releases the Markdown report renders and the decisions the verifier
  // audits are the same facts: one verifier entry per enumerated release,
  // all allowed, and every physical release row has a matching entry.
  obs::AuthzAuditLog& log = obs::AuthzAuditLog::Get();
  log.Enable();
  ASSERT_OK(VerifyAssignment(fix_.cat, fix_.auths, plan_, assignment_));
  log.Disable();

  ASSERT_OK_AND_ASSIGN(std::vector<Release> releases,
                       EnumerateReleases(fix_.cat, plan_, assignment_));
  EXPECT_EQ(log.entries().size(), releases.size());
  EXPECT_EQ(log.denied_count(), 0u);
  for (const obs::AuditEntry& e : log.entries()) {
    EXPECT_TRUE(e.allowed);
    EXPECT_EQ(e.site, obs::AuditSite::kVerifier);
  }
  ASSERT_OK_AND_ASSIGN(std::string md,
                       ReleasesToMarkdown(fix_.cat, plan_, assignment_));
  for (const Release& r : releases) {
    // The report names the release's node and recipient...
    EXPECT_NE(md.find(Numbered("n", r.node_id)), std::string::npos);
    EXPECT_NE(md.find(fix_.cat.server(r.to).name), std::string::npos);
    // ...and the audit log holds the matching allow decision.
    bool found = false;
    for (const obs::AuditEntry& e : log.entries()) {
      if (e.node_id == r.node_id &&
          e.server == fix_.cat.server(r.to).name && e.allowed) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << r.ToString(fix_.cat);
  }
  log.Clear();
}

TEST_F(ReportTest, MarkdownIncludesRequestorRelease) {
  VerifyOptions options;
  options.requestor = cisqp::testing::Server(fix_.cat, "S_D");
  ASSERT_OK_AND_ASSIGN(
      std::string md,
      ReleasesToMarkdown(fix_.cat, plan_, assignment_, options));
  EXPECT_NE(md.find("requestor"), std::string::npos);
  EXPECT_NE(md.find("S_D"), std::string::npos);
}

}  // namespace
}  // namespace cisqp::planner
