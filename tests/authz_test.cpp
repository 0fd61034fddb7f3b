// Tests for authorizations (Def. 3.1) and the authorized-view test
// (Def. 3.3), exercising every rule of the paper's Fig. 3 and the denial
// example of §3.2.
#include <gtest/gtest.h>

#include "authz/authorization.hpp"
#include "test_util.hpp"

namespace cisqp::authz {
namespace {

using cisqp::testing::Attr;
using cisqp::testing::Attrs;
using cisqp::testing::MedicalFixture;
using cisqp::testing::Path;
using cisqp::testing::Relation;
using cisqp::testing::Server;

class AuthzTest : public ::testing::Test {
 protected:
  MedicalFixture fix_;

  Profile MakeProfile(const std::vector<std::string>& pi,
                      const std::vector<std::pair<std::string, std::string>>& join,
                      const std::vector<std::string>& sigma) const {
    return Profile{Attrs(fix_.cat, pi), Path(fix_.cat, join), Attrs(fix_.cat, sigma)};
  }
};

TEST_F(AuthzTest, Fig3InstallsFifteenRules) {
  EXPECT_EQ(fix_.auths.size(), 15u);
  EXPECT_EQ(fix_.auths.ForServer(Server(fix_.cat, "S_I")).size(), 3u);
  EXPECT_EQ(fix_.auths.ForServer(Server(fix_.cat, "S_H")).size(), 4u);
  EXPECT_EQ(fix_.auths.ForServer(Server(fix_.cat, "S_N")).size(), 7u);
  EXPECT_EQ(fix_.auths.ForServer(Server(fix_.cat, "S_D")).size(), 1u);
  EXPECT_EQ(fix_.auths.All().size(), 15u);
}

TEST_F(AuthzTest, EachServerSeesItsOwnRelation) {
  EXPECT_TRUE(fix_.auths.CanView(
      Profile::OfBaseRelation(fix_.cat, Relation(fix_.cat, "Insurance")),
      Server(fix_.cat, "S_I")));
  EXPECT_TRUE(fix_.auths.CanView(
      Profile::OfBaseRelation(fix_.cat, Relation(fix_.cat, "Hospital")),
      Server(fix_.cat, "S_H")));
  EXPECT_TRUE(fix_.auths.CanView(
      Profile::OfBaseRelation(fix_.cat, Relation(fix_.cat, "Nat_registry")),
      Server(fix_.cat, "S_N")));
  EXPECT_TRUE(fix_.auths.CanView(
      Profile::OfBaseRelation(fix_.cat, Relation(fix_.cat, "Disease_list")),
      Server(fix_.cat, "S_D")));
}

TEST_F(AuthzTest, SubsetOfAttributesIsAuthorized) {
  // Def. 3.3 condition 1 uses ⊆: viewing fewer attributes is allowed.
  EXPECT_TRUE(fix_.auths.CanView(MakeProfile({"Plan"}, {}, {}),
                                 Server(fix_.cat, "S_I")));
  EXPECT_TRUE(fix_.auths.CanView(MakeProfile({"Holder"}, {}, {"Plan"}),
                                 Server(fix_.cat, "S_I")));
}

TEST_F(AuthzTest, JoinPathMustMatchExactly) {
  // §3.2 example: S_D may view Disease_list but NOT the join with Hospital —
  // the result carries the information of which illnesses occur in Hospital.
  const Profile denied =
      MakeProfile({"Illness", "Treatment"}, {{"Illness", "Disease"}}, {});
  EXPECT_FALSE(fix_.auths.CanView(denied, Server(fix_.cat, "S_D")));
  // The same attributes with an empty path are fine (authorization 15).
  EXPECT_TRUE(fix_.auths.CanView(MakeProfile({"Illness", "Treatment"}, {}, {}),
                                 Server(fix_.cat, "S_D")));
}

TEST_F(AuthzTest, ShorterPathIsNotImplied) {
  // Authorization 2 gives S_I the path {(Holder, Patient)}; the same
  // attributes with an empty path release *more* tuples and are not implied.
  EXPECT_TRUE(fix_.auths.CanView(
      MakeProfile({"Holder", "Plan", "Patient", "Physician"},
                  {{"Holder", "Patient"}}, {}),
      Server(fix_.cat, "S_I")));
  EXPECT_FALSE(fix_.auths.CanView(
      MakeProfile({"Patient", "Physician"}, {}, {}), Server(fix_.cat, "S_I")));
}

TEST_F(AuthzTest, LongerPathIsNotImpliedEither) {
  // Extending the authorized path adds association information (§3.1 note).
  EXPECT_FALSE(fix_.auths.CanView(
      MakeProfile({"Holder", "Plan"},
                  {{"Holder", "Patient"}, {"Patient", "Citizen"}}, {}),
      Server(fix_.cat, "S_I")));
}

TEST_F(AuthzTest, SigmaCountsAsVisible) {
  // Def. 3.3 condition 1 covers Rπ ∪ Rσ: selecting on an attribute you may
  // not view is a violation even if it is projected away.
  const Profile sigma_leak = MakeProfile({"Illness", "Treatment"}, {}, {"Disease"});
  EXPECT_FALSE(fix_.auths.CanView(sigma_leak, Server(fix_.cat, "S_D")));
}

TEST_F(AuthzTest, PathConditionOrderInsensitive) {
  // Authorization 7 of Fig. 3 is written {(Patient, Citizen), (Citizen,
  // Holder)}; the profile arrives with flipped spellings.
  const Profile p = MakeProfile(
      {"Patient", "Holder", "Plan", "Citizen", "HealthAid"},
      {{"Citizen", "Patient"}, {"Holder", "Citizen"}}, {});
  EXPECT_TRUE(fix_.auths.CanView(p, Server(fix_.cat, "S_H")));
}

TEST_F(AuthzTest, Fig3SpecificDecisions) {
  // Authorization 3: S_I sees treatments of its holders without the illness.
  EXPECT_TRUE(fix_.auths.CanView(
      MakeProfile({"Holder", "Plan", "Treatment"},
                  {{"Holder", "Patient"}, {"Disease", "Illness"}}, {}),
      Server(fix_.cat, "S_I")));
  // ...but not the Disease attribute on that path.
  EXPECT_FALSE(fix_.auths.CanView(
      MakeProfile({"Holder", "Disease"},
                  {{"Holder", "Patient"}, {"Disease", "Illness"}}, {}),
      Server(fix_.cat, "S_I")));
  // Authorization 9: S_N may view all of Insurance outright.
  EXPECT_TRUE(fix_.auths.CanView(MakeProfile({"Holder", "Plan"}, {}, {}),
                                 Server(fix_.cat, "S_N")));
  // S_I may NOT view Nat_registry outright.
  EXPECT_FALSE(fix_.auths.CanView(MakeProfile({"Citizen", "HealthAid"}, {}, {}),
                                  Server(fix_.cat, "S_I")));
}

TEST_F(AuthzTest, UnknownServerSeesNothing) {
  EXPECT_FALSE(fix_.auths.CanView(MakeProfile({"Plan"}, {}, {}), 99));
}

TEST_F(AuthzTest, AddValidatesDef31) {
  AuthorizationSet auths;
  // Attributes from two relations need a join path (Def. 3.1(2)).
  EXPECT_EQ(auths.Add(fix_.cat, "S_I", {"Holder", "Patient"}, {}).code(),
            StatusCode::kInvalidArgument);
  // Path must include the relation owning every granted attribute.
  EXPECT_EQ(auths.Add(fix_.cat, "S_I", {"Holder", "Treatment"},
                      {{"Holder", "Patient"}})
                .code(),
            StatusCode::kInvalidArgument);
  // Path atoms may not stay within one relation.
  EXPECT_EQ(auths.Add(fix_.cat, "S_I", {"Holder"}, {{"Holder", "Plan"}}).code(),
            StatusCode::kInvalidArgument);
  // Empty attribute set rejected.
  EXPECT_EQ(auths.Add(fix_.cat, "S_I", {}, {}).code(),
            StatusCode::kInvalidArgument);
  // Unknown names.
  EXPECT_EQ(auths.Add(fix_.cat, "S_X", {"Holder"}, {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(auths.Add(fix_.cat, "S_I", {"Nope"}, {}).code(), StatusCode::kNotFound);
}

TEST_F(AuthzTest, DuplicateRuleRejected) {
  AuthorizationSet auths;
  ASSERT_OK(auths.Add(fix_.cat, "S_I", {"Holder", "Plan"}, {}));
  EXPECT_EQ(auths.Add(fix_.cat, "S_I", {"Plan", "Holder"}, {}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(auths.size(), 1u);
}

TEST_F(AuthzTest, ContainsFindsExactRules) {
  const Authorization probe{Attrs(fix_.cat, {"Holder", "Plan"}), {},
                            Server(fix_.cat, "S_I")};
  EXPECT_TRUE(fix_.auths.Contains(probe));
  const Authorization missing{Attrs(fix_.cat, {"Holder"}), {},
                              Server(fix_.cat, "S_I")};
  EXPECT_FALSE(fix_.auths.Contains(missing));
}

TEST_F(AuthzTest, MinimizeDropsSubsumedRules) {
  AuthorizationSet auths;
  ASSERT_OK(auths.Add(fix_.cat, "S_I", {"Holder"}, {}));
  ASSERT_OK(auths.Add(fix_.cat, "S_I", {"Holder", "Plan"}, {}));
  ASSERT_OK(auths.Add(fix_.cat, "S_H", {"Patient"}, {}));
  EXPECT_EQ(auths.Minimize(), 1u);
  EXPECT_EQ(auths.size(), 2u);
  // The surviving superset still authorizes the subset view.
  EXPECT_TRUE(auths.CanView(MakeProfile({"Holder"}, {}, {}), Server(fix_.cat, "S_I")));
}

TEST_F(AuthzTest, ReplaceServerSwapsOnlyThatServersRules) {
  const catalog::ServerId s_i = Server(fix_.cat, "S_I");
  AuthorizationSet auths = fix_.auths;
  AuthorizationSet slice;
  ASSERT_OK(slice.Add(fix_.cat, "S_I", {"Holder"}, {}));
  auths.ReplaceServer(s_i, std::move(slice));
  EXPECT_EQ(auths.size(), 13u);  // Fig. 3's 3 S_I rules became 1
  EXPECT_EQ(auths.ForServer(s_i).size(), 1u);
  EXPECT_FALSE(auths.CanView(MakeProfile({"Plan"}, {}, {}), s_i));
  EXPECT_TRUE(auths.CanView(MakeProfile({"Holder"}, {}, {}), s_i));
  EXPECT_EQ(auths.ForServer(Server(fix_.cat, "S_N")).size(), 7u);
  // An empty replacement clears the server.
  auths.ReplaceServer(s_i, AuthorizationSet{});
  EXPECT_EQ(auths.size(), 12u);
  EXPECT_TRUE(auths.ForServer(s_i).empty());
}

TEST_F(AuthzTest, ToStringListsRules) {
  const std::string dump = fix_.auths.ToString(fix_.cat);
  EXPECT_NE(dump.find("S_D"), std::string::npos);
  EXPECT_NE(dump.find("Treatment"), std::string::npos);
  EXPECT_NE(dump.find("->"), std::string::npos);
}

TEST_F(AuthzTest, SingleRelationGrantWithInstanceRestrictionPath) {
  // Instance-based restriction (paper §3.1): attributes of one relation with
  // a non-empty path touching that relation are legal (e.g. authorization 5
  // restricted to Insurance attrs only).
  AuthorizationSet auths;
  ASSERT_OK(auths.Add(fix_.cat, "S_H", {"Patient", "Disease"},
                      {{"Patient", "Holder"}}));
  EXPECT_TRUE(auths.CanView(
      MakeProfile({"Patient", "Disease"}, {{"Patient", "Holder"}}, {}),
      Server(fix_.cat, "S_H")));
}

}  // namespace
}  // namespace cisqp::authz
