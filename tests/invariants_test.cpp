// Randomized algebraic-invariant sweeps (TEST_P) for the value types the
// authorization model rests on: IdSet and JoinPath set algebra, profile
// composition laws, and the monotonicity properties CanView relies on.
#include <gtest/gtest.h>

#include "authz/profile.hpp"
#include "common/idset.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "test_util.hpp"

namespace cisqp {
namespace {

class IdSetLaws : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  IdSet RandomSet(Rng& rng, std::size_t universe = 32) {
    IdSet out;
    const std::size_t n = rng.UniformIndex(universe);
    for (std::size_t i = 0; i < n; ++i) {
      out.Insert(static_cast<IdSet::value_type>(rng.UniformIndex(universe)));
    }
    return out;
  }
};

TEST_P(IdSetLaws, SetAlgebra) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const IdSet a = RandomSet(rng);
    const IdSet b = RandomSet(rng);
    const IdSet c = RandomSet(rng);

    // Union: commutative, associative, idempotent, identity.
    EXPECT_EQ(IdSet::Union(a, b), IdSet::Union(b, a));
    EXPECT_EQ(IdSet::Union(IdSet::Union(a, b), c),
              IdSet::Union(a, IdSet::Union(b, c)));
    EXPECT_EQ(IdSet::Union(a, a), a);
    EXPECT_EQ(IdSet::Union(a, IdSet{}), a);

    // Intersection distributes over union.
    EXPECT_EQ(IdSet::Intersection(a, IdSet::Union(b, c)),
              IdSet::Union(IdSet::Intersection(a, b), IdSet::Intersection(a, c)));

    // Difference laws.
    EXPECT_EQ(IdSet::Union(IdSet::Difference(a, b), IdSet::Intersection(a, b)), a);
    EXPECT_FALSE(IdSet::Difference(a, b).Intersects(b));

    // Subset is a partial order consistent with union.
    EXPECT_TRUE(a.IsSubsetOf(IdSet::Union(a, b)));
    EXPECT_TRUE(IdSet::Intersection(a, b).IsSubsetOf(a));
    if (a.IsSubsetOf(b) && b.IsSubsetOf(a)) {
      EXPECT_EQ(a, b);
    }

    // Intersects ⇔ non-empty intersection.
    EXPECT_EQ(a.Intersects(b), !IdSet::Intersection(a, b).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdSetLaws,
                         ::testing::Values(1u, 2u, 3u, 7u, 1234u));

class JoinPathLaws : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    // A universe of attributes spread over several relations so atoms are
    // always cross-relation.
    const auto s = cat_.AddServer("s").value();
    for (int r = 0; r < 6; ++r) {
      CISQP_CHECK(cat_.AddRelation(Numbered("R", r), s,
                                   {{Numbered("A", r) + "0",
                                     catalog::ValueType::kInt64},
                                    {Numbered("A", r) + "1",
                                     catalog::ValueType::kInt64}},
                                   {})
                      .ok());
    }
  }

  authz::JoinAtom RandomAtom(Rng& rng) {
    while (true) {
      const auto a = static_cast<catalog::AttributeId>(
          rng.UniformIndex(cat_.attribute_count()));
      const auto b = static_cast<catalog::AttributeId>(
          rng.UniformIndex(cat_.attribute_count()));
      if (a != b && cat_.attribute(a).relation != cat_.attribute(b).relation) {
        return authz::JoinAtom::Make(a, b);
      }
    }
  }

  authz::JoinPath RandomPath(Rng& rng) {
    std::vector<authz::JoinAtom> atoms;
    const std::size_t n = rng.UniformIndex(5);
    for (std::size_t i = 0; i < n; ++i) atoms.push_back(RandomAtom(rng));
    return authz::JoinPath::FromAtoms(std::move(atoms));
  }

  catalog::Catalog cat_;
};

TEST_P(JoinPathLaws, PathAlgebra) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const authz::JoinPath a = RandomPath(rng);
    const authz::JoinPath b = RandomPath(rng);
    const authz::JoinPath c = RandomPath(rng);

    EXPECT_EQ(authz::JoinPath::Union(a, b), authz::JoinPath::Union(b, a));
    EXPECT_EQ(authz::JoinPath::Union(authz::JoinPath::Union(a, b), c),
              authz::JoinPath::Union(a, b, c));
    EXPECT_EQ(authz::JoinPath::Union(a, a), a);
    EXPECT_TRUE(a.IsSubsetOf(authz::JoinPath::Union(a, b)));

    // Attributes/Relations are monotone under union.
    EXPECT_TRUE(a.Attributes().IsSubsetOf(
        authz::JoinPath::Union(a, b).Attributes()));
    EXPECT_TRUE(a.Relations(cat_).IsSubsetOf(
        authz::JoinPath::Union(a, b).Relations(cat_)));

    // Canonical: rebuilding from the atom list is the identity.
    EXPECT_EQ(authz::JoinPath::FromAtoms(
                  std::vector<authz::JoinAtom>(a.atoms().begin(), a.atoms().end())),
              a);
  }
}

TEST_P(JoinPathLaws, ProfileCompositionLaws) {
  Rng rng(GetParam() + 1000);
  for (int round = 0; round < 100; ++round) {
    // Random base profiles over distinct relations.
    const auto rel_l = static_cast<catalog::RelationId>(rng.UniformIndex(3));
    const auto rel_r = static_cast<catalog::RelationId>(3 + rng.UniformIndex(3));
    authz::Profile l = authz::Profile::OfBaseRelation(cat_, rel_l);
    authz::Profile r = authz::Profile::OfBaseRelation(cat_, rel_r);
    l.join = RandomPath(rng);
    r.join = RandomPath(rng);

    const authz::JoinPath j{authz::JoinAtom::Make(
        cat_.relation(rel_l).attributes[0], cat_.relation(rel_r).attributes[0])};
    const authz::Profile joined = authz::Profile::Join(l, r, j);

    // Fig. 4 join rule: componentwise monotone.
    EXPECT_TRUE(l.pi.IsSubsetOf(joined.pi));
    EXPECT_TRUE(r.pi.IsSubsetOf(joined.pi));
    EXPECT_TRUE(l.join.IsSubsetOf(joined.join));
    EXPECT_TRUE(j.IsSubsetOf(joined.join));

    // Join is symmetric up to identical profiles.
    EXPECT_EQ(joined, authz::Profile::Join(r, l, j));

    // σ then π commute on disjoint attribute choices (Fig. 4 rows 1-2).
    const IdSet sigma_attrs{joined.pi.ids().front()};
    const IdSet pi_attrs = joined.pi;
    const authz::Profile sp = authz::Profile::Project(
        authz::Profile::Select(joined, sigma_attrs), pi_attrs);
    const authz::Profile ps = authz::Profile::Select(
        authz::Profile::Project(joined, pi_attrs), sigma_attrs);
    EXPECT_EQ(sp, ps);

    // Selecting never shrinks the visible set; projecting to π keeps join.
    EXPECT_TRUE(joined.VisibleAttributes().IsSubsetOf(sp.VisibleAttributes()));
    EXPECT_EQ(sp.join, joined.join);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPathLaws,
                         ::testing::Values(11u, 22u, 33u));

TEST(CanViewMonotonicity, WiderGrantsNeverRevoke) {
  // If CanView(p, s) holds under a policy, it holds after adding any rule.
  cisqp::testing::MedicalFixture fix;
  Rng rng(5);
  authz::AuthorizationSet grown = fix.auths;
  ASSERT_OK(grown.Add(fix.cat, "S_D", {"Patient", "Disease"}, {}));
  for (const authz::Authorization& rule : fix.auths.All()) {
    const authz::Profile probe{rule.attributes, rule.path, {}};
    EXPECT_TRUE(fix.auths.CanView(probe, rule.server));
    EXPECT_TRUE(grown.CanView(probe, rule.server));
  }
}

}  // namespace
}  // namespace cisqp
