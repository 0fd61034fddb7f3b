#include "sql/signature.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace cisqp::sql {
namespace {

/// Lossless literal rendering: a type tag plus an unambiguous payload.
/// Strings are length-prefixed so no payload can fake another literal's
/// rendering; doubles use %.17g (round-trip exact for IEEE doubles).
std::string LiteralToken(const storage::Value& v) {
  if (v.is_null()) return "n";
  if (v.is_int64()) return Numbered("i", v.AsInt64());
  if (v.is_double()) {
    double d = v.AsDouble();
    // Signature equality must track predicate equivalence under SqlEquals
    // (IEEE ==): -0.0 == 0.0, so both must render as one token, and every
    // NaN bit pattern compares unequal to everything the same way, so all
    // NaNs share one canonical spelling (%.17g may print "nan" or "-nan").
    if (std::isnan(d)) return "dnan";
    if (d == 0.0) d = 0.0;  // collapses -0.0
    char buf[40];
    std::snprintf(buf, sizeof(buf), "d%.17g", d);
    return buf;
  }
  const std::string& s = v.AsString();
  std::string token = Numbered("s", s.size());
  token += ':';
  token += s;
  return token;
}

std::string ComparisonToken(const algebra::Comparison& c) {
  std::string token = Numbered("a", c.lhs);
  token += CompareOpSymbol(c.op);
  if (c.rhs_is_attribute()) {
    token += Numbered("a", std::get<catalog::AttributeId>(c.rhs));
  } else {
    token += LiteralToken(std::get<storage::Value>(c.rhs));
  }
  return token;
}

void AppendSorted(std::string& out, std::vector<std::string> tokens) {
  std::sort(tokens.begin(), tokens.end());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i != 0) out += "&";
    out += tokens[i];
  }
}

}  // namespace

std::string CanonicalQuerySignature(const plan::QuerySpec& spec) {
  std::string sig;
  sig.reserve(128);
  // Output schema: DISTINCT flag and the SELECT list in declared order.
  sig += spec.distinct ? "D|S:" : "S:";
  for (std::size_t i = 0; i < spec.select_list.size(); ++i) {
    if (i != 0) sig += ",";
    sig += std::to_string(spec.select_list[i]);
  }
  // FROM sequence, order-sensitive (the plan search's enumeration order —
  // and with it the deterministic tie-break — follows the spec's order).
  sig += Numbered("|F:", spec.first_relation);
  for (const plan::JoinStep& step : spec.joins) {
    sig += Numbered("|J", step.relation);
    sig += ':';
    std::vector<std::string> atoms;
    atoms.reserve(step.atoms.size());
    for (const algebra::EquiJoinAtom& atom : step.atoms) {
      std::string token = Numbered("a", atom.left);
      token += "=a";
      token += std::to_string(atom.right);
      atoms.push_back(std::move(token));
    }
    AppendSorted(sig, std::move(atoms));
  }
  // WHERE conjunction, commutativity canonicalized by sorting the tokens.
  if (!spec.where.IsTrue()) {
    sig += "|W:";
    std::vector<std::string> conjuncts;
    conjuncts.reserve(spec.where.conjuncts().size());
    for (const algebra::Comparison& c : spec.where.conjuncts()) {
      conjuncts.push_back(ComparisonToken(c));
    }
    AppendSorted(sig, std::move(conjuncts));
  }
  return sig;
}

std::uint64_t QuerySignatureHash(const plan::QuerySpec& spec) {
  const std::string sig = CanonicalQuerySignature(spec);
  return static_cast<std::uint64_t>(HashRange(sig.begin(), sig.end()));
}

}  // namespace cisqp::sql
