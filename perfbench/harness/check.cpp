#include "check.hpp"

namespace perfbench {
namespace {

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t RowMultisetDigest(const cisqp::storage::Table& table) {
  std::uint64_t sum = 0;
  for (const cisqp::storage::Row& row : table.rows()) {
    sum += Mix(static_cast<std::uint64_t>(cisqp::storage::HashRow(row)));
  }
  return sum;
}

Checked CheckResponse(const Expected* expected,
                      const cisqp::Result<cisqp::serve::Response>& response) {
  Checked out;
  if (!response.ok()) {
    const cisqp::Status& status = response.status();
    if (status.code() != cisqp::StatusCode::kInfeasible) {
      out.why = "status " + status.ToString();
      return out;
    }
    if (expected == nullptr || expected->answered ||
        expected->code != status.code() ||
        expected->message != status.message()) {
      out.wrong = true;
      out.why = "refusal differs from the reference door: " + status.ToString();
      return out;
    }
    out.outcome = Outcome::kRefused;
    return out;
  }
  if (expected == nullptr) {
    out.wrong = true;
    out.why = "no reference for the query";
    return out;
  }
  if (!expected->answered) {
    out.wrong = true;
    out.why = "answered a query the reference door refused";
    return out;
  }
  const cisqp::storage::Table& table = response->table;
  if (table.columns() != expected->columns ||
      table.row_count() != expected->rows ||
      RowMultisetDigest(table) != expected->digest) {
    out.wrong = true;
    out.why = "rows differ from the centralized answer";
    return out;
  }
  out.outcome = Outcome::kAnswered;
  return out;
}

Checked CheckServed(const BookAt& book_at, const std::string& sql,
                    const cisqp::Result<cisqp::serve::Response>& response,
                    std::uint64_t first, std::uint64_t last) {
  const auto expected_at = [&](std::uint64_t epoch) -> const Expected* {
    const ReferenceBook* book = book_at(epoch);
    return book == nullptr ? nullptr : book->Find(sql);
  };
  if (response.ok()) {
    const std::uint64_t epoch = response->policy_epoch;
    if (epoch < first || epoch > last) {
      Checked out;
      out.wrong = true;
      out.why = "answered at policy epoch " + std::to_string(epoch) +
                ", outside its serve window";
      return out;
    }
    return CheckResponse(expected_at(epoch), response);
  }
  Checked out = CheckResponse(expected_at(first), response);
  for (std::uint64_t epoch = first + 1; out.wrong && epoch <= last; ++epoch) {
    out = CheckResponse(expected_at(epoch), response);
  }
  return out;
}

}  // namespace perfbench
