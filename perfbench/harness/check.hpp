// Answer checking: every served response is compared with a reference
// computed before the timed phase.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "serve/front_door.hpp"
#include "stats.hpp"
#include "storage/table.hpp"

namespace perfbench {

/// Order-insensitive digest of a table's rows: equal row multisets give
/// equal digests whatever the row order.
std::uint64_t RowMultisetDigest(const cisqp::storage::Table& table);

/// What one SQL text must produce.
struct Expected {
  /// Answered with rows; otherwise refused with `code` and `message`.
  bool answered = false;
  cisqp::StatusCode code = cisqp::StatusCode::kOk;
  std::string message;
  /// The row multiset of exec::ExecuteCentralized for the query.
  std::vector<cisqp::storage::Column> columns;
  std::uint64_t rows = 0;
  std::uint64_t digest = 0;
};

enum class Outcome { kAnswered, kRefused, kFailed };

struct Checked {
  Outcome outcome = Outcome::kFailed;
  /// Set when the response contradicts its reference (a wrong answer or a
  /// wrong verdict), as opposed to a failure status.
  bool wrong = false;
  std::string why;
};

/// References keyed by SQL text.
class ReferenceBook {
 public:
  void Set(const std::string& sql, Expected expected) {
    refs_[sql] = std::move(expected);
  }
  const Expected* Find(const std::string& sql) const {
    const auto it = refs_.find(sql);
    return it == refs_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<std::string, Expected> refs_;
};

/// Classifies one response. Fails closed: a missing reference, rows that
/// differ from the centralized answer, or a refusal or answer the reference
/// door did not give all count as failed and wrong. Any status other than
/// OK or kInfeasible is failed.
Checked CheckResponse(const Expected* expected,
                      const cisqp::Result<cisqp::serve::Response>& response);

/// The references of the policy a door serves at a given policy epoch;
/// nullptr when the epoch is unknown.
using BookAt = std::function<const ReferenceBook*(std::uint64_t epoch)>;

/// Classifies a response served while the door's policy epoch moved from
/// `first` to `last` (read just before and just after Serve). An answer is
/// checked against the references of the epoch it reports, which must lie
/// in that window. A refusal carries no epoch, so it must match the verdict
/// of some epoch in the window.
Checked CheckServed(const BookAt& book_at, const std::string& sql,
                    const cisqp::Result<cisqp::serve::Response>& response,
                    std::uint64_t first, std::uint64_t last);

/// Adds one checked outcome to `counts`.
inline void Tally(const Checked& checked, Counts& counts) {
  ++counts.attempted;
  switch (checked.outcome) {
    case Outcome::kAnswered: ++counts.answered; break;
    case Outcome::kRefused: ++counts.refused; break;
    case Outcome::kFailed: ++counts.failed; break;
  }
}

}  // namespace perfbench
