// Reject parity across every verification path (DESIGN.md §12): one table
// of malformed requests goes through BatchVerifier::verify_one, the
// coalesced path, the sharded service and the resilient layer's degraded
// mode, and must come back with the same typed (status, reason) on each,
// exactly one fault.reject.<code> per rejected request, and — from the
// degraded path — no auth.batch.* accounting. The facade's own rejects
// (unknown id, unusable capture) are checked the same way via try_verify.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "auth/batch_verifier.h"
#include "auth/gaussian_matrix.h"
#include "auth/resilience/resilient_verifier.h"
#include "auth/sharded_verifier.h"
#include "common/obs.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/mandipass.h"

namespace mandipass::auth {
namespace {

using common::ErrorCode;

constexpr std::size_t kDim = 32;
constexpr std::uint64_t kSeed = 4242;
const std::string kUser = "alice";

struct Row {
  const char* name;
  VerifyRequest request;
  BatchStatus status;
  ErrorCode reason;  ///< checked only for rejected rows
};

bool rejected(const Row& row) {
  return row.status == BatchStatus::Invalid || row.status == BatchStatus::Unknown;
}

std::vector<float> enrolled_print() {
  Rng rng(7);
  std::vector<float> v(kDim);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform());
  }
  return v;
}

StoredTemplate enrolled_template() {
  const auto print = enrolled_print();
  const GaussianMatrix g(kSeed, kDim);
  StoredTemplate tmpl;
  tmpl.data = g.transform(print);
  tmpl.matrix_seed = kSeed;
  tmpl.key_version = 1;
  return tmpl;
}

std::vector<Row> table() {
  auto nan_probe = enrolled_print();
  nan_probe[3] = std::numeric_limits<float>::quiet_NaN();
  auto short_probe = enrolled_print();
  short_probe.pop_back();
  return {
      {"empty probe", {kUser, {}}, BatchStatus::Invalid, ErrorCode::InvalidInput},
      {"NaN probe", {kUser, nan_probe}, BatchStatus::Invalid, ErrorCode::NonFiniteSample},
      {"wrong-dim probe", {kUser, short_probe}, BatchStatus::Invalid,
       ErrorCode::DimensionMismatch},
      {"unknown user", {"nobody", enrolled_print()}, BatchStatus::Unknown,
       ErrorCode::UnknownUser},
      {"accepted control", {kUser, enrolled_print()}, BatchStatus::Accepted,
       ErrorCode::UnknownUser},
  };
}

std::vector<VerifyRequest> requests_of(const std::vector<Row>& rows) {
  std::vector<VerifyRequest> out;
  for (const Row& row : rows) {
    out.push_back(row.request);
  }
  return out;
}

constexpr int kCodeCount = static_cast<int>(ErrorCode::Overloaded) + 1;

/// Every fault.reject.<code> counter, indexed by code.
std::vector<std::uint64_t> reject_counts() {
  std::vector<std::uint64_t> out;
  for (int c = 0; c < kCodeCount; ++c) {
    out.push_back(
        common::obs::counter(common::reject_counter_name(static_cast<ErrorCode>(c))).value());
  }
  return out;
}

/// The fault.reject.* increments the rows' rejects must cause: one each.
std::vector<std::uint64_t> expected_rejects(const std::vector<Row>& rows) {
  std::vector<std::uint64_t> out(kCodeCount, 0);
  for (const Row& row : rows) {
    if (rejected(row)) {
      ++out[static_cast<int>(row.reason)];
    }
  }
  return out;
}

std::vector<std::uint64_t> delta(const std::vector<std::uint64_t>& after,
                                 const std::vector<std::uint64_t>& before) {
  std::vector<std::uint64_t> out(after.size());
  for (std::size_t c = 0; c < after.size(); ++c) {
    out[c] = after[c] - before[c];
  }
  return out;
}

/// Every auth.batch.* counter by name.
std::map<std::string, std::uint64_t> batch_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : common::obs::Registry::instance().snapshot().counters) {
    if (c.name.starts_with("auth.batch.")) {
      out[c.name] = c.value;
    }
  }
  return out;
}

std::uint64_t counter_value(const char* name) { return common::obs::counter(name).value(); }

void expect_row(const Row& row, const BatchDecision& d, const char* path) {
  EXPECT_EQ(d.status, row.status) << path << ": " << row.name;
  if (rejected(row)) {
    EXPECT_EQ(d.reason, row.reason) << path << ": " << row.name;
    EXPECT_FALSE(d.known) << path << ": " << row.name;
  } else {
    EXPECT_TRUE(d.known) << path << ": " << row.name;
  }
}

TEST(RejectParity, VerifyOneTypesEachRowAndCountsItOnce) {
  BatchVerifier engine;
  engine.enroll(kUser, enrolled_template());
  const auto rows = table();
  for (const Row& row : rows) {
    const auto before = reject_counts();
    const BatchDecision d = engine.verify_one(row.request.user, row.request.raw_probe);
    expect_row(row, d, "verify_one");
    EXPECT_EQ(delta(reject_counts(), before), expected_rejects({row})) << row.name;
  }
}

TEST(RejectParity, CoalescedPathMatchesVerifyOne) {
  BatchVerifier engine;
  engine.enroll(kUser, enrolled_template());
  const auto rows = table();
  const auto requests = requests_of(rows);
  std::vector<std::size_t> indices(rows.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  std::vector<BatchDecision> decisions(rows.size());
  const auto before = reject_counts();
  const std::uint64_t invalid_before = counter_value("auth.batch.verify_invalid");
  const std::uint64_t unknown_before = counter_value("auth.batch.verify_unknown");
  engine.verify_coalesced(requests, indices, decisions);
  EXPECT_EQ(delta(reject_counts(), before), expected_rejects(rows));
  // The engine keeps its own accounting on top of the shared gates.
  EXPECT_EQ(counter_value("auth.batch.verify_invalid") - invalid_before, 3u);
  EXPECT_EQ(counter_value("auth.batch.verify_unknown") - unknown_before, 1u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expect_row(rows[i], decisions[i], "verify_coalesced");
    const BatchDecision one = engine.verify_one(requests[i].user, requests[i].raw_probe);
    EXPECT_EQ(decisions[i].decision.distance, one.decision.distance) << rows[i].name;
  }
}

TEST(RejectParity, ShardedServiceMatchesVerifyOne) {
  ShardedVerifier engines(4);
  engines.enroll(kUser, enrolled_template());
  const auto rows = table();
  const auto before = reject_counts();
  const BatchResult got = engines.verify_batch(requests_of(rows));
  EXPECT_EQ(delta(reject_counts(), before), expected_rejects(rows));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expect_row(rows[i], got.decisions[i], "sharded verify_batch");
  }
  EXPECT_EQ(got.stats.invalid, 3u);
  EXPECT_EQ(got.stats.unknown, 1u);
}

TEST(RejectParity, DegradedModeMatchesAndSkipsBatchAccounting) {
  resilience::ResilienceConfig config;
  config.breaker.failure_threshold = 1;
  resilience::ResilientVerifier service(1, config);
  service.enroll(kUser, enrolled_template());
  const auto rows = table();
  // Warm the cache through one healthy pass, then force the breaker open.
  const std::vector<VerifyRequest> warm{rows.back().request};
  ASSERT_EQ(service.verify_batch(warm).decisions[0].status, BatchStatus::Accepted);
  service.breaker(0).record_failure();
  ASSERT_TRUE(service.breaker(0).engaged());

  const auto before = reject_counts();
  const auto batch_before = batch_counters();
  const BatchResult got = service.verify_batch(requests_of(rows));
  EXPECT_EQ(delta(reject_counts(), before), expected_rejects(rows));
  EXPECT_EQ(batch_counters(), batch_before);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expect_row(rows[i], got.decisions[i], "degraded");
  }
  EXPECT_TRUE(got.decisions.back().degraded);
  EXPECT_EQ(got.stats.degraded, 1u);
}

// The facade reaches the same gates through try_verify; its own rows are
// the two a caller can provoke with a recording: an unenrolled id and a
// capture with no usable vibration. Each is one typed reject, counted
// once, with no auth.batch.* accounting.
TEST(RejectParity, FacadeRejectsAreTypedAndCountedOnce) {
  core::ExtractorConfig cfg;
  cfg.embedding_dim = kDim;
  cfg.channels = {4, 6, 8};
  core::MandiPass facade(std::make_shared<core::BiometricExtractor>(cfg));
  Rng rng(11);
  vibration::PopulationGenerator pop(2024);
  vibration::SessionRecorder recorder(pop.sample(), rng);
  const auto enrolment = recorder.record_many(vibration::SessionConfig{}, 3);
  ASSERT_TRUE(facade.try_enroll(kUser, enrolment).ok());
  imu::RawRecording silent;
  silent.sample_rate_hz = 350.0;
  for (auto& axis : silent.axes) {
    axis.assign(300, 0.0);
  }

  struct FacadeRow {
    const char* name;
    std::string user;
    const imu::RawRecording* recording;
    ErrorCode reason;
  };
  const FacadeRow rows[] = {
      {"unknown user", "nobody", &enrolment[0], ErrorCode::UnknownUser},
      {"capture reject", kUser, &silent, ErrorCode::OnsetNotFound},
  };
  for (const FacadeRow& row : rows) {
    const auto before = reject_counts();
    const auto batch_before = batch_counters();
    const auto d = facade.try_verify(row.user, *row.recording);
    ASSERT_FALSE(d.ok()) << row.name;
    EXPECT_EQ(d.code(), row.reason) << row.name;
    std::vector<std::uint64_t> want(kCodeCount, 0);
    want[static_cast<int>(row.reason)] = 1;
    EXPECT_EQ(delta(reject_counts(), before), want) << row.name;
    EXPECT_EQ(batch_counters(), batch_before) << row.name;
  }
}

}  // namespace
}  // namespace mandipass::auth
