// End-to-end integration: train a small extractor on a simulated hired
// population, then exercise the full enroll / verify / attack workflows
// of the MandiPass facade on users the extractor never saw.
//
// Scaled down from the benchmark configuration to keep the suite fast;
// the thresholds here are deliberately loose — exact numbers live in the
// bench harnesses.
#include <gtest/gtest.h>

#include <memory>

#include "auth/cosine.h"
#include "auth/metrics.h"
#include "core/dataset_builder.h"
#include "core/mandipass.h"
#include "core/trainer.h"

namespace mandipass::core {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  // Expensive setup shared by all tests in this suite.
  static void SetUpTestSuite() {
    rng_ = new Rng(2718);
    vibration::PopulationGenerator hired_pop(101);
    const auto hired = hired_pop.sample_population(24);
    CollectionConfig cc;
    cc.arrays_per_person = 50;
    const auto train_data = collect_gradient_set(hired, cc, *rng_);

    ExtractorConfig ec;
    ec.embedding_dim = 64;
    ec.channels = {8, 12, 16};
    extractor_ = new std::shared_ptr<BiometricExtractor>(
        std::make_shared<BiometricExtractor>(ec));
    ExtractorTrainer trainer(**extractor_, {.epochs = 14, .batch_size = 32, .lr = 2e-3,
                                            .weight_decay = 1e-4, .input_noise = 0.05});
    trainer.train(train_data);

    vibration::PopulationGenerator user_pop(202);
    users_ = new std::vector<vibration::PersonProfile>(user_pop.sample_population(4));

    // Calibrate a threshold on a handful of unseen-user sessions.
    CollectionConfig cu;
    cu.arrays_per_person = 16;
    const auto eval = collect_gradient_set(*users_, cu, *rng_);
    const auto emb = embed_all(**extractor_, eval);
    std::vector<double> genuine;
    std::vector<double> impostor;
    for (std::size_t i = 0; i < emb.size(); ++i) {
      for (std::size_t j = i + 1; j < emb.size(); ++j) {
        const double d = auth::cosine_distance(emb[i], emb[j]);
        (eval.labels[i] == eval.labels[j] ? genuine : impostor).push_back(d);
      }
    }
    const auto eer = auth::compute_eer(genuine, impostor);
    threshold_ = eer.threshold;
    eer_ = eer.eer;
  }

  static void TearDownTestSuite() {
    delete users_;
    delete extractor_;
    delete rng_;
    users_ = nullptr;
    extractor_ = nullptr;
    rng_ = nullptr;
  }

  MandiPass make_system() {
    MandiPassConfig cfg;
    cfg.threshold = threshold_;
    return MandiPass(*extractor_, cfg);
  }

  static void enroll(MandiPass& system, const std::string& user,
                     const imu::RawRecording& recording) {
    ASSERT_TRUE(system.try_enroll(user, {&recording, 1}).ok());
  }

  imu::RawRecording record(const vibration::PersonProfile& person,
                           vibration::SessionConfig cfg = {}) {
    vibration::SessionRecorder rec(person, *rng_);
    // A real user retries on a failed collection; mirror that here.
    for (int attempt = 0; attempt < 5; ++attempt) {
      auto r = rec.record(cfg);
      try {
        Preprocessor().process(r);
        return r;
      } catch (const SignalError&) {
        continue;
      }
    }
    return rec.record(cfg);
  }

  static Rng* rng_;
  static std::shared_ptr<BiometricExtractor>* extractor_;
  static std::vector<vibration::PersonProfile>* users_;
  static double threshold_;
  static double eer_;
};

Rng* EndToEnd::rng_ = nullptr;
std::shared_ptr<BiometricExtractor>* EndToEnd::extractor_ = nullptr;
std::vector<vibration::PersonProfile>* EndToEnd::users_ = nullptr;
double EndToEnd::threshold_ = 0.0;
double EndToEnd::eer_ = 1.0;

TEST_F(EndToEnd, UnseenUserEerIsUsable) {
  // Loose sanity bound; this fixture trains on only 24 hired people to
  // stay fast. The paper-scale bench (hundreds of hired people) drives
  // this to low single digits.
  EXPECT_LT(eer_, 0.35);
}

TEST_F(EndToEnd, GenuineUserUsuallyAccepted) {
  auto system = make_system();
  const auto& alice = (*users_)[0];
  enroll(system, "alice", record(alice));
  int accepted = 0;
  const int trials = 15;
  for (int i = 0; i < trials; ++i) {
    const auto d = system.try_verify("alice", record(alice));
    ASSERT_TRUE(d.ok());
    accepted += d.value().accepted ? 1 : 0;
  }
  EXPECT_GE(accepted, trials * 2 / 3);
}

TEST_F(EndToEnd, ZeroEffortAttackerRejected) {
  auto system = make_system();
  const auto& alice = (*users_)[0];
  const auto& mallory = (*users_)[1];
  enroll(system, "alice", record(alice));
  int accepted = 0;
  const int trials = 15;
  for (int i = 0; i < trials; ++i) {
    accepted += system.try_verify("alice", record(mallory)).value().accepted ? 1 : 0;
  }
  EXPECT_LE(accepted, trials / 3);
}

TEST_F(EndToEnd, ImpersonationAttackMostlyFails) {
  auto system = make_system();
  const auto& victim = (*users_)[2];
  const auto& attacker = (*users_)[3];
  enroll(system, "victim", record(victim));
  const auto mimic = vibration::PopulationGenerator::mimic(attacker, victim);
  int accepted = 0;
  const int trials = 15;
  for (int i = 0; i < trials; ++i) {
    accepted += system.try_verify("victim", record(mimic)).value().accepted ? 1 : 0;
  }
  // Mimicking the voicing habit must not grant reliable access; at this
  // reduced fixture scale we only require "mostly fails" — the paper-scale
  // rate (1.30%) is measured by bench_security.
  EXPECT_LE(accepted, trials / 2);
}

TEST_F(EndToEnd, ReplayAfterRekeyRejected) {
  auto system = make_system();
  const auto& alice = (*users_)[0];
  enroll(system, "alice", record(alice));
  // Attacker steals the sealed template...
  const auto stolen = system.store().lookup("alice");
  ASSERT_TRUE(stolen.has_value());
  // ...the user re-keys with a fresh Gaussian matrix...
  system.rekey("alice", record(alice));
  const auto fresh = system.store().lookup("alice");
  ASSERT_TRUE(fresh.has_value());
  // ...and the replayed old template no longer matches the new one.
  const double replay_distance = auth::cosine_distance(stolen->data, fresh->data);
  EXPECT_GT(replay_distance, threshold_);
}

TEST_F(EndToEnd, GenuineUserSurvivesRekey) {
  auto system = make_system();
  const auto& alice = (*users_)[0];
  enroll(system, "alice", record(alice));
  system.rekey("alice", record(alice));
  int accepted = 0;
  const int trials = 10;
  for (int i = 0; i < trials; ++i) {
    accepted += system.try_verify("alice", record(alice)).value().accepted ? 1 : 0;
  }
  EXPECT_GE(accepted, trials / 2);
}

TEST_F(EndToEnd, WorksWhileWalking) {
  auto system = make_system();
  const auto& alice = (*users_)[1];
  enroll(system, "alice", record(alice));
  vibration::SessionConfig walking;
  walking.activity = vibration::Activity::Walk;
  int accepted = 0;
  const int trials = 10;
  for (int i = 0; i < trials; ++i) {
    accepted += system.try_verify("alice", record(alice, walking)).value().accepted ? 1 : 0;
  }
  EXPECT_GE(accepted, trials / 2);
}

TEST_F(EndToEnd, Mpu6050AlsoWorks) {
  auto system = make_system();
  const auto& alice = (*users_)[2];
  vibration::SessionConfig cfg;
  cfg.sensor = imu::mpu6050_spec();
  enroll(system, "alice", record(alice, cfg));
  int accepted = 0;
  const int trials = 10;
  for (int i = 0; i < trials; ++i) {
    accepted += system.try_verify("alice", record(alice, cfg)).value().accepted ? 1 : 0;
  }
  EXPECT_GE(accepted, trials / 2);
}

}  // namespace
}  // namespace mandipass::core
