// Device-integrator walkthrough: the full lifecycle a wearable vendor
// implements around MandiPass.
//
//   * the VSP trains the extractor once and ships it as a binary blob
//   * the earbud loads the model and manages several users
//   * templates are cancelable: stolen templates are revoked by re-keying
//   * users can be removed entirely
//
// Build & run:   ./build/examples/enroll_and_verify
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "auth/cosine.h"
#include "core/dataset_builder.h"
#include "core/calibration.h"
#include "core/mandipass.h"
#include "core/trainer.h"

using namespace mandipass;

namespace {

/// VSP side: train and serialise the extractor ("the factory").
std::string vsp_build_model() {
  Rng rng(7);
  vibration::PopulationGenerator hired_pool(11);
  const auto hired = hired_pool.sample_population(16);
  core::CollectionConfig collection;
  collection.arrays_per_person = 40;
  collection.tone_augment_min = 0.92;
  collection.tone_augment_max = 1.09;
  const auto data = core::collect_gradient_set(hired, collection, rng);

  core::ExtractorConfig config;
  config.embedding_dim = 64;
  core::BiometricExtractor extractor(config);
  core::ExtractorTrainer trainer(extractor,
                                 {.epochs = 10, .weight_decay = 1e-4, .input_noise = 0.05});
  trainer.train(data);

  std::ostringstream blob;
  extractor.save(blob);
  std::cout << "[VSP] model trained and serialised: " << blob.str().size() / 1024
            << " KiB, " << extractor.parameter_count() << " parameters\n";
  return blob.str();
}

}  // namespace

int main() {
  std::cout << "MandiPass enrolment & key-management walkthrough\n"
               "=================================================\n";

  // --- Factory: train once, ship the blob with the firmware ---
  const std::string model_blob = vsp_build_model();

  // --- Earbud boot: load the shipped model ---
  core::ExtractorConfig config;
  config.embedding_dim = 64;
  auto extractor = std::make_shared<core::BiometricExtractor>(config);
  std::istringstream in(model_blob);
  extractor->load(in);
  std::cout << "[earbud] extractor loaded from blob\n";

  vibration::PopulationGenerator calibration_pool(13);
  const auto calibration_cohort = calibration_pool.sample_population(8);
  core::CollectionConfig calibration_cc;
  calibration_cc.arrays_per_person = 15;
  Rng calibration_rng(98);
  const auto operating_point =
      core::calibrate_threshold(*extractor, calibration_cohort, calibration_cc,
                                calibration_rng);
  std::cout << "calibrated threshold: " << operating_point.threshold
            << " (cohort EER " << operating_point.eer << ")\n";
  core::MandiPassConfig system_config;
  system_config.threshold = operating_point.threshold;
  core::MandiPass system(extractor, system_config);

  // --- Two household members enroll ---
  Rng rng(99);
  vibration::PopulationGenerator people(21);
  const auto alice = people.sample();
  const auto bob = people.sample();
  vibration::SessionRecorder alice_bud(alice, rng);
  vibration::SessionRecorder bob_bud(bob, rng);

  auto enroll = [&system](const std::string& user, vibration::SessionRecorder& bud) {
    const auto recording = bud.record(vibration::SessionConfig{});
    return system.try_enroll(user, {&recording, 1}).ok();
  };
  if (!enroll("alice", alice_bud) || !enroll("bob", bob_bud)) {
    std::cerr << "[earbud] enrolment failed: no usable vibration\n";
    return 1;
  }
  std::cout << "[earbud] enrolled users: " << system.store().size()
            << ", sealed template: " << system.store().lookup("alice")->data.size() * sizeof(float)
            << " bytes each\n";

  auto try_verify = [&system](const std::string& user, vibration::SessionRecorder& recorder) {
    for (int attempt = 0; attempt < 5; ++attempt) {
      const auto d = system.try_verify(user, recorder.record(vibration::SessionConfig{}));
      if (d.ok()) {
        return std::optional<auth::Decision>(d.value());
      }
      if (d.code() == common::ErrorCode::UnknownUser) {
        break;
      }
      // A rejected capture: ask the user to hum again.
    }
    return std::optional<auth::Decision>{};
  };

  const auto a = try_verify("alice", alice_bud);
  const auto cross = try_verify("bob", alice_bud);  // Alice trying Bob's slot
  std::cout << "[earbud] alice vs alice: "
            << (a && a->accepted ? "ACCEPT" : "reject")
            << " (distance " << (a ? a->distance : -1.0) << ")\n";
  std::cout << "[earbud] alice vs bob's template: "
            << (cross && cross->accepted ? "ACCEPT" : "reject")
            << " (distance " << (cross ? cross->distance : -1.0) << ")\n";

  // --- Breach response: the template store leaks; re-key Alice ---
  const auto stolen = system.store().lookup("alice");
  std::cout << "\n[incident] attacker exfiltrates alice's sealed template ("
            << stolen->data.size() * sizeof(float) << " bytes, matrix seed "
            << stolen->matrix_seed << ")\n";
  system.rekey("alice", alice_bud.record(vibration::SessionConfig{}));
  const auto fresh = system.store().lookup("alice");
  std::cout << "[earbud] re-keyed alice: key version " << fresh->key_version
            << ", new matrix seed " << fresh->matrix_seed << "\n";
  const double replay_distance = auth::cosine_distance(stolen->data, fresh->data);
  std::cout << "[earbud] replayed stolen template distance vs new template: "
            << replay_distance << " -> "
            << (replay_distance <= system.threshold() ? "ACCEPTED (bad!)" : "rejected")
            << "\n";

  // --- Alice still gets in after re-keying ---
  const auto post = try_verify("alice", alice_bud);
  std::cout << "[earbud] alice after re-key: "
            << (post && post->accepted ? "ACCEPT" : "reject") << "\n";

  // --- Offboarding ---
  system.revoke("bob");
  std::cout << "[earbud] bob revoked; enrolled users now: " << system.store().size() << "\n";
  return 0;
}
