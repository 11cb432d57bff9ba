// Quickstart: the smallest complete MandiPass flow.
//
//   1. The verification service provider (VSP) trains the biometric
//      extractor on hired people — end users are never in the training set.
//   2. A user enrolls by voicing "EMM" once.
//   3. Verification accepts the user and rejects a stranger.
//
// Build & run:   ./build/examples/quickstart [trained_model.bin]
//
// Without an argument it trains a small demo extractor (~30 s). Pass a
// serialised full-scale model (e.g. .mandipass_cache/model_headline.bin
// produced by the bench suite, 256-dim) for far better separation.
#include <fstream>
#include <iostream>
#include <memory>

#include "core/dataset_builder.h"
#include "core/calibration.h"
#include "core/mandipass.h"
#include "core/trainer.h"

using namespace mandipass;

int main(int argc, char** argv) {
  std::cout << "MandiPass quickstart\n====================\n";

  Rng rng(42);
  std::shared_ptr<core::BiometricExtractor> extractor;
  if (argc > 1) {
    // --- 1a. Load a pre-trained full-scale model (e.g. the bench cache) ---
    core::ExtractorConfig config;
    config.embedding_dim = 256;
    extractor = std::make_shared<core::BiometricExtractor>(config);
    std::ifstream in(argv[1], std::ios::binary);
    if (!in) {
      std::cerr << "cannot open model file '" << argv[1] << "'\n";
      return 1;
    }
    extractor->load(in);
    std::cout << "loaded pre-trained extractor from " << argv[1] << "\n\n";
  } else {
    // --- 1b. VSP-side training (small scale so this demo runs in ~30 s;
    // separation quality is far below the full-scale bench models) ---
    vibration::PopulationGenerator hired_pool(1);
    const auto hired = hired_pool.sample_population(28);
    core::CollectionConfig collection;
    collection.arrays_per_person = 50;
    collection.tone_augment_min = 0.92;  // hired people vary their tone
    collection.tone_augment_max = 1.09;
    std::cout << "collecting training data from " << hired.size() << " hired people...\n";
    const auto train_data = core::collect_gradient_set(hired, collection, rng);

    core::ExtractorConfig config;
    config.embedding_dim = 64;
    extractor = std::make_shared<core::BiometricExtractor>(config);
    core::ExtractorTrainer trainer(*extractor, {.epochs = 14,
                                                .weight_decay = 1e-4,
                                                .input_noise = 0.05});
    std::cout << "training the two-branch CNN biometric extractor...\n";
    const double train_acc = trainer.train(train_data);
    std::cout << "final training accuracy: " << train_acc << "\n\n";
  }

  // --- 2. Device-side enrolment ---
  // Calibrate the operating threshold on a held-out cohort (not the
  // end users) — the paper fixes its theta the same way at the EER point.
  vibration::PopulationGenerator calibration_pool(3);
  const auto calibration_cohort = calibration_pool.sample_population(8);
  core::CollectionConfig calibration_cc;
  calibration_cc.arrays_per_person = 15;
  const auto operating_point =
      core::calibrate_threshold(*extractor, calibration_cohort, calibration_cc, rng);
  std::cout << "calibrated threshold: " << operating_point.threshold
            << " (cohort EER " << operating_point.eer << ")\n";
  core::MandiPassConfig system_config;
  system_config.threshold = operating_point.threshold;
  core::MandiPass system(extractor, system_config);

  vibration::PopulationGenerator users(2);
  const auto alice = users.sample();
  vibration::SessionRecorder alice_phone(alice, rng);
  // Three different strangers: with a nonzero FAR the occasional
  // biometric near-collision exists, so one impostor alone is not a
  // representative demo.
  std::vector<vibration::SessionRecorder> strangers;
  for (int i = 0; i < 3; ++i) {
    strangers.emplace_back(users.sample(), rng);
  }

  std::cout << "Alice enrolls by voicing 'EMM' three times...\n";
  const auto enrolment = alice_phone.record_many(vibration::SessionConfig{}, 3);
  const auto enrolled = system.try_enroll("alice", enrolment);
  if (!enrolled.ok()) {
    std::cerr << "enrolment failed: " << enrolled.error().message << "\n";
    return 1;
  }

  // --- 3. Verification ---
  const int attempts = 10;
  int alice_ok = 0;
  for (int i = 0; i < attempts; ++i) {
    // A rejected capture (no usable vibration) comes back as a typed
    // error; a real UI would ask to retry.
    const auto d = system.try_verify("alice", alice_phone.record(vibration::SessionConfig{}));
    alice_ok += (d.ok() && d.value().accepted) ? 1 : 0;
  }
  std::cout << "Alice accepted:      " << alice_ok << "/" << attempts << " attempts\n";
  for (std::size_t m = 0; m < strangers.size(); ++m) {
    int ok = 0;
    for (int i = 0; i < attempts; ++i) {
      const auto d = system.try_verify("alice", strangers[m].record(vibration::SessionConfig{}));
      ok += (d.ok() && d.value().accepted) ? 1 : 0;
    }
    std::cout << "Stranger " << m + 1 << " accepted: " << ok << "/" << attempts
              << " attempts (posing as Alice)\n";
  }

  std::cout << "\nDone. See examples/enroll_and_verify.cpp for model persistence and\n"
               "key management, and bench/ for the paper's full evaluation.\n";
  return 0;
}
