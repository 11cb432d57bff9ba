// Attack lab: the four Section VI attack models demonstrated against a
// live MandiPass instance, plus the same replay attack against the
// SkullConduct/EarEcho-like baselines (which fall to it — Table I).
//
// Build & run:   ./build/examples/attack_lab
#include <fstream>
#include <iostream>
#include <memory>

#include "auth/cosine.h"
#include "baselines/earecho.h"
#include "baselines/skullconduct.h"
#include "core/dataset_builder.h"
#include "core/calibration.h"
#include "core/mandipass.h"
#include "core/trainer.h"

using namespace mandipass;

int main(int argc, char** argv) {
  std::cout << "MandiPass attack lab\n====================\n";

  std::shared_ptr<core::BiometricExtractor> extractor;
  Rng rng(1234);
  if (argc > 1) {
    // Load a pre-trained full-scale model (e.g. the bench suite cache,
    // .mandipass_cache/model_headline.bin, 256-dim) for crisp separation.
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
    // Train a small demo extractor (~1 min; far weaker separation than the
    // full-scale bench models — expect some demo-scale misclassifications).
    vibration::PopulationGenerator hired_pool(31);
    const auto hired = hired_pool.sample_population(20);
    core::CollectionConfig collection;
    collection.arrays_per_person = 45;
    collection.tone_augment_min = 0.92;
    collection.tone_augment_max = 1.09;
    const auto data = core::collect_gradient_set(hired, collection, rng);
    core::ExtractorConfig config;
    config.embedding_dim = 64;
    extractor = std::make_shared<core::BiometricExtractor>(config);
    core::ExtractorTrainer trainer(*extractor,
                                   {.epochs = 12, .weight_decay = 1e-4, .input_noise = 0.05});
    std::cout << "training demo extractor...\n\n";
    trainer.train(data);
  }

  vibration::PopulationGenerator calibration_pool(33);
  const auto calibration_cohort = calibration_pool.sample_population(8);
  core::CollectionConfig calibration_cc;
  calibration_cc.arrays_per_person = 15;
  const auto operating_point =
      core::calibrate_threshold(*extractor, calibration_cohort, calibration_cc, rng);
  std::cout << "calibrated threshold: " << operating_point.threshold
            << " (cohort EER " << operating_point.eer << ")\n";
  core::MandiPassConfig scfg;
  scfg.threshold = operating_point.threshold;
  core::MandiPass system(extractor, scfg);

  vibration::PopulationGenerator people(32);
  const auto victim = people.sample();
  const auto attacker = people.sample();
  vibration::SessionRecorder victim_bud(victim, rng);
  const auto enrolment = victim_bud.record(vibration::SessionConfig{});
  const auto enrolled = system.try_enroll("victim", {&enrolment, 1});
  if (!enrolled.ok()) {
    std::cerr << "enrolment failed: " << enrolled.error().message << "\n";
    return 1;
  }

  auto attempt = [&system](vibration::SessionRecorder& rec, vibration::SessionConfig cfg,
                           int tries) {
    int accepted = 0;
    int usable = 0;
    for (int i = 0; i < tries; ++i) {
      const auto d = system.try_verify("victim", rec.record(cfg));
      if (d.ok()) {
        ++usable;
        accepted += d.value().accepted ? 1 : 0;
      }
    }
    std::cout << "    usable attempts: " << usable << "/" << tries
              << ", accepted: " << accepted << "\n";
    return accepted;
  };

  // --- 1. Zero-effort attack ---
  std::cout << "[1] zero-effort attack: the thief does not know a vibration is needed\n";
  {
    vibration::SessionRecorder thief(attacker, rng);
    vibration::SessionConfig quiet;
    quiet.voice_s = 0.05;  // no deliberate 'EMM'
    quiet.silence_s = 0.6;
    attempt(thief, quiet, 10);
  }

  // --- 2. Vibration-aware attack ---
  std::cout << "[2] vibration-aware attack: the attacker hums 'EMM' themselves\n";
  {
    vibration::SessionRecorder thief(attacker, rng);
    attempt(thief, vibration::SessionConfig{}, 10);
  }

  // --- 3. Impersonation attack ---
  std::cout << "[3] impersonation: attacker imitates the victim's pitch and loudness\n";
  {
    const auto mimic = vibration::PopulationGenerator::mimic_imperfect(attacker, victim, rng);
    vibration::SessionRecorder mimic_bud(mimic, rng);
    attempt(mimic_bud, vibration::SessionConfig{}, 10);
  }

  // --- 4. Replay attack ---
  std::cout << "[4] replay: stolen sealed template, after the user re-keys\n";
  {
    const auto stolen = system.store().lookup("victim");
    system.rekey("victim", victim_bud.record(vibration::SessionConfig{}));
    const auto fresh = system.store().lookup("victim");
    const double d = auth::cosine_distance(stolen->data, fresh->data);
    std::cout << "    stolen-vs-rekeyed template distance: " << d << " -> "
              << (d <= scfg.threshold ? "ACCEPTED (bad!)" : "rejected") << "\n";
  }

  // --- The same replay against the acoustic baselines ---
  std::cout << "\n[baselines] replaying stolen templates against SkullConduct/EarEcho-like "
               "systems (raw templates, no cancelable transform):\n";
  {
    Rng arng(777);
    const auto profile = baselines::sample_acoustic_profile(0, arng);
    baselines::SkullConductLike skull(2.2, arng);
    skull.enroll("victim", profile, {});
    const auto skull_stolen = skull.steal("victim");
    std::cout << "    SkullConduct-like: replay "
              << (skull.verify_replayed("victim", *skull_stolen)->accepted
                      ? "ACCEPTED — no replay resilience"
                      : "rejected")
              << "\n";
    baselines::EarEchoLike earecho(1.8, arng);
    earecho.enroll("victim", profile, {});
    const auto echo_stolen = earecho.steal("victim");
    std::cout << "    EarEcho-like:      replay "
              << (earecho.verify_replayed("victim", *echo_stolen)->accepted
                      ? "ACCEPTED — no replay resilience"
                      : "rejected")
              << "\n";
  }

  std::cout << "\nSee bench_security and bench_table1_comparison for the quantitative "
               "versions of these experiments.\n";
  return 0;
}
