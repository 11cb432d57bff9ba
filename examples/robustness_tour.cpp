// Robustness tour: verify one user under every condition the paper's
// Section VII exercises — food, activity, tone, orientation, ear side,
// sensor model and a two-week gap — and print a compact scoreboard.
//
// Build & run:   ./build/examples/robustness_tour
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/dataset_builder.h"
#include "core/calibration.h"
#include "core/mandipass.h"
#include "core/trainer.h"
#include "imu/orientation.h"

using namespace mandipass;

int main(int argc, char** argv) {
  std::cout << "MandiPass robustness tour\n=========================\n";

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
    vibration::PopulationGenerator hired_pool(41);
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

  vibration::PopulationGenerator calibration_pool(43);
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

  vibration::PopulationGenerator people(42);
  const auto user = people.sample();
  vibration::SessionRecorder bud(user, rng);
  const auto enrolled = system.try_enroll("user", bud.record_many(vibration::SessionConfig{}, 5));
  if (!enrolled.ok()) {
    std::cerr << "enrolment failed: " << enrolled.error().message << "\n";
    return 1;
  }
  std::cout << "user enrolled with five hums under default conditions (static, right ear, "
               "MPU-9250)\n\n";

  struct Condition {
    std::string name;
    vibration::SessionConfig cfg;
  };
  std::vector<Condition> conditions;
  conditions.push_back({"baseline", {}});
  {
    vibration::SessionConfig c;
    c.food = vibration::Food::Lollipop;
    conditions.push_back({"lollipop in mouth", c});
  }
  {
    vibration::SessionConfig c;
    c.food = vibration::Food::Water;
    conditions.push_back({"after drinking water", c});
  }
  {
    vibration::SessionConfig c;
    c.activity = vibration::Activity::Walk;
    conditions.push_back({"walking", c});
  }
  {
    vibration::SessionConfig c;
    c.activity = vibration::Activity::Run;
    conditions.push_back({"running", c});
  }
  {
    vibration::SessionConfig c;
    c.tone_multiplier = 1.08;
    conditions.push_back({"high tone (+8%)", c});
  }
  {
    vibration::SessionConfig c;
    c.tone_multiplier = 0.93;
    conditions.push_back({"low tone (-7%)", c});
  }
  {
    vibration::SessionConfig c;
    c.mounting = imu::Rotation::about_z_deg(90.0);
    conditions.push_back({"earbud rotated 90 deg", c});
  }
  {
    vibration::SessionConfig c;
    c.ear_side = vibration::EarSide::Left;
    conditions.push_back({"left ear", c});
  }
  {
    vibration::SessionConfig c;
    c.sensor = imu::mpu6050_spec();
    conditions.push_back({"cheaper IMU (MPU-6050)", c});
  }
  {
    vibration::SessionConfig c;
    c.days_since_enrollment = 14.0;
    conditions.push_back({"two weeks later", c});
  }

  Table table({"condition", "accepted", "mean distance"});
  const int tries = 12;
  for (const auto& cond : conditions) {
    int accepted = 0;
    int usable = 0;
    double dist_sum = 0.0;
    for (int i = 0; i < tries; ++i) {
      const auto d = system.try_verify("user", bud.record(cond.cfg));
      if (d.ok()) {
        ++usable;
        accepted += d.value().accepted ? 1 : 0;
        dist_sum += d.value().distance;
      }
    }
    table.add_row({cond.name,
                   std::to_string(accepted) + "/" + std::to_string(usable),
                   usable > 0 ? fmt(dist_sum / usable) : "n/a"});
  }
  table.print(std::cout);

  std::cout << "\nThe quantitative versions of these rows are bench_fig12_factors,\n"
               "bench_fig13_orientation, bench_fig14_tone, bench_earside, and\n"
               "bench_longterm.\n";
  return 0;
}
