// device_paper: one earbud running the MandiPass facade at the paper's
// shape (512-dim MandiblePrint, one Gaussian key per user).
//
// Setup trains the extractor in-process, calibrates the threshold on a
// calibration cohort, synthesises the users' raw 6-axis recordings from
// the seed and enrolls every user. The timed loop replays a fixed tape of
// MandiPass::try_verify (genuine and impostor), try_enroll and rekey calls
// (~10% writes). Every call is checked afterwards by replaying it stage
// by stage — Preprocessor, build_gradient_array, extract, GaussianMatrix
// built from the sealed template's matrix_seed, cosine_distance — and
// demanding the facade's distance (or sealed template) bit for bit.
// FAR/FRR come from an all-pairs evaluation of every probe against every
// user's sealed template on an untouched copy of the enrolled device, at
// the threshold calibrated (the same way) on a fixed calibration cohort.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "auth/cosine.h"
#include "auth/gaussian_matrix.h"
#include "auth/metrics.h"
#include "common/error.h"
#include "common/obs.h"
#include "common/thread_pool.h"
#include "core/dataset_builder.h"
#include "core/mandipass.h"
#include "core/trainer.h"
#include "speed.h"
#include "trace.h"
#include "vibration/population.h"
#include "vibration/session.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mandipass;

// The service provider's model and calibration are the deployed program,
// not the workload's input: they come from fixed seeds. Only the end
// users and their recordings come from --seed.
constexpr std::uint64_t kHiredSeed = 101;
constexpr std::uint64_t kTrainDataSeed = 2718;
constexpr std::uint64_t kCalibrationSeed = 303;
constexpr std::size_t kHiredPeople = 16;
constexpr std::size_t kTrainArrays = 20;
constexpr std::size_t kEpochs = 4;
constexpr std::size_t kCalibrationPeople = 20;
constexpr std::size_t kCalibrationProbes = 12;  ///< per calibration person

constexpr std::size_t kUsers = 120;
constexpr std::size_t kEnrollRecordings = 3;
constexpr std::size_t kProbeRecordings = 20;  ///< per user
constexpr std::size_t kWriteRecordings = 4;   ///< per user
constexpr std::size_t kTapeOps = 4096;
constexpr std::uint64_t kWritePermille = 100;
/// A call is mostly a GaussianMatrix build: scalar Gaussian draws, then
/// a packing copy (speed.h).
constexpr ProbeMix kProbe{1, 1, 0};

enum class OpKind : std::uint8_t { Verify, Enroll, Rekey };

struct Op {
  OpKind kind = OpKind::Verify;
  std::size_t user = 0;   ///< claimed identity
  std::size_t owner = 0;  ///< whose recording is presented
  std::size_t rec = 0;    ///< index into the owner's probe or write recordings
};

struct Inputs {
  std::vector<std::string> names;
  std::vector<std::vector<imu::RawRecording>> enroll;
  std::vector<std::vector<imu::RawRecording>> probes;
  std::vector<std::vector<imu::RawRecording>> writes;
  std::vector<Op> tape;

  const imu::RawRecording& recording(const Op& op) const {
    return op.kind == OpKind::Verify ? probes[op.owner][op.rec] : writes[op.owner][op.rec];
  }
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1CEULL);
  vibration::PopulationGenerator population(rng());
  const auto people = population.sample_population(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    in.names.push_back("user" + std::to_string(u));
    vibration::SessionRecorder recorder(people[u], rng);
    in.enroll.push_back(recorder.record_many({}, kEnrollRecordings));
    in.probes.push_back(recorder.record_many({}, kProbeRecordings));
    in.writes.push_back(recorder.record_many({}, kWriteRecordings));
  }
  Rng tape(rng());
  in.tape.reserve(kTapeOps);
  for (std::size_t i = 0; i < kTapeOps; ++i) {
    Op op;
    op.user = tape.uniform_index(kUsers);
    if (tape.uniform_index(1000) < kWritePermille) {
      op.kind = tape.bernoulli(0.5) ? OpKind::Rekey : OpKind::Enroll;
      op.owner = op.user;
      op.rec = tape.uniform_index(kWriteRecordings);
    } else {
      const bool genuine = tape.bernoulli(0.5);
      op.owner = genuine ? op.user : (op.user + 1 + tape.uniform_index(kUsers - 1)) % kUsers;
      op.rec = tape.uniform_index(kProbeRecordings);
    }
    in.tape.push_back(op);
  }
  return in;
}

struct Model {
  std::shared_ptr<core::BiometricExtractor> extractor;
  double threshold = 0.0;
};

struct Distances {
  std::vector<double> genuine;
  std::vector<double> impostor;
};

/// Distances of every usable probe recording to every enrolled user's
/// sealed template, through the same extract -> Gaussian transform ->
/// cosine path the facade runs. probes[u] belong to names[u].
Distances all_pairs(core::MandiPass& facade, const std::vector<std::string>& names,
                    const std::vector<std::vector<imu::RawRecording>>& probes) {
  std::vector<float> xs;
  std::vector<std::size_t> owners;
  std::size_t dim = 0;
  for (std::size_t u = 0; u < probes.size(); ++u) {
    for (const auto& rec : probes[u]) {
      auto print = facade.try_extract_print(rec);
      if (!print.ok()) {
        continue;
      }
      dim = print.value().size();
      xs.insert(xs.end(), print.value().begin(), print.value().end());
      owners.push_back(u);
    }
  }
  const std::size_t n = owners.size();
  const std::size_t users = names.size();
  std::vector<std::optional<auth::StoredTemplate>> templates(users);
  for (std::size_t v = 0; v < users; ++v) {
    templates[v] = facade.store().lookup(names[v]);
  }
  std::vector<Distances> per_user(users);
  common::parallel_for(0, users, 1, [&](std::size_t lo, std::size_t hi) {
    std::vector<float> out(n * dim);
    for (std::size_t v = lo; v < hi; ++v) {
      if (!templates[v].has_value() || n == 0) {
        continue;
      }
      const auth::GaussianMatrix g(templates[v]->matrix_seed, dim);
      g.transform_batch(xs, n, out);
      for (std::size_t i = 0; i < n; ++i) {
        const double dist = auth::cosine_distance(
            std::span<const float>(out.data() + i * dim, dim), templates[v]->data);
        (owners[i] == v ? per_user[v].genuine : per_user[v].impostor).push_back(dist);
      }
    }
  });
  Distances all;
  for (const Distances& d : per_user) {
    all.genuine.insert(all.genuine.end(), d.genuine.begin(), d.genuine.end());
    all.impostor.insert(all.impostor.end(), d.impostor.begin(), d.impostor.end());
  }
  return all;
}

/// The deployment threshold: the EER point of a calibration cohort
/// enrolled and probed on a device exactly like the end users are.
double calibrate(const std::shared_ptr<core::BiometricExtractor>& extractor) {
  vibration::PopulationGenerator population(kCalibrationSeed);
  const auto cohort = population.sample_population(kCalibrationPeople);
  Rng rng(kCalibrationSeed);
  core::MandiPassConfig config;
  config.key_seed = kCalibrationSeed;
  core::MandiPass device(extractor, config);
  std::vector<std::string> names;
  std::vector<std::vector<imu::RawRecording>> probes;
  for (std::size_t p = 0; p < cohort.size(); ++p) {
    names.push_back("calibration" + std::to_string(p));
    vibration::SessionRecorder recorder(cohort[p], rng);
    (void)device.try_enroll(names.back(), recorder.record_many({}, kEnrollRecordings));
    probes.push_back(recorder.record_many({}, kCalibrationProbes));
  }
  const Distances d = all_pairs(device, names, probes);
  return auth::compute_eer(d.genuine, d.impostor).threshold;
}

/// Trains the 512-dim extractor on the hired cohort and calibrates the
/// EER threshold on a separate calibration cohort. Never reads a cached
/// model, so every run pays (and times) the same training.
Model train_model() {
  vibration::PopulationGenerator hired_population(kHiredSeed);
  const auto hired = hired_population.sample_population(kHiredPeople);
  core::CollectionConfig collection;
  collection.arrays_per_person = kTrainArrays;
  collection.tone_augment_min = 0.92;
  collection.tone_augment_max = 1.09;
  Rng rng(kTrainDataSeed);
  const auto data = core::collect_gradient_set(hired, collection, rng);

  Model model;
  model.extractor = std::make_shared<core::BiometricExtractor>(core::ExtractorConfig{});
  core::TrainConfig train;
  train.epochs = kEpochs;
  train.weight_decay = 1e-4;
  train.input_noise = 0.05;
  train.lr_decay = std::pow(0.1, 1.0 / static_cast<double>(kEpochs));
  core::ExtractorTrainer trainer(*model.extractor, train);
  trainer.train(data);

  model.threshold = calibrate(model.extractor);
  return model;
}

struct Device {
  Model model;
  Inputs inputs;
  std::unique_ptr<core::MandiPass> facade;
};

Device setup_device(std::uint64_t seed) {
  Device d;
  d.model = train_model();
  d.inputs = make_inputs(seed);
  core::MandiPassConfig config;
  config.threshold = d.model.threshold;
  config.key_seed = seed ^ 0xC0FFEE5EEDULL;
  d.facade = std::make_unique<core::MandiPass>(d.model.extractor, config);
  for (std::size_t u = 0; u < kUsers; ++u) {
    // A user whose every enrolment capture is rejected stays unenrolled;
    // the tape then sees typed UnknownUser answers for them.
    (void)d.facade->try_enroll(d.inputs.names[u], d.inputs.enroll[u]);
  }
  return d;
}

/// What one facade call returned, plus the template it had to use
/// (verify: the sealed template before the call; writes: after).
struct Executed {
  std::size_t op = 0;  ///< tape index
  bool decided = false;
  bool accepted = false;
  double distance = 0.0;
  std::optional<common::ErrorCode> code;  ///< reject code when known
  std::optional<auth::StoredTemplate> tmpl;
};

std::string reject_reason(const Executed& e, bool enrolled_before) {
  if (e.code == common::ErrorCode::UnknownUser) {
    return enrolled_before ? "unknown_enrolled" : "capture_reject.unenrolled";
  }
  if (!e.code.has_value()) {
    return "capture_reject.rekey";
  }
  return "capture_reject." + std::string(common::error_code_name(*e.code));
}

/// Runs tape op `i` through the facade, timing only the facade call.
Executed run_op(Device& d, std::size_t i, CallTime* call, bool* enrolled_before) {
  const Op& op = d.inputs.tape[i];
  const std::string& name = d.inputs.names[op.user];
  const imu::RawRecording& rec = d.inputs.recording(op);
  Executed e;
  e.op = i;
  auto before = d.facade->store().lookup(name);
  *enrolled_before = before.has_value();
  if (op.kind == OpKind::Verify) {
    e.tmpl = std::move(before);
    const CallTimer timer;
    auto r = d.facade->try_verify(name, rec);
    *call = timer.stop();
    if (r.ok()) {
      e.decided = true;
      e.accepted = r.value().accepted;
      e.distance = r.value().distance;
    } else {
      e.code = r.code();
    }
    return e;
  }
  if (op.kind == OpKind::Rekey && *enrolled_before) {
    const CallTimer timer;
    try {
      d.facade->rekey(name, rec);
      e.decided = true;
    } catch (const SignalError&) {
      // The legacy throwing API reports a rejected capture this way.
    }
    *call = timer.stop();
  } else {
    const CallTimer timer;
    auto r = d.facade->try_enroll(name, std::span<const imu::RawRecording>(&rec, 1));
    *call = timer.stop();
    e.decided = r.ok();
    if (!r.ok()) {
      e.code = r.code();
    }
  }
  if (e.decided) {
    e.tmpl = d.facade->store().lookup(name);
  }
  return e;
}

/// One recording through the device's stages: the typed reject, or the
/// raw MandiblePrint.
struct Print {
  std::optional<common::ErrorCode> reject;
  std::vector<float> print;
};

Print replay_print(Device& d, const imu::RawRecording& rec) {
  const core::Preprocessor prep(core::MandiPassConfig{}.prep);
  auto array = prep.try_process(rec);
  if (!array.ok()) {
    return {array.code(), {}};
  }
  return {std::nullopt, d.model.extractor->extract(core::build_gradient_array(array.value()))};
}

/// What the stage-by-stage replay of one call produced: the capture
/// reject, or the print transformed with the sealed template's matrix and,
/// for a verify, its distance to the template.
struct Replayed {
  std::optional<common::ErrorCode> reject;
  std::vector<float> transformed;  ///< empty when there was no template to use
  double distance = 0.0;
};

/// True when the replay reproduces the facade's answer exactly.
bool agrees(const Device& d, const Executed& e, const Replayed& r) {
  const Op& op = d.inputs.tape[e.op];
  if (!e.decided) {
    // A typed reject must come from the capture itself (or an unenrolled
    // user); a rekey reject carries no code, but the replay must reject.
    if (e.code == common::ErrorCode::UnknownUser) {
      return op.kind == OpKind::Verify && !e.tmpl.has_value();
    }
    return r.reject.has_value() && (!e.code.has_value() || *e.code == *r.reject);
  }
  if (r.reject.has_value() || !e.tmpl.has_value() || r.transformed.empty()) {
    return false;
  }
  if (op.kind != OpKind::Verify) {
    return r.transformed == e.tmpl->data;
  }
  return r.distance == e.distance && e.accepted == (r.distance <= d.model.threshold);
}

/// Replays every logged call, extracting each recording once and building
/// each Gaussian matrix once per distinct seed. Flags the calls the replay
/// contradicts.
std::vector<bool> find_mismatches(Device& d, const std::vector<Executed>& log) {
  std::map<std::tuple<bool, std::size_t, std::size_t>, Print> prints;  // per recording
  auto print_for = [&](const Op& op) -> const Print& {
    const auto key = std::make_tuple(op.kind == OpKind::Verify, op.owner, op.rec);
    auto it = prints.find(key);
    if (it == prints.end()) {
      it = prints.emplace(key, replay_print(d, d.inputs.recording(op))).first;
    }
    return it->second;
  };
  std::vector<std::size_t> order(log.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  auto seed_of = [&](std::size_t i) {
    return log[i].tmpl.has_value() ? log[i].tmpl->matrix_seed : 0;
  };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return seed_of(a) < seed_of(b); });
  std::vector<bool> mismatch(log.size(), false);
  std::unique_ptr<auth::GaussianMatrix> g;
  for (const std::size_t i : order) {
    const Executed& e = log[i];
    const Print& p = print_for(d.inputs.tape[e.op]);
    Replayed r{p.reject, {}, 0.0};
    if (e.decided && e.tmpl.has_value() && !p.reject.has_value()) {
      if (g == nullptr || g->seed() != e.tmpl->matrix_seed || g->dim() != p.print.size()) {
        g = std::make_unique<auth::GaussianMatrix>(e.tmpl->matrix_seed, p.print.size());
      }
      r.transformed = g->transform(p.print);
      r.distance = auth::cosine_distance(r.transformed, e.tmpl->data);
    }
    mismatch[i] = !agrees(d, e, r);
  }
  return mismatch;
}

/// Counts one outcome: a wrong answer, a decision, or a no-decision reason.
void count_outcome(OutcomeTally& outcomes, const Executed& e, bool enrolled_before, bool wrong) {
  if (wrong) {
    outcomes.wrong();
  } else if (e.decided) {
    outcomes.decided();
  } else {
    outcomes.no_decision(reject_reason(e, enrolled_before));
  }
}

struct Rates {
  double far_pct = 0.0;
  double frr_pct = 0.0;
  std::size_t genuine = 0;
  std::size_t impostor = 0;
};

/// All-pairs FAR/FRR of the end users' probes at the calibrated threshold.
Rates evaluate_rates(Device& d) {
  const Distances dist = all_pairs(*d.facade, d.inputs.names, d.inputs.probes);
  std::size_t false_reject = 0;
  std::size_t false_accept = 0;
  for (const double x : dist.genuine) {
    false_reject += x <= d.model.threshold ? 0 : 1;
  }
  for (const double x : dist.impostor) {
    false_accept += x <= d.model.threshold ? 1 : 0;
  }
  Rates r;
  r.genuine = dist.genuine.size();
  r.impostor = dist.impostor.size();
  r.frr_pct = 100.0 * safe_ratio(static_cast<double>(false_reject), static_cast<double>(r.genuine));
  r.far_pct =
      100.0 * safe_ratio(static_cast<double>(false_accept), static_cast<double>(r.impostor));
  return r;
}

struct LoopResult {
  std::vector<double> verify_ns;  ///< raw wall time of each verify call
  std::vector<double> write_ns;   ///< raw wall time of each write call
  std::vector<double> verify_ref_us;  ///< CPU time of each verify, reference host (speed.h)
  std::vector<double> write_ref_us;   ///< the same for each write
  double busy_ref_s = 0.0;  ///< reference-host CPU time spent inside facade calls
  std::vector<Executed> log;
  std::vector<bool> enrolled_before;
  std::size_t decisions = 0;
  double wall_s = 0.0;
  std::size_t next_op = 0;
};

/// Untimed-bookkeeping loop: runs tape ops from `start` until `seconds`
/// have passed, timing each facade call, with a host-speed probe
/// (speed.h) before each call and after the last.
LoopResult timed_loop(Device& d, std::size_t start, double seconds) {
  LoopResult r;
  std::vector<double> probe_ns;
  std::vector<double> cpu_ns;
  const auto t0 = Clock::now();
  std::size_t i = start;
  while (elapsed_s(t0, Clock::now()) < seconds) {
    const std::size_t op = i++ % d.inputs.tape.size();
    probe_ns.push_back(reference_probe_ns(kProbe));
    CallTime call;
    bool enrolled_before = false;
    Executed e = run_op(d, op, &call, &enrolled_before);
    cpu_ns.push_back(call.cpu_ns);
    if (d.inputs.tape[op].kind == OpKind::Verify) {
      r.verify_ns.push_back(call.wall_ns);
      r.decisions += e.decided ? 1 : 0;
    } else {
      r.write_ns.push_back(call.wall_ns);
    }
    r.log.push_back(std::move(e));
    r.enrolled_before.push_back(enrolled_before);
  }
  r.wall_s = elapsed_s(t0, Clock::now());
  r.next_op = i;
  probe_ns.push_back(reference_probe_ns(kProbe));
  const std::vector<double> scale = speed_scales(kProbe, probe_ns);
  for (std::size_t k = 0; k < cpu_ns.size(); ++k) {
    const double us = cpu_ns[k] * scale[k] / 1e3;
    const bool verify = d.inputs.tape[r.log[k].op].kind == OpKind::Verify;
    (verify ? r.verify_ref_us : r.write_ref_us).push_back(us);
    r.busy_ref_s += us / 1e6;
  }
  return r;
}

/// Tallies every logged call, demoting replay mismatches to wrong answers.
void tally(Device& d, const LoopResult& loop, OutcomeTally& outcomes) {
  const std::vector<bool> mismatch = find_mismatches(d, loop.log);
  for (std::size_t k = 0; k < loop.log.size(); ++k) {
    count_outcome(outcomes, loop.log[k], loop.enrolled_before[k], mismatch[k]);
  }
}

}  // namespace

Report run_device_paper(const Options& options) {
  Report report;
  // Setup repeats (more_setups); the first copy stays untouched for the
  // FAR/FRR evaluation, the last one serves.
  std::vector<double> setup_s;
  std::vector<double> setup_ref_s;
  std::unique_ptr<Device> pristine;
  std::unique_ptr<Device> device;
  while (more_setups(options, setup_s)) {
    const bool first = setup_s.empty();
    const double scale_before = setup_scale();
    const auto t0 = first ? options.process_start : Clock::now();
    auto d = std::make_unique<Device>(setup_device(options.seed));
    setup_s.push_back(elapsed_s(t0, Clock::now()));
    setup_ref_s.push_back(setup_s.back() * (scale_before + setup_scale()) / 2.0);
    (first ? pristine : device) = std::move(d);
  }
  if (device == nullptr) {
    device = std::move(pristine);
  }
  std::cerr << "[device_paper] threshold " << device->model.threshold << ", setup";
  for (const double s : setup_s) {
    std::cerr << " " << s << "s";
  }
  std::cerr << "\n";

  if (!options.trace) {
    set_pool_lanes(kLoopLanes);
    const LoopResult warmup = timed_loop(*device, 0, kWarmupSeconds);
    tally(*device, warmup, report.outcomes);
    const std::uint64_t faults0 = minor_faults();
    const LoopResult loop = timed_loop(*device, warmup.next_op, options.seconds);
    const std::uint64_t faults = minor_faults() - faults0;
    set_pool_lanes(kSetupLanes);
    tally(*device, loop, report.outcomes);
    const Rates rates = evaluate_rates(*pristine);
    const auto verify_us = to_us(loop.verify_ns);
    std::cerr << "[device_paper] verify: " << p99_note(verify_us.size()) << "; "
              << loop.write_ns.size() << " writes; FAR over " << rates.impostor
              << " impostor trials, FRR over " << rates.genuine << " genuine trials\n"
              << "[device_paper] raw: call p50 " << percentile(verify_us, 0.5) << " us, p99 "
              << percentile(verify_us, 0.99) << " us, write p50 " << median(to_us(loop.write_ns))
              << " us, " << static_cast<double>(loop.decisions) / loop.wall_s
              << " verifies per wall second, "
              << safe_ratio(static_cast<double>(faults), static_cast<double>(loop.log.size()))
              << " page faults per call\n";
    report.add("setup_s", "s", median(setup_ref_s));
    report.add("verifies_per_s", "1/s",
               safe_ratio(static_cast<double>(loop.decisions), loop.busy_ref_s));
    report.add("call_p50_us", "us", percentile(loop.verify_ref_us, 0.5));
    report.add("call_p99_us", "us", percentile(loop.verify_ref_us, 0.99));
    report.add("write_p50_us", "us", median(loop.write_ref_us));
    report.add("decided_pct", "%", report.outcomes.decided_pct());
    report.add("far_pct", "%", rates.far_pct);
    report.add("frr_pct", "%", rates.frr_pct);
    report.add("peak_rss_mb", "MiB", peak_rss_mb());
    return report;
  }

  // Traced run: half the time untraced (the overhead baseline), half with
  // a span around every facade call and every replayed stage.
  Device& d = *device;
  set_pool_lanes(kLoopLanes);
  const LoopResult warmup = timed_loop(d, 0, kWarmupSeconds);
  tally(d, warmup, report.outcomes);
  const LoopResult plain = timed_loop(d, warmup.next_op, options.seconds / 2.0);
  tally(d, plain, report.outcomes);

  Tracer tracer(true);
  auto& c_ok = common::obs::counter("core.prep.ok");
  const char* kRejectCounters[] = {"core.prep.short_recording", "core.prep.no_onset",
                                   "core.prep.nonfinite_segment", "core.prep.onset_truncated",
                                   "core.prep.nonfinite_output"};
  auto rejects_now = [&] {
    std::uint64_t n = 0;
    for (const char* name : kRejectCounters) {
      n += common::obs::counter(name).value();
    }
    return n;
  };
  std::uint64_t prep_ok = 0;
  std::uint64_t prep_rejects = 0;
  std::vector<double> facade_all_us;
  // Probe before each traced op (and one after the last) and each verify's
  // CPU time, for trace.overhead_us in the end-to-end metric's units.
  std::vector<double> probe_ns;
  std::vector<double> op_cpu_ns;
  std::vector<char> op_is_verify;
  std::vector<double> facade_us, prep_us, grad_us, extract_us, build_us, transform_us, cosine_us;
  const core::Preprocessor prep(core::MandiPassConfig{}.prep);
  const auto t0 = Clock::now();
  std::size_t i = plain.next_op;
  while (elapsed_s(t0, Clock::now()) < options.seconds / 2.0) {
    const std::size_t op_index = i++ % d.inputs.tape.size();
    const Op& op = d.inputs.tape[op_index];
    ScopedSpan root(tracer, "device.op", -1, i);
    const char* facade_name = op.kind == OpKind::Verify ? "core.facade.verify"
                              : op.kind == OpKind::Rekey ? "core.facade.rekey"
                                                         : "core.facade.enroll";
    probe_ns.push_back(reference_probe_ns(kProbe));
    CallTime call;
    bool enrolled_before = false;
    const std::uint64_t ok0 = c_ok.value();
    const std::uint64_t rej0 = rejects_now();
    ScopedSpan facade_span(tracer, facade_name, root.index(), i);
    const Executed e = run_op(d, op_index, &call, &enrolled_before);
    const double ns = call.wall_ns;
    facade_span.close();
    prep_ok += c_ok.value() - ok0;
    prep_rejects += rejects_now() - rej0;

    // Stage-by-stage replay, each stage in its own span.
    Replayed r;
    double t_grad = 0.0, t_extract = 0.0, t_build = 0.0, t_transform = 0.0, t_cosine = 0.0;
    ScopedSpan prep_span(tracer, "core.preprocess", root.index(), i);
    const auto array = prep.try_process(d.inputs.recording(op));
    const double t_prep = prep_span.close();
    if (!array.ok()) {
      r.reject = array.code();
    } else {
      ScopedSpan grad_span(tracer, "core.gradient", root.index(), i);
      const auto grad = core::build_gradient_array(array.value());
      t_grad = grad_span.close();
      ScopedSpan extract_span(tracer, "core.extract", root.index(), i);
      const auto print = d.model.extractor->extract(grad);
      t_extract = extract_span.close();
      if (e.decided && e.tmpl.has_value()) {
        ScopedSpan build_span(tracer, "auth.matrix_build", root.index(), i);
        const auth::GaussianMatrix g(e.tmpl->matrix_seed, print.size());
        t_build = build_span.close();
        ScopedSpan transform_span(tracer, "auth.transform", root.index(), i);
        r.transformed = g.transform(print);
        t_transform = transform_span.close();
        ScopedSpan cosine_span(tracer, "auth.cosine", root.index(), i);
        r.distance = auth::cosine_distance(r.transformed, e.tmpl->data);
        t_cosine = cosine_span.close();
      }
    }
    count_outcome(report.outcomes, e, enrolled_before, !agrees(d, e, r));
    op_cpu_ns.push_back(call.cpu_ns);
    op_is_verify.push_back(op.kind == OpKind::Verify ? 1 : 0);
    if (op.kind != OpKind::Verify) {
      continue;
    }
    facade_all_us.push_back(ns / 1e3);
    if (e.decided) {
      facade_us.push_back(ns / 1e3);
      prep_us.push_back(t_prep);
      grad_us.push_back(t_grad);
      extract_us.push_back(t_extract);
      build_us.push_back(t_build);
      transform_us.push_back(t_transform);
      cosine_us.push_back(t_cosine);
    }
  }
  if (!tracer.write_jsonl(options.trace_path)) {
    std::cerr << "[device_paper] could not write " << options.trace_path << "\n";
  }

  const double facade = median(facade_us);
  const double stages = median(prep_us) + median(grad_us) + median(extract_us) +
                        median(build_us) + median(transform_us) + median(cosine_us);
  std::cerr << "[device_paper] traced " << facade_all_us.size() << " verify calls ("
            << facade_us.size() << " decided); facade median " << facade
            << " us = stage medians " << stages << " us + unattributed " << facade - stages
            << " us\n";
  report.add("core.preprocess_us", "us", median(prep_us));
  report.add("core.gradient_us", "us", median(grad_us));
  report.add("core.extract_us", "us", median(extract_us));
  report.add("core.facade_verify_us", "us", facade);
  report.add("core.facade_unattributed_us", "us", facade - stages);
  report.add("core.capture_reject_ratio", "ratio",
             safe_ratio(static_cast<double>(prep_rejects),
                        static_cast<double>(prep_ok + prep_rejects)));
  report.add("auth.matrix_build_us", "us", median(build_us));
  report.add("auth.transform_us", "us", median(transform_us));
  report.add("auth.cosine_us", "us", median(cosine_us));
  report.add("failed_ratio", "ratio", report.outcomes.failed_ratio());
  probe_ns.push_back(reference_probe_ns(kProbe));
  const std::vector<double> scale = speed_scales(kProbe, probe_ns);
  std::vector<double> traced_ref_us;
  for (std::size_t k = 0; k < op_cpu_ns.size(); ++k) {
    if (op_is_verify[k] != 0) {
      traced_ref_us.push_back(op_cpu_ns[k] * scale[k] / 1e3);
    }
  }
  report.add("trace.overhead_us", "us", median(traced_ref_us) - median(plain.verify_ref_us));
  report.add("trace.call_samples", "count", static_cast<double>(facade_all_us.size()));
  return report;
}

}  // namespace perfbench
