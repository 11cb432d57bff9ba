#include "core/preprocessor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/error.h"
#include "common/finite.h"
#include "common/obs.h"
#include "common/stats.h"
#include "dsp/filter.h"
#include "dsp/normalize.h"

namespace mandipass::core {

Preprocessor::Preprocessor(PreprocessorConfig config) : config_(config) {
  MANDIPASS_EXPECTS(config_.segment_length >= 4);
  MANDIPASS_EXPECTS(config_.highpass_hz > 0.0);
}

std::optional<std::size_t> Preprocessor::detect_onset(const imu::RawRecording& recording) const {
  MANDIPASS_OBS_TRACE_SAMPLED(trace_onset, "core.prep.onset_us", 4);
  // Pick the accelerometer axis with the largest windowed std-dev peak —
  // the axis the jaw vibration couples into most strongly this session.
  double best_peak = -1.0;
  std::size_t best_axis = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    const auto stds =
        windowed_stddev(recording.axes[a], config_.onset.window, config_.onset.stride);
    for (double s : stds) {
      if (s > best_peak) {
        best_peak = s;
        best_axis = a;
      }
    }
  }
  const auto onset = dsp::detect_onset(recording.axes[best_axis], config_.onset);
  if (onset.has_value()) {
    MANDIPASS_OBS_COUNT("core.prep.onset_detected");
  } else {
    MANDIPASS_OBS_COUNT("core.prep.onset_missing");
  }
  return onset;
}

std::size_t Preprocessor::refine_onset(const imu::RawRecording& recording,
                                       std::size_t coarse_start) const {
  // Strongest accel axis over the search span, judged by deviation from
  // its local median (the raw counts carry a gravity DC offset).
  const std::size_t radius = config_.peak_align_radius;
  const std::size_t begin = coarse_start;
  const std::size_t end = std::min(begin + 2 * radius + 1, recording.sample_count());
  if (end <= begin + 1) {
    return coarse_start;
  }
  double best_score = -1.0;
  std::size_t best_axis = 0;
  std::array<double, 3> medians{};
  for (std::size_t a = 0; a < 3; ++a) {
    std::span<const double> span(recording.axes[a].data() + begin, end - begin);
    medians[a] = median(span);
    double dev = 0.0;
    for (double v : span) {
      dev += std::abs(v - medians[a]);
    }
    if (dev > best_score) {
      best_score = dev;
      best_axis = a;
    }
  }
  // Dominant peak of the search window: a waveform landmark that pins the
  // segment to a fixed phase of the vibration.
  const auto& axis = recording.axes[best_axis];
  std::size_t peak = begin;
  double peak_value = -1.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double v = std::abs(axis[i] - medians[best_axis]);
    if (v > peak_value) {
      peak_value = v;
      peak = i;
    }
  }
  return peak;
}

common::Result<SignalArray> Preprocessor::try_process(const imu::RawRecording& recording) const {
  MANDIPASS_OBS_TRACE_SAMPLED(trace_process, "core.prep.process_us", 4);
  using common::ErrorCode;
  using common::make_error;
  if (!common::is_finite(recording.sample_rate_hz) || recording.sample_rate_hz <= 0.0) {
    return make_error(ErrorCode::InvalidInput, "non-positive sample rate");
  }
  const std::size_t n = recording.sample_count();
  for (const auto& axis : recording.axes) {
    if (axis.size() != n) {
      return make_error(ErrorCode::InvalidInput, "ragged axes: " + std::to_string(axis.size()) +
                                                     " vs " + std::to_string(n) + " samples");
    }
  }
  if (n < config_.segment_length) {
    MANDIPASS_OBS_COUNT("core.prep.short_recording");
    return make_error(ErrorCode::SegmentTooShort,
                      "recording shorter than one segment (" + std::to_string(n) + " < " +
                          std::to_string(config_.segment_length) + " samples)");
  }
  const auto onset = detect_onset(recording);
  if (!onset.has_value()) {
    MANDIPASS_OBS_COUNT("core.prep.no_onset");
    // Forensics run only on this already-failed path, so the clean path
    // never pays for the scan. Worst accel verdict wins: a NaN burst
    // explains a missing onset better than quiet does.
    ErrorCode code = ErrorCode::OnsetNotFound;
    for (std::size_t a = 0; a < 3; ++a) {
      const ErrorCode axis_code =
          dsp::classify_onset_failure(recording.axes[a], config_.full_scale_lsb);
      if (axis_code == ErrorCode::NonFiniteSample) {
        code = axis_code;
        break;
      }
      if (axis_code == ErrorCode::SensorSaturated) {
        code = axis_code;
      }
    }
    switch (code) {
      case ErrorCode::NonFiniteSample:
        return make_error(code, "non-finite samples poisoned the onset statistics");
      case ErrorCode::SensorSaturated:
        return make_error(code, "accelerometer pinned at full scale — clipped capture");
      default:
        return make_error(ErrorCode::OnsetNotFound,
                          "no vibration onset detected — ask the user to voice 'EMM' again");
    }
  }
  std::size_t start = *onset;
  if (config_.robust_checks) {
    // The refine window and the segment feed median sorts (MAD, peak
    // alignment) that NaN would poison with UB; scan the span both can
    // touch. ~6 x segment_length vectorized checks on the clean path.
    const std::size_t guard_end =
        std::min(n, start + 2 * config_.peak_align_radius + config_.segment_length);
    for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
      const auto& axis = recording.axes[a];
      if (common::all_finite(std::span(axis).subspan(start, guard_end - start))) {
        continue;
      }
      std::size_t i = start;
      while (common::is_finite(axis[i])) {
        ++i;
      }
      MANDIPASS_OBS_COUNT("core.prep.nonfinite_segment");
      return make_error(ErrorCode::NonFiniteSample,
                        "non-finite sample at index " + std::to_string(i) + " of axis " +
                            std::to_string(a) + " inside the vibration segment");
    }
  }
  if (config_.peak_align_radius > 0) {
    start = refine_onset(recording, start);
  }
  if (start + config_.segment_length > n) {
    MANDIPASS_OBS_COUNT("core.prep.onset_truncated");
    return make_error(ErrorCode::SegmentTooShort,
                      "vibration onset too close to the end of the recording (" +
                          std::to_string(start) + " + " + std::to_string(config_.segment_length) +
                          " > " + std::to_string(n) + ")");
  }

  // Stage-major rather than axis-major so each stage is timed once per
  // call instead of once per axis. Axes are independent, so the numbers
  // are identical either way.
  SignalArray out;
  std::array<std::vector<double>, imu::kAxisCount> cleaned;
  {
    // 1+2. segmentation, then MAD outlier detect + two-sided
    // neighbour-mean replacement
    MANDIPASS_OBS_TRACE_SAMPLED(trace_mad, "core.prep.mad_us", 4);
    for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
      std::span<const double> segment(recording.axes[a].data() + start, config_.segment_length);
      cleaned[a] = dsp::mad_clean(segment, config_.mad);
    }
  }
  {
    // 3. high-pass Butterworth (body-motion LFC removal). One filter
    // serves all axes: filter() resets its state per call, so hoisting
    // the coefficient design out of the loop changes nothing numerically.
    MANDIPASS_OBS_TRACE_SAMPLED(trace_filter, "core.prep.filter_us", 4);
    auto hp = dsp::SosFilter::butterworth_highpass4(config_.highpass_hz, recording.sample_rate_hz);
    for (auto& axis : cleaned) {
      axis = hp.filter(axis);
    }
  }
  {
    // 4. min-max normalisation
    MANDIPASS_OBS_TRACE_SAMPLED(trace_norm, "core.prep.normalize_us", 4);
    for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
      out.axes[a] = dsp::minmax_normalize(cleaned[a]);
    }
  }
  if (config_.robust_checks) {
    // Output gate: the filter can only produce non-finite values from
    // non-finite input (caught above), but the gate is cheap and turns
    // any residual numeric blow-up into a typed reject instead of a
    // garbage embedding that still gets matched.
    for (const auto& axis : out.axes) {
      if (!common::all_finite(axis)) {
        MANDIPASS_OBS_COUNT("core.prep.nonfinite_output");
        return make_error(ErrorCode::NonFiniteSample,
                          "non-finite value in the normalised signal array");
      }
    }
  }
  MANDIPASS_OBS_COUNT("core.prep.ok");
  return out;
}

SignalArray Preprocessor::process(const imu::RawRecording& recording) const {
  auto result = try_process(recording);
  if (!result.ok()) {
    common::raise(result.error());  // mandilint: allow(no-throw-in-datapath) -- legacy throwing wrapper; try_process is the typed path
  }
  return result.take();
}

}  // namespace mandipass::core
