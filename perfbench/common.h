#pragma once

// Shared pieces of the perfbench driver: run configuration, the metric
// vocabulary (end-to-end and per-layer), latency percentiles, span
// self-time aggregation, and the per-layer probe of the simulator and
// macro-model that every workload runs on its own programs.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/macro_model.h"
#include "model/test_program.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `work` and returns its wall seconds.
template <typename Work>
double timed(Work&& work) {
  const auto start = Clock::now();
  work();
  return seconds_since(start);
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the Chrome trace file of a traced run.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end set for an
/// untraced run and the per-layer set for a traced one.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;
};

/// The timed loop pauses after every kSegmentSeconds of measurement to time
/// one more set-up, so that setup_s, the median of all set-ups, samples the
/// host over the whole run rather than over its first moments.
inline constexpr double kSegmentSeconds = 2.0;
/// Worker threads of every BatchEstimator the benchmark drives.
inline constexpr unsigned kWorkers = 2;
/// A traced run first measures untraced for kBaselinePhaseSeconds (long
/// enough for a p99 with ten samples beyond it on every workload), then
/// traced for kTracePhaseSeconds (short, so the span rings never wrap).
inline constexpr double kBaselinePhaseSeconds = 5.0;
inline constexpr double kTracePhaseSeconds = 1.0;

/// The macro-model every workload estimates with. Throughput does not depend
/// on the coefficient values; they are distinct so that a variable landing
/// in the wrong slot changes the energy the correctness gates compare.
exten::model::EnergyMacroModel bench_model();

double median(std::vector<double> values);

/// Linear-interpolated `q`-quantile of `values` (0 when empty).
double quantile(std::vector<double> values, double q);

/// VmHWM of this process in MiB.
double peak_rss_mb();

/// One completed latency sample: when it completed (seconds since the
/// measured loop started), how long it took, how many operations it
/// completed, and whether it was served from the evaluation cache.
/// Kept compact: peak_rss_mb includes the sample buffers.
struct OpSample {
  float done_at_s = 0.0f;
  float latency_us = 0.0f;
  std::uint32_t ops = 1;
  bool cache_hit = false;
};

/// Reserves (without touching) room for any run of `seconds`, so the
/// sample buffer never reallocates and its resident size stays in
/// proportion to the samples taken.
void reserve_samples(std::vector<OpSample>& samples, double seconds);

/// Length of the windows the end-to-end rates and medians are taken over.
inline constexpr double kWindowSeconds = 1.0;

/// Samples per chunk of a tail percentile (ten or more lie beyond a p99).
inline constexpr std::size_t kTailSamples = 1000;

/// The median, over consecutive chunks of kTailSamples samples, of each
/// chunk's `q`-quantile latency: one stall of the host moves one chunk's
/// tail, not the reported one.
double chunked_quantile(const std::vector<OpSample>& samples, double q);

/// Appends the end-to-end metric set. The run is cut into whole
/// kWindowSeconds windows; ops_per_s and the p50s are medians over the
/// windows (a stall of the host in one window moves them little), setup_s
/// is the median set-up. With
/// `split_by_hit` false (a workload without a per-operation cache outcome)
/// both split metrics carry the overall p50.
void add_end_to_end(Outcome& out, const std::vector<OpSample>& samples,
                    double wall_s, const std::vector<double>& setup_s,
                    bool split_by_hit);

/// Every per-layer metric, with its unit, preset to 0 ("this workload never
/// calls the layer"). Workloads overwrite the ones they measure.
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  void append_to(Outcome& out) const;

 private:
  std::vector<Metric> metrics_;
};

/// Aggregate of every span sharing one name: calls, summed duration, and
/// summed self time (duration minus the direct children: spans of the same
/// thread and correlation id inside its interval).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;

  double mean_us() const {
    return count == 0 ? 0.0 : total_s * 1e6 / static_cast<double>(count);
  }
};
std::map<std::string, SpanTotals> aggregate_spans(
    const std::vector<exten::obs::Span>& spans);

/// The spans whose correlation id lies in [first_id, last_id].
std::vector<exten::obs::Span> spans_with_ids(
    const std::vector<exten::obs::Span>& spans, std::uint64_t first_id,
    std::uint64_t last_id);

/// Mean duration in microseconds of the spans named `name` (0 when none).
double mean_us(const std::map<std::string, SpanTotals>& spans,
               const std::string& name);

/// Enables the global tracer with rings large enough for one traced phase.
void start_tracing();
/// Snapshots and disables the tracer, writes the Chrome trace file of the
/// run, and notes the span count (and any ring overflow) in `out`.
std::vector<exten::obs::Span> finish_tracing(const RunConfig& config,
                                             Outcome& out);

/// Probes the simulator and macro-model layers on one program at a time
/// under bench spans (sim.setup, sim.run, model.profile_run, model.dot) and
/// sums the instruction and threaded-engine counts; run() with tracing
/// enabled, then report() from the aggregated spans.
class SimProbe {
 public:
  void run(const exten::model::TestProgram& program,
           const exten::model::EnergyMacroModel& model);
  void report(const std::map<std::string, SpanTotals>& spans,
              LayerMetrics& layers) const;

 private:
  std::uint64_t programs_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t threaded_instructions_ = 0;
  std::uint64_t superblocks_ = 0;
  std::uint64_t fused_ = 0;
  std::uint64_t singles_ = 0;
};

// The workloads (one file each).
Outcome run_suite_estimate(const RunConfig& config);
Outcome run_serve_estimate(const RunConfig& config);
Outcome run_dse_beam(const RunConfig& config);

}  // namespace perfbench
