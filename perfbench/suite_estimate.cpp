// suite_estimate: the in-process estimation path. A 2-worker
// service::BatchEstimator with its cache disabled estimates the Table II
// applications, the extra DSP/crypto kernels and the Reed-Solomon variants
// in repeated batches (closed loop: the next batch is submitted when the
// previous one returns). Simulation and profiling do nearly all the work;
// no front end, HTTP or DSE code runs per operation.

#include <cstring>
#include <functional>
#include <memory>

#include "common.h"
#include "service/batch_estimator.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

using namespace exten;

std::vector<model::TestProgram> build_programs(std::uint64_t seed) {
  std::vector<model::TestProgram> programs =
      workloads::application_suite(Rng::derive_seed(seed, 1));
  for (model::TestProgram& p :
       workloads::extras_suite(Rng::derive_seed(seed, 2))) {
    programs.push_back(std::move(p));
  }
  for (model::TestProgram& p :
       workloads::reed_solomon_variants(Rng::derive_seed(seed, 3))) {
    programs.push_back(std::move(p));
  }
  return programs;
}

struct Setup {
  std::vector<model::TestProgram> programs;
  std::vector<service::BatchJob> jobs;
  std::unique_ptr<service::BatchEstimator> estimator;
};

void set_up(Setup& s, std::uint64_t seed,
            const model::EnergyMacroModel& macro_model) {
  s.estimator.reset();
  s.programs = build_programs(seed);
  service::BatchOptions options;
  options.num_threads = kWorkers;
  options.cache_capacity = 0;
  s.estimator = std::make_unique<service::BatchEstimator>(macro_model, options);
  s.jobs.clear();
  for (const model::TestProgram& p : s.programs) {
    service::BatchJob job;
    job.name = p.name;
    job.program = p;
    s.jobs.push_back(std::move(job));
  }
  s.estimator->estimate(s.jobs);  // warm-up
}

/// Bit-identical energy, all 21 variables, and cycles.
bool same_estimate(const model::EnergyEstimate& a,
                   const model::EnergyEstimate& b) {
  return std::memcmp(&a.energy_pj, &b.energy_pj, sizeof(double)) == 0 &&
         std::memcmp(a.variables.values.data(), b.variables.values.data(),
                     sizeof(a.variables.values)) == 0 &&
         a.stats.cycles == b.stats.cycles;
}

struct Loop {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::vector<OpSample> samples;
  double queue_s = 0.0;
  double probe_s = 0.0;
  double evaluate_s = 0.0;
  double worker_s = 0.0;

  double ops_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(ops) / wall_s : 0.0;
  }
};

/// Estimates batches until `seconds` of measurement pass, calling `pause`
/// (if set) on a stopped clock after every kSegmentSeconds.
Loop run_loop(Setup& s, const std::vector<model::EnergyEstimate>& reference,
              double seconds, const std::function<void()>& pause = {}) {
  Loop loop;
  reserve_samples(loop.samples, seconds);
  const auto start = Clock::now();
  double paused_s = 0.0;
  double next_pause_s = kSegmentSeconds;
  while (seconds_since(start) - paused_s < seconds) {
    if (pause && seconds_since(start) - paused_s >= next_pause_s) {
      paused_s += timed(pause);
      next_pause_s += kSegmentSeconds;
    }
    if (obs::Tracer::enabled()) {
      for (service::BatchJob& job : s.jobs) {
        job.trace_id = obs::Tracer::instance().next_id();
      }
    }
    const service::BatchResult batch = s.estimator->estimate(s.jobs);
    const double done_at = seconds_since(start) - paused_s;
    for (std::size_t i = 0; i < batch.results.size(); ++i) {
      const service::JobResult& r = batch.results[i];
      loop.ops += 1;
      if (!r.ok || !same_estimate(r.estimate, reference[i])) loop.failed += 1;
      const service::JobTimings& t = r.timings;
      loop.samples.push_back(
          {static_cast<float>(done_at),
           static_cast<float>((t.queue_seconds + r.worker_seconds) * 1e6), 1,
           false});
      loop.queue_s += t.queue_seconds;
      loop.probe_s += t.cache_probe_seconds;
      loop.evaluate_s += t.evaluate_seconds;
      loop.worker_s += r.worker_seconds;
    }
  }
  loop.wall_s = seconds_since(start) - paused_s;
  return loop;
}

}  // namespace

Outcome run_suite_estimate(const RunConfig& config) {
  const model::EnergyMacroModel macro_model = bench_model();
  Outcome out;

  Setup s;
  std::vector<double> setup_s{
      timed([&] { set_up(s, config.seed, macro_model); })};
  // The correctness oracle: every result must equal the reference engine's.
  std::vector<model::EnergyEstimate> reference;
  for (const model::TestProgram& p : s.programs) {
    reference.push_back(model::estimate_energy(
        macro_model, p, {}, sim::Cpu::kDefaultBudget, sim::Engine::kReference));
  }
  out.notes.push_back(std::to_string(s.programs.size()) +
                      " programs per batch, " + std::to_string(kWorkers) +
                      " workers, cache disabled");

  if (!config.trace) {
    const Loop loop = run_loop(s, reference, config.seconds, [&] {
      Setup spare;
      setup_s.push_back(
          timed([&] { set_up(spare, config.seed, macro_model); }));
    });
    out.attempted = loop.ops;
    out.failed = loop.failed;
    // The cache is disabled, so there is no hit/miss split.
    add_end_to_end(out, loop.samples, loop.wall_s, setup_s, false);
    out.correct = loop.failed == 0;
    return out;
  }

  const Loop untraced = run_loop(s, reference, kBaselinePhaseSeconds);
  start_tracing();
  {
    // Program build is set-up work on this path: TIE compile (in-program
    // tie_compile spans) nests under the build span; the rest of the build
    // is data generation plus assembly.
    obs::ScopedSpan span(obs::Category::kTool, "suite.build");
    build_programs(config.seed);
  }
  const std::uint64_t first_id = obs::Tracer::instance().next_id();
  const Loop traced = run_loop(s, reference, kTracePhaseSeconds);
  const std::uint64_t last_id = obs::Tracer::instance().next_id();
  SimProbe probe;
  for (int pass = 0; pass < 3; ++pass) {
    for (const model::TestProgram& p : s.programs) {
      const obs::ScopedId id(obs::Tracer::instance().next_id());
      probe.run(p, macro_model);
    }
  }
  const std::vector<obs::Span> all = finish_tracing(config, out);
  const auto spans = aggregate_spans(all);
  const auto path = aggregate_spans(spans_with_ids(all, first_id, last_id));

  LayerMetrics layers;
  probe.report(spans, layers);
  layers.set("tie.compile_us", mean_us(spans, "tie_compile"));
  if (const auto it = spans.find("suite.build"); it != spans.end()) {
    layers.set("isa.assemble_us", it->second.self_s * 1e6 /
                                      static_cast<double>(s.programs.size()));
  }
  const double n = static_cast<double>(traced.ops);
  layers.set("service.queue_wait_us", traced.queue_s / n * 1e6);
  layers.set("service.cache_probe_us", traced.probe_s / n * 1e6);
  layers.set("service.evaluate_us", traced.evaluate_s / n * 1e6);
  const service::CacheStats cache = s.estimator->cache_stats();
  layers.set("service.cache_lookups",
             static_cast<double>(cache.hits + cache.misses));
  layers.set("service.worker_busy_frac",
             traced.worker_s / (traced.wall_s * kWorkers));
  layers.set("trace.overhead_frac",
             1.0 - traced.ops_per_s() / untraced.ops_per_s());
  // Blocking path of one estimate: queue wait, then the worker's job span
  // (whose self times - cache probe, evaluate, predecode, run, TIE execute -
  // sum to its duration). The residual is the latency outside them.
  double path_s = 0.0;
  for (const char* name : {"queue_wait", "job", "cache_probe", "evaluate",
                           "predecode", "run_fast", "run_threaded",
                           "run_reference", "tie_execute"}) {
    if (const auto it = path.find(name); it != path.end()) {
      path_s += it->second.self_s;
    }
  }
  double latency_s = 0.0;
  for (const OpSample& op : traced.samples) latency_s += op.latency_us * 1e-6;
  layers.set("trace.residual_frac", 1.0 - path_s / latency_s);
  layers.set("latency_p99_us", chunked_quantile(untraced.samples, 0.99));
  layers.set("latency_samples", static_cast<double>(untraced.samples.size()));
  out.attempted = untraced.ops + traced.ops;
  out.failed = untraced.failed + traced.failed;
  layers.set("error_frac", static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted));
  layers.append_to(out);
  out.correct = out.failed == 0;
  return out;
}

}  // namespace perfbench
