// dse_beam: the design-space-exploration path. Back-to-back dse::run_dse
// beam searches (population 32, 2 workers, no checkpoint directory), each
// with its own seed derived from the workload seed. Genome expansion and
// harness assembly run serially on the driver thread and dominate each
// candidate; ~30 % of proposals are dedup hits in the evaluation cache. No
// suite program and no HTTP layer is involved.

#include <cstring>
#include <functional>
#include <memory>

#include "common.h"
#include "dse/candidate.h"
#include "dse/driver.h"
#include "dse/strategy.h"
#include "model/estimate.h"
#include "service/batch_estimator.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace exten;

/// Candidates per search: 16 generations of 32.
constexpr std::uint64_t kBudget = 512;
constexpr std::size_t kPopulation = 32;

dse::DseOptions search_options(std::uint64_t seed, std::uint64_t search,
                               std::uint64_t budget) {
  dse::DseOptions options;
  options.strategy = "beam";
  options.budget = budget;
  options.seed = Rng::derive_seed(seed, 100 + search);
  options.search.population = kPopulation;
  options.batch.num_threads = kWorkers;
  return options;
}

/// Re-expands and re-scores every frontier entry under the reference
/// engine; returns how many disagree with what the search recorded.
std::uint64_t check_frontiers(const model::EnergyMacroModel& macro_model,
                              const std::vector<dse::ScoredGenome>& entries) {
  const dse::GenomeOptions options;
  std::uint64_t wrong = 0;
  for (const dse::ScoredGenome& entry : entries) {
    const dse::CandidateSources sources =
        dse::expand_candidate(entry.genome, options);
    const model::EnergyEstimate e = model::estimate_energy(
        macro_model, dse::make_job(sources).program, {},
        sim::Cpu::kDefaultBudget, sim::Engine::kReference);
    if (sources.name != entry.name ||
        std::memcmp(&e.energy_pj, &entry.energy_pj, sizeof(double)) != 0 ||
        e.stats.cycles != entry.cycles) {
      ++wrong;
    }
  }
  return wrong;
}

struct Loop {
  std::uint64_t searches = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double wall_s = 0.0;
  /// One sample per generation, carrying its candidates.
  std::vector<OpSample> samples;
  std::uint64_t frontier_checked = 0;
  std::uint64_t frontier_wrong = 0;

  double ops_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(evaluations) / wall_s : 0.0;
  }
};

/// Runs whole searches, numbered from `first_search`, until `seconds` of
/// search time pass. Each search's frontier is checked right after it, and
/// `pause` (if set) runs after every kSegmentSeconds, on a stopped clock.
Loop run_loop(const model::EnergyMacroModel& macro_model, std::uint64_t seed,
              std::uint64_t first_search, double seconds,
              const std::function<void()>& pause = {}) {
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
    dse::DseOptions options =
        search_options(seed, first_search + loop.searches, kBudget);
    auto last = Clock::now();
    options.on_generation = [&](const dse::GenerationSummary& summary) {
      const auto now = Clock::now();
      loop.samples.push_back(
          {static_cast<float>(
               std::chrono::duration<double>(now - start).count() - paused_s),
           std::chrono::duration<float, std::micro>(now - last).count(),
           static_cast<std::uint32_t>(summary.proposed), false});
      last = now;
    };
    const dse::DseResult result = dse::run_dse(macro_model, options);
    loop.searches += 1;
    loop.evaluations += result.stats.evaluations;
    loop.infeasible += result.stats.infeasible;
    loop.cache_hits += result.stats.cache_hits;
    loop.cache_misses += result.stats.cache_misses;
    const auto check_start = Clock::now();
    loop.frontier_checked += result.frontier.size();
    loop.frontier_wrong += check_frontiers(macro_model, result.frontier);
    paused_s += seconds_since(check_start);
  }
  loop.wall_s = seconds_since(start) - paused_s;
  return loop;
}

/// What the traced replica of run_dse's generation loop measured.
struct Replica {
  double worker_s = 0.0;
  double queue_s = 0.0;
  double probe_s = 0.0;
  double evaluate_s = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t evaluated = 0;
};

/// Replays one search's generation loop call by call under bench spans:
/// the same strategy, the same Rng::derive_seed(seed, generation + 1)
/// streams, expand_candidate, make_job, and a 2-worker estimator. The
/// frontier merge is skipped (it does not feed back into proposals).
void replay_search(const model::EnergyMacroModel& macro_model,
                   const dse::DseOptions& options, Replica& replica,
                   SimProbe& probe) {
  std::unique_ptr<dse::Strategy> strategy =
      dse::Strategy::create(options.strategy, options.search);
  service::BatchEstimator estimator(macro_model, options.batch);
  std::vector<service::BatchJob> probe_jobs;
  std::uint64_t evaluations = 0;
  for (std::uint64_t generation = 0; evaluations < options.budget;
       ++generation) {
    const obs::ScopedId id(obs::Tracer::instance().next_id());
    obs::ScopedSpan generation_span(obs::Category::kTool, "dse.generation");
    Rng rng(Rng::derive_seed(options.seed, generation + 1));
    std::vector<dse::Genome> proposals;
    {
      obs::ScopedSpan span(obs::Category::kTool, "dse.propose");
      proposals = strategy->propose(
          rng, std::min<std::uint64_t>(options.search.population,
                                       options.budget - evaluations),
          options.genome);
    }
    std::vector<dse::CandidateSources> sources;
    for (const dse::Genome& genome : proposals) {
      obs::ScopedSpan span(obs::Category::kTool, "dse.expand");
      sources.push_back(dse::expand_candidate(genome, options.genome));
    }
    std::vector<service::BatchJob> jobs;
    for (const dse::CandidateSources& s : sources) {
      obs::ScopedSpan span(obs::Category::kTool, "dse.make_job");
      jobs.push_back(dse::make_job(s));
    }
    service::BatchResult batch;
    {
      obs::ScopedSpan span(obs::Category::kTool, "service.estimate");
      batch = estimator.estimate(jobs);
    }
    std::vector<dse::ScoredGenome> scored(proposals.size());
    for (std::size_t i = 0; i < proposals.size(); ++i) {
      const service::JobResult& r = batch.results[i];
      scored[i].genome = proposals[i];
      scored[i].name = sources[i].name;
      replica.jobs += 1;
      replica.worker_s += r.worker_seconds;
      replica.queue_s += r.timings.queue_seconds;
      replica.probe_s += r.timings.cache_probe_seconds;
      if (r.timings.evaluate_seconds > 0.0) {
        replica.evaluate_s += r.timings.evaluate_seconds;
        replica.evaluated += 1;
      }
      if (!r.ok) continue;
      scored[i].energy_pj = r.estimate.energy_pj;
      scored[i].cycles = r.estimate.stats.cycles;
      scored[i].edp = r.estimate.energy_pj * 1e-6 *
                      (static_cast<double>(r.estimate.stats.cycles) * 1e-6);
      scored[i].score = scored[i].edp;
      probe_jobs.push_back(jobs[i]);
    }
    strategy->observe(scored);
    evaluations += proposals.size();
  }
  for (const service::BatchJob& job : probe_jobs) {
    probe.run(job.program, macro_model);
  }
}

}  // namespace

Outcome run_dse_beam(const RunConfig& config) {
  const model::EnergyMacroModel macro_model = bench_model();
  Outcome out;
  out.notes.push_back("beam, population " + std::to_string(kPopulation) +
                      ", " + std::to_string(kBudget) +
                      " candidates per search, " + std::to_string(kWorkers) +
                      " workers");

  // Set-up is a short warm-up search (it builds its own estimator).
  std::uint64_t warm_ups = 0;
  const auto warm_up = [&] {
    return timed([&] {
      dse::run_dse(macro_model, search_options(config.seed,
                                               1'000'000 + warm_ups++,
                                               2 * kPopulation));
    });
  };
  std::vector<double> setup_s{warm_up()};

  if (!config.trace) {
    const Loop loop = run_loop(macro_model, config.seed, 0, config.seconds,
                               [&] { setup_s.push_back(warm_up()); });
    out.attempted = loop.evaluations;
    out.failed = loop.frontier_wrong;
    // A generation has no single cache outcome: no hit/miss split.
    add_end_to_end(out, loop.samples, loop.wall_s, setup_s, false);
    out.notes.push_back(std::to_string(loop.searches) + " searches, " +
                        std::to_string(loop.frontier_checked) +
                        " frontier entries re-scored, " +
                        std::to_string(loop.infeasible) + " infeasible");
    out.correct = out.failed == 0;
    return out;
  }

  const Loop untraced =
      run_loop(macro_model, config.seed, 0, kBaselinePhaseSeconds);
  start_tracing();
  const Loop traced = run_loop(macro_model, config.seed, 0, kTracePhaseSeconds);
  Replica replica;
  SimProbe probe;
  for (std::uint64_t search = 0; search < 3; ++search) {
    replay_search(macro_model, search_options(config.seed, search, kBudget),
                  replica, probe);
  }
  const std::vector<obs::Span> all = finish_tracing(config, out);
  const auto spans = aggregate_spans(all);

  LayerMetrics layers;
  probe.report(spans, layers);
  layers.set("dse.propose_us", mean_us(spans, "dse.propose"));
  layers.set("dse.expand_us", mean_us(spans, "dse.expand"));
  layers.set("dse.make_job_us", mean_us(spans, "dse.make_job"));
  // make_job is make_test_program against the candidate's compiled spec.
  layers.set("isa.assemble_us", mean_us(spans, "dse.make_job"));
  layers.set("tie.compile_us", mean_us(spans, "tie_compile"));
  const double jobs = static_cast<double>(replica.jobs);
  layers.set("service.queue_wait_us", replica.queue_s / jobs * 1e6);
  layers.set("service.cache_probe_us", replica.probe_s / jobs * 1e6);
  if (replica.evaluated > 0) {
    layers.set("service.evaluate_us",
               replica.evaluate_s * 1e6 /
                   static_cast<double>(replica.evaluated));
  }
  const std::uint64_t lookups = untraced.cache_hits + untraced.cache_misses;
  layers.set("service.cache_hit_ratio",
             static_cast<double>(untraced.cache_hits) /
                 static_cast<double>(lookups));
  layers.set("service.cache_lookups", static_cast<double>(lookups));
  const auto generation = spans.find("dse.generation");
  if (generation != spans.end()) {
    const SpanTotals& g = generation->second;
    layers.set("service.worker_busy_frac",
               replica.worker_s / (g.total_s * kWorkers));
    double serial_s = 0.0;
    for (const char* name : {"dse.propose", "dse.expand", "dse.make_job"}) {
      if (const auto it = spans.find(name); it != spans.end()) {
        serial_s += it->second.total_s;
      }
    }
    layers.set("dse.driver_serial_frac", serial_s / g.total_s);
    // The generation's own self time (scoring, observe) is what its timed
    // children do not cover.
    layers.set("trace.residual_frac", g.self_s / g.total_s);
  }
  layers.set("dse.infeasible_ratio",
             static_cast<double>(untraced.infeasible) /
                 static_cast<double>(untraced.evaluations));
  layers.set("trace.overhead_frac",
             1.0 - traced.ops_per_s() / untraced.ops_per_s());
  layers.set("latency_p99_us", chunked_quantile(untraced.samples, 0.99));
  layers.set("latency_samples", static_cast<double>(untraced.samples.size()));
  out.attempted = untraced.evaluations + traced.evaluations;
  out.failed = untraced.frontier_wrong + traced.frontier_wrong;
  layers.set("error_frac", static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted));
  layers.append_to(out);
  out.correct = out.failed == 0;
  return out;
}

}  // namespace perfbench
