#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "model/profiler.h"
#include "obs/export.h"
#include "sim/cpu.h"
#include "sim/stats.h"

namespace perfbench {

using namespace exten;

model::EnergyMacroModel bench_model() {
  linalg::Vector coefficients(model::kNumVariables, 0.0);
  for (std::size_t i = 0; i < model::kNumVariables; ++i) {
    coefficients[i] = 10.0 + 7.0 * static_cast<double>(i);
  }
  return model::EnergyMacroModel(std::move(coefficients));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double chunked_quantile(const std::vector<OpSample>& samples, double q) {
  const std::size_t chunks =
      std::max<std::size_t>(1, samples.size() / kTailSamples);
  std::vector<double> tails;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> chunk;
    for (std::size_t i = c * samples.size() / chunks;
         i < (c + 1) * samples.size() / chunks; ++i) {
      chunk.push_back(samples[i].latency_us);
    }
    tails.push_back(quantile(std::move(chunk), q));
  }
  return median(tails);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void reserve_samples(std::vector<OpSample>& samples, double seconds) {
  samples.reserve(static_cast<std::size_t>(seconds * 50'000.0));
}

void add_end_to_end(Outcome& out, const std::vector<OpSample>& samples,
                    double wall_s, const std::vector<double>& setup_s,
                    bool split_by_hit) {
  // Read before the aggregation below allocates its copies of the samples.
  const double rss_mb = peak_rss_mb();
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(wall_s / kWindowSeconds));
  const double window_s = wall_s / static_cast<double>(windows);
  std::vector<double> ops(windows, 0.0);
  std::vector<std::vector<double>> all(windows), hits(windows), misses(windows);
  for (const OpSample& s : samples) {
    const std::size_t w =
        std::min(windows - 1, static_cast<std::size_t>(s.done_at_s / window_s));
    ops[w] += static_cast<double>(s.ops);
    all[w].push_back(s.latency_us);
    (s.cache_hit ? hits : misses)[w].push_back(s.latency_us);
  }
  std::vector<double> rates, p50s, hit_p50s, miss_p50s;
  for (std::size_t w = 0; w < windows; ++w) {
    rates.push_back(ops[w] / window_s);
    if (!all[w].empty()) p50s.push_back(quantile(all[w], 0.5));
    if (!hits[w].empty()) hit_p50s.push_back(quantile(hits[w], 0.5));
    if (!misses[w].empty()) miss_p50s.push_back(quantile(misses[w], 0.5));
  }
  const double p50 = median(p50s);
  out.metrics.push_back({"ops_per_s", median(rates), "1/s"});
  out.metrics.push_back({"latency_p50_us", p50, "us"});
  out.metrics.push_back(
      {"hit_latency_p50_us", split_by_hit ? median(hit_p50s) : p50, "us"});
  out.metrics.push_back(
      {"miss_latency_p50_us", split_by_hit ? median(miss_p50s) : p50, "us"});
  out.metrics.push_back({"setup_s", median(setup_s), "s"});
  out.metrics.push_back({"peak_rss_mb", rss_mb, "MiB"});
  std::string note = "latency samples: " + std::to_string(samples.size()) +
                     " over " + std::to_string(windows) + " windows of " +
                     std::to_string(window_s) + " s";
  if (split_by_hit) {
    std::size_t hit_count = 0;
    for (const OpSample& s : samples) hit_count += s.cache_hit ? 1 : 0;
    note += "; " + std::to_string(hit_count) + " hits, " +
            std::to_string(samples.size() - hit_count) + " misses";
  }
  out.notes.push_back(note);
  out.notes.push_back("setup_s: median of " + std::to_string(setup_s.size()) +
                      " set-ups");
}

LayerMetrics::LayerMetrics() {
  static const char* const kUs[] = {
      "sim.setup_us",           "sim.run_us",
      "model.profile_us",       "model.dot_us",
      "util.json_parse_us",     "tie.compile_us",
      "isa.assemble_us",        "net.api_parse_us",
      "net.serialize_us",       "net.stage.parse_us",
      "net.stage.route_us",     "net.stage.queue_wait_us",
      "net.stage.cache_probe_us", "net.stage.evaluate_us",
      "net.stage.respond_us",   "service.queue_wait_us",
      "service.cache_probe_us", "service.evaluate_us",
      "dse.propose_us",         "dse.expand_us",
      "dse.make_job_us"};
  for (const char* name : kUs) metrics_.push_back({name, 0.0, "us"});
  metrics_.push_back({"sim.mips", 0.0, "MIPS"});
  metrics_.push_back({"sim.instructions", 0.0, "count"});
  metrics_.push_back({"sim.threaded.superblocks_per_kinstr", 0.0, "1/kinstr"});
  metrics_.push_back({"sim.threaded.fused_per_kinstr", 0.0, "1/kinstr"});
  metrics_.push_back({"sim.threaded.singles_per_kinstr", 0.0, "1/kinstr"});
  metrics_.push_back({"service.cache_hit_ratio", 0.0, "ratio"});
  metrics_.push_back({"service.cache_lookups", 0.0, "count"});
  metrics_.push_back({"service.worker_busy_frac", 0.0, "ratio"});
  metrics_.push_back({"dse.driver_serial_frac", 0.0, "ratio"});
  metrics_.push_back({"dse.infeasible_ratio", 0.0, "ratio"});
  metrics_.push_back({"trace.overhead_frac", 0.0, "ratio"});
  metrics_.push_back({"trace.residual_frac", 0.0, "ratio"});
  metrics_.push_back({"latency_p99_us", 0.0, "us"});
  metrics_.push_back({"latency_samples", 0.0, "count"});
  metrics_.push_back({"error_frac", 0.0, "ratio"});
}

void LayerMetrics::set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void LayerMetrics::append_to(Outcome& out) const {
  out.metrics.insert(out.metrics.end(), metrics_.begin(), metrics_.end());
}

std::map<std::string, SpanTotals> aggregate_spans(
    const std::vector<obs::Span>& spans) {
  // Per thread and correlation id, in start order, a stack of open
  // ancestors: a span is the direct child of the innermost open span that
  // contains it. Spans of other operations never nest, even when one
  // emitted after the fact (a worker's queue_wait) spans the previous job.
  std::map<std::pair<std::uint32_t, std::uint64_t>,
           std::vector<const obs::Span*>>
      groups;
  for (const obs::Span& s : spans) groups[{s.thread, s.id}].push_back(&s);

  std::map<std::string, SpanTotals> totals;
  for (auto& [key, list] : groups) {
    std::stable_sort(list.begin(), list.end(),
                     [](const obs::Span* a, const obs::Span* b) {
                       if (a->start_ns != b->start_ns) {
                         return a->start_ns < b->start_ns;
                       }
                       return a->depth < b->depth;
                     });
    std::vector<std::uint64_t> child_ns(list.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const obs::Span& s = *list[i];
      while (!open.empty()) {
        const obs::Span& top = *list[open.back()];
        if (top.start_ns <= s.start_ns && s.end_ns() <= top.end_ns()) break;
        open.pop_back();
      }
      if (!open.empty()) child_ns[open.back()] += s.dur_ns;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      const obs::Span& s = *list[i];
      SpanTotals& t = totals[s.name];
      t.count += 1;
      t.total_s += s.dur_seconds();
      const std::uint64_t self_ns =
          s.dur_ns > child_ns[i] ? s.dur_ns - child_ns[i] : 0;
      t.self_s += static_cast<double>(self_ns) * 1e-9;
    }
  }
  return totals;
}

std::vector<obs::Span> spans_with_ids(const std::vector<obs::Span>& spans,
                                      std::uint64_t first_id,
                                      std::uint64_t last_id) {
  std::vector<obs::Span> out;
  for (const obs::Span& s : spans) {
    if (s.id >= first_id && s.id <= last_id) out.push_back(s);
  }
  return out;
}

double mean_us(const std::map<std::string, SpanTotals>& spans,
               const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.mean_us();
}

void start_tracing() {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_thread_capacity(std::size_t{1} << 18);
  tracer.clear();
  tracer.set_enabled(true);
}

std::vector<obs::Span> finish_tracing(const RunConfig& config, Outcome& out) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  std::vector<obs::Span> spans = tracer.snapshot();
  const std::string path = config.out_dir + "/trace_" + config.workload +
                           "_" + std::to_string(config.seed) + ".json";
  std::ofstream file(path, std::ios::binary);
  file << obs::chrome_trace_json(spans);
  out.notes.push_back("trace: " + std::to_string(spans.size()) +
                      " spans written to " + path + " (" +
                      std::to_string(tracer.dropped_spans()) + " dropped)");
  return spans;
}

namespace {

/// Ignores every record; the threaded engine may skip building them.
struct DiscardSink {
  static constexpr bool kDiscardsRecords = true;
  void on_run_begin() {}
  void on_retire(const sim::RetiredInstruction&) {}
  void on_run_end(std::uint64_t, std::uint64_t) {}
};

/// The profiler + stats sink model::estimate_energy runs (same observers,
/// statically dispatched).
struct ProfileSink {
  model::MacroModelProfiler& profiler;
  sim::StatsCollector& stats;

  void on_run_begin() {
    profiler.on_run_begin();
    stats.on_run_begin();
  }
  void on_retire(const sim::RetiredInstruction& r) {
    profiler.on_retire(r);
    stats.on_retire(r);
  }
  void on_run_end(std::uint64_t instructions, std::uint64_t cycles) {
    profiler.on_run_end(instructions, cycles);
    stats.on_run_end(instructions, cycles);
  }
};

volatile double g_sink_energy = 0.0;

}  // namespace

void SimProbe::run(const model::TestProgram& program,
                   const model::EnergyMacroModel& model) {
  const sim::ProcessorConfig processor{};
  const tie::TieConfiguration& tie = *program.tie;
  {
    std::optional<sim::Cpu> cpu;
    {
      obs::ScopedSpan span(obs::Category::kTool, "sim.setup");
      cpu.emplace(processor, tie);
      cpu->load_program(program.image);
    }
    DiscardSink sink;
    sim::RunResult result;
    {
      obs::ScopedSpan span(obs::Category::kTool, "sim.run");
      result = cpu->run_with_sink(sink);
    }
    instructions_ += result.instructions;
  }
  model::MacroModelProfiler profiler(tie);
  {
    sim::Cpu cpu(processor, tie);
    cpu.load_program(program.image);
    sim::StatsCollector stats;
    ProfileSink sink{profiler, stats};
    obs::ScopedSpan span(obs::Category::kTool, "model.profile_run");
    cpu.run_with_sink(sink);
  }
  {
    obs::ScopedSpan span(obs::Category::kTool, "model.dot");
    g_sink_energy = model.estimate_pj(profiler.variables());
  }
  {
    sim::Cpu cpu(processor, tie, sim::Engine::kThreaded);
    cpu.load_program(program.image);
    DiscardSink sink;
    cpu.run_with_sink(sink);
    const sim::ThreadedCounters& c = cpu.threaded_counters();
    threaded_instructions_ += c.instructions;
    superblocks_ += c.superblocks;
    fused_ += c.fused;
    singles_ += c.singles;
  }
  programs_ += 1;
}

void SimProbe::report(const std::map<std::string, SpanTotals>& spans,
                      LayerMetrics& layers) const {
  const double run_us = mean_us(spans, "sim.run");
  layers.set("sim.setup_us", mean_us(spans, "sim.setup"));
  layers.set("sim.run_us", run_us);
  layers.set("model.profile_us", mean_us(spans, "model.profile_run") - run_us);
  layers.set("model.dot_us", mean_us(spans, "model.dot"));
  if (programs_ == 0) return;
  const auto run = spans.find("sim.run");
  if (run != spans.end() && run->second.total_s > 0.0) {
    layers.set("sim.mips", static_cast<double>(instructions_) /
                               run->second.total_s * 1e-6);
  }
  layers.set("sim.instructions", static_cast<double>(instructions_) /
                                     static_cast<double>(programs_));
  if (threaded_instructions_ > 0) {
    const double kinstr = static_cast<double>(threaded_instructions_) / 1e3;
    layers.set("sim.threaded.superblocks_per_kinstr",
               static_cast<double>(superblocks_) / kinstr);
    layers.set("sim.threaded.fused_per_kinstr",
               static_cast<double>(fused_) / kinstr);
    layers.set("sim.threaded.singles_per_kinstr",
               static_cast<double>(singles_) / kinstr);
  }
}

}  // namespace perfbench
