// serve_estimate: the served path. A 1-shard net::ShardedServer in front of
// a 2-worker service::BatchEstimator answers POST /v1/estimate from two
// closed-loop keep-alive loopback clients. Bodies carry inline asm + TIE
// expanded from seed-derived DSE genomes. Half the requests repeat one of
// 64 hot bodies (cache hits after warm-up); the other half are misses: a
// pool body behind a unique `li r0, nonce` (writes r0, so the program's
// results are unchanged but its image, and so its cache key, is new).
// JSON parse, TIE compile, assembly, HTTP and the cache probe do most of
// the work; the ~88-instruction harnesses simulate in microseconds.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common.h"
#include "dse/candidate.h"
#include "model/estimate.h"
#include "net/api.h"
#include "net/http_client.h"
#include "net/sharded_server.h"
#include "service/batch_estimator.h"
#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace exten;

constexpr std::size_t kPoolGenomes = 192;
constexpr std::size_t kHotBodies = 64;
constexpr unsigned kClients = 2;
/// Every kMissSampleEvery-th miss of a client is re-checked against the
/// reference engine after the run.
constexpr std::uint64_t kMissSampleEvery = 32;
/// Phase number of the traced phase (untraced segments count up from 0).
constexpr std::uint64_t kTracedPhase = 64;

struct Source {
  std::string name;
  std::string asm_source;
  std::string tie_source;
};

std::string body_of(const std::string& name, const std::string& asm_source,
                    const std::string& tie_source) {
  JsonWriter w;
  w.begin_object();
  w.field("name", std::string_view(name));
  w.field("asm", std::string_view(asm_source));
  w.field("tie", std::string_view(tie_source));
  w.end_object();
  return w.str();
}

std::string with_nonce(const std::string& asm_source, std::uint64_t nonce) {
  return "  li r0, " + std::to_string(nonce) + "\n" + asm_source;
}

struct Expected {
  double energy_pj = 0.0;
  std::uint64_t cycles = 0;
};

Expected reference_of(const model::EnergyMacroModel& macro_model,
                      const std::string& name, const std::string& asm_source,
                      const std::string& tie_source) {
  const model::TestProgram program =
      model::make_test_program(name, asm_source, tie_source);
  const model::EnergyEstimate e =
      model::estimate_energy(macro_model, program, {}, sim::Cpu::kDefaultBudget,
                             sim::Engine::kReference);
  return {e.energy_pj, e.stats.cycles};
}

/// The request inputs: a pool of candidate sources whose in-process
/// estimate succeeds, the hot bodies, and the hot bodies' expected results.
struct Inputs {
  std::vector<Source> pool;
  std::vector<std::string> hot_bodies;
  std::vector<Expected> hot_expected;
};

Inputs make_inputs(std::uint64_t seed,
                   const model::EnergyMacroModel& macro_model) {
  Inputs in;
  Rng rng(Rng::derive_seed(seed, 10));
  const dse::GenomeOptions options;
  for (std::size_t i = 0; i < kPoolGenomes; ++i) {
    const dse::CandidateSources s =
        dse::expand_candidate(dse::random_genome(rng, options), options);
    try {
      model::estimate_energy(macro_model, dse::make_job(s).program);
    } catch (const Error&) {
      continue;  // faulting candidates are not part of the request mix
    }
    in.pool.push_back({s.name, s.asm_source, s.tie_source});
  }
  EXTEN_CHECK(in.pool.size() >= kHotBodies, "only ", in.pool.size(),
              " usable genomes");
  for (std::size_t i = 0; i < kHotBodies; ++i) {
    const Source& s = in.pool[i];
    in.hot_bodies.push_back(body_of(s.name, s.asm_source, s.tie_source));
    in.hot_expected.push_back(
        reference_of(macro_model, s.name, s.asm_source, s.tie_source));
  }
  return in;
}

/// One booted server with its estimator and event-loop thread.
class Server {
 public:
  explicit Server(const model::EnergyMacroModel& macro_model) {
    service::BatchOptions batch;
    batch.num_threads = kWorkers;
    batch.cache_capacity = 1024;
    estimator_ = std::make_unique<service::BatchEstimator>(macro_model, batch);
    net::ShardedServerOptions options;
    options.shards = 1;
    server_ = std::make_unique<net::ShardedServer>(*estimator_, options);
    loop_ = std::thread([this] { server_->run(); });
  }
  ~Server() {
    server_->request_stop();
    loop_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<service::BatchEstimator> estimator_;
  std::unique_ptr<net::ShardedServer> server_;
  std::thread loop_;
};

/// Boots a server and warms the cache with every hot body.
std::unique_ptr<Server> boot(const model::EnergyMacroModel& macro_model,
                             const Inputs& in) {
  auto server = std::make_unique<Server>(macro_model);
  net::HttpClient client("127.0.0.1", server->port());
  for (const std::string& body : in.hot_bodies) {
    const auto response = client.post("/v1/estimate", body);
    EXTEN_CHECK(response.status == 200, "warm-up request returned ",
                response.status, ": ", response.body);
  }
  return server;
}

/// A miss whose served result is re-checked after the run.
struct MissSample {
  std::size_t pool_index = 0;
  std::uint64_t nonce = 0;
  Expected served;
};

/// Counters of one client (or, summed, of a phase).
struct ClientStats {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<MissSample> samples;
  double queue_s = 0.0;
  double probe_s = 0.0;
  double evaluate_s = 0.0;
  std::uint64_t evaluated = 0;
  double worker_s = 0.0;
  std::uint64_t hits = 0;
};

/// The latency samples of all clients of a phase, in one buffer.
struct SharedSamples {
  std::mutex mu;
  std::vector<OpSample> samples;
};

double number_at(const JsonValue& v, std::string_view key) {
  const JsonValue* member = v.find(key);
  EXTEN_CHECK(member != nullptr, "response lacks \"", key, "\"");
  return member->as_number();
}

/// One closed-loop client: the next request goes out when the previous
/// reply is in. `client_index` selects the client's request schedule.
void client_loop(std::uint16_t port, unsigned client_index,
                 std::uint64_t seed, std::uint64_t phase,
                 Clock::time_point start, double seconds, const Inputs& in,
                 ClientStats& stats, SharedSamples& shared) {
  Rng schedule(Rng::derive_seed(seed, 20 + 8 * phase + client_index));
  net::HttpClient client("127.0.0.1", port);
  // Nonces are unique per client and phase, so every miss is a new image;
  // they stay below 2^31 for phases below kTracedPhase + 1.
  std::uint64_t nonce = (phase * kClients + client_index) << 22;
  std::uint64_t misses = 0;
  while (seconds_since(start) < seconds) {
    const bool hot = schedule.next_below(2) == 0;
    std::size_t index = 0;
    std::string body;
    bool check_miss = false;
    if (hot) {
      index = static_cast<std::size_t>(schedule.next_below(kHotBodies));
    } else {
      index = static_cast<std::size_t>(schedule.next_below(in.pool.size()));
      const Source& s = in.pool[index];
      body = body_of(s.name, with_nonce(s.asm_source, ++nonce), s.tie_source);
      check_miss = misses++ % kMissSampleEvery == 0;
    }
    stats.ops += 1;
    const auto t0 = Clock::now();
    try {
      const auto response =
          client.post("/v1/estimate", hot ? in.hot_bodies[index] : body);
      const auto t1 = Clock::now();
      if (response.status != 200) {
        stats.failed += 1;
        continue;
      }
      const JsonValue v = JsonValue::parse(response.body);
      const JsonValue* ok = v.find("ok");
      if (ok == nullptr || !ok->as_bool()) {
        stats.failed += 1;
        continue;
      }
      const Expected served{number_at(v, "energy_pj"),
                            static_cast<std::uint64_t>(number_at(v, "cycles"))};
      if (hot && (served.energy_pj != in.hot_expected[index].energy_pj ||
                  served.cycles != in.hot_expected[index].cycles)) {
        stats.failed += 1;
        continue;
      }
      if (check_miss) stats.samples.push_back({index, nonce, served});
      const JsonValue* hit = v.find("cache_hit");
      const bool cache_hit = hit != nullptr && hit->as_bool();
      {
        const std::lock_guard<std::mutex> lock(shared.mu);
        shared.samples.push_back(
            {std::chrono::duration<float>(t1 - start).count(),
             std::chrono::duration<float, std::micro>(t1 - t0).count(), 1,
             cache_hit});
      }
      stats.hits += cache_hit ? 1 : 0;
      const JsonValue* stages = v.find("stages");
      EXTEN_CHECK(stages != nullptr, "response lacks \"stages\"");
      stats.queue_s += number_at(*stages, "queue_seconds");
      stats.probe_s += number_at(*stages, "cache_probe_seconds");
      const double evaluate = number_at(*stages, "evaluate_seconds");
      stats.evaluate_s += evaluate;
      stats.evaluated += evaluate > 0.0 ? 1 : 0;
      stats.worker_s += number_at(v, "worker_seconds");
    } catch (const std::exception&) {
      stats.failed += 1;  // transport error or malformed response
    }
  }
}

struct Phase {
  ClientStats total;
  std::vector<OpSample> latency;
  double wall_s = 0.0;

  double ops_per_s() const {
    return wall_s > 0.0
               ? static_cast<double>(total.ops - total.failed) / wall_s
               : 0.0;
  }
};

/// Runs the clients for `seconds` of measurement. With `pause` set, the
/// clients stop after every kSegmentSeconds and `pause` runs off the clock.
/// `phase` numbers the first segment; each segment draws its own request
/// schedule and nonces.
Phase run_phase(std::uint16_t port, std::uint64_t seed, std::uint64_t phase,
                double seconds, const Inputs& in,
                const std::function<void()>& pause = {}) {
  Phase p;
  reserve_samples(p.latency, seconds);
  while (p.wall_s < seconds) {
    if (pause && p.wall_s > 0.0) pause();
    const double length =
        pause ? std::min(kSegmentSeconds, seconds - p.wall_s) : seconds;
    std::vector<ClientStats> per_client(kClients);
    SharedSamples shared;
    reserve_samples(shared.samples, length);
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back(client_loop, port, c, seed, phase, start, length,
                           std::cref(in), std::ref(per_client[c]),
                           std::ref(shared));
    }
    for (std::thread& t : threads) t.join();
    const double offset = p.wall_s;
    p.wall_s += seconds_since(start);
    for (OpSample sample : shared.samples) {
      sample.done_at_s += static_cast<float>(offset);
      p.latency.push_back(sample);
    }
    for (const ClientStats& c : per_client) {
      ClientStats& t = p.total;
      t.ops += c.ops;
      t.failed += c.failed;
      t.samples.insert(t.samples.end(), c.samples.begin(), c.samples.end());
      t.queue_s += c.queue_s;
      t.probe_s += c.probe_s;
      t.evaluate_s += c.evaluate_s;
      t.evaluated += c.evaluated;
      t.worker_s += c.worker_s;
      t.hits += c.hits;
    }
    ++phase;
  }
  return p;
}

/// Re-estimates the sampled misses under the reference engine; returns the
/// number that disagree with what the server answered.
std::uint64_t check_miss_samples(const model::EnergyMacroModel& macro_model,
                                 const Inputs& in,
                                 const std::vector<MissSample>& samples) {
  std::uint64_t wrong = 0;
  for (const MissSample& m : samples) {
    const Source& s = in.pool[m.pool_index];
    const Expected e = reference_of(macro_model, s.name,
                                    with_nonce(s.asm_source, m.nonce),
                                    s.tie_source);
    if (e.energy_pj != m.served.energy_pj || e.cycles != m.served.cycles) {
      ++wrong;
    }
  }
  return wrong;
}

/// Mean seconds per observation of each xtc_stage_duration_seconds stage,
/// from a /metrics exposition.
std::map<std::string, double> stage_means_us(const std::string& exposition) {
  std::map<std::string, double> sums;
  std::map<std::string, double> counts;
  std::istringstream lines(exposition);
  std::string line;
  const std::string prefix = "xtc_stage_duration_seconds_";
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t open = line.find("{stage=\"");
    const std::size_t close = line.find("\"}", open);
    if (open == std::string::npos || close == std::string::npos) continue;
    const std::string kind = line.substr(prefix.size(), open - prefix.size());
    const std::string stage = line.substr(open + 8, close - open - 8);
    const double value = std::stod(line.substr(close + 2));
    if (kind == "sum") sums[stage] = value;
    if (kind == "count") counts[stage] = value;
  }
  std::map<std::string, double> means;
  for (const auto& [stage, sum] : sums) {
    const double count = counts[stage];
    means[stage] = count > 0.0 ? sum / count * 1e6 : 0.0;
  }
  return means;
}

}  // namespace

Outcome run_serve_estimate(const RunConfig& config) {
  const model::EnergyMacroModel macro_model = bench_model();
  Outcome out;
  const Inputs in = make_inputs(config.seed, macro_model);
  out.notes.push_back(std::to_string(in.pool.size()) + " usable of " +
                      std::to_string(kPoolGenomes) + " genomes, " +
                      std::to_string(kHotBodies) + " hot bodies, " +
                      std::to_string(kClients) + " keep-alive clients, " +
                      std::to_string(kWorkers) + " workers, 1 shard");

  std::unique_ptr<Server> server;
  std::vector<double> setup_s{timed([&] { server = boot(macro_model, in); })};

  if (!config.trace) {
    const Phase p =
        run_phase(server->port(), config.seed, 0, config.seconds, in, [&] {
          std::unique_ptr<Server> spare;
          setup_s.push_back(timed([&] { spare = boot(macro_model, in); }));
        });
    server.reset();
    const std::uint64_t wrong =
        check_miss_samples(macro_model, in, p.total.samples);
    out.attempted = p.total.ops;
    out.failed = p.total.failed + wrong;
    add_end_to_end(out, p.latency, p.wall_s, setup_s, true);
    out.notes.push_back(std::to_string(p.total.samples.size()) +
                        " misses re-checked against the reference engine");
    out.correct = out.failed == 0;
    return out;
  }

  const Phase untraced =
      run_phase(server->port(), config.seed, 0, kBaselinePhaseSeconds, in);
  start_tracing();
  const Phase traced =
      run_phase(server->port(), config.seed, kTracedPhase, kTracePhaseSeconds,
                in);
  // Layer probe over the hot bodies and as many misses: the calls the
  // server makes per request, timed one by one.
  SimProbe probe;
  for (std::size_t i = 0; i < 2 * kHotBodies; ++i) {
    const Source& s = in.pool[i % in.pool.size()];
    const std::string asm_source =
        i < kHotBodies ? s.asm_source : with_nonce(s.asm_source, i);
    const std::string body = body_of(s.name, asm_source, s.tie_source);
    const obs::ScopedId id(obs::Tracer::instance().next_id());
    JsonValue parsed;
    {
      obs::ScopedSpan span(obs::Category::kTool, "util.json_parse");
      parsed = JsonValue::parse(body);
    }
    net::api::EstimateRequest request;
    {
      obs::ScopedSpan span(obs::Category::kTool, "net.api_parse");
      request = net::api::parse_estimate_request(parsed);
    }
    {
      obs::ScopedSpan span(obs::Category::kTool, "isa.assemble");
      model::make_test_program(s.name, asm_source, request.job.program.tie);
    }
    probe.run(request.job.program, macro_model);
    service::JobResult result;
    result.name = s.name;
    result.ok = true;
    result.estimate = model::estimate_energy(macro_model, request.job.program);
    {
      obs::ScopedSpan span(obs::Category::kTool, "net.serialize");
      net::api::job_result_body(result, macro_model);
    }
  }
  const std::string exposition =
      net::HttpClient("127.0.0.1", server->port()).get("/metrics").body;
  server.reset();
  const std::vector<obs::Span> all = finish_tracing(config, out);
  const auto spans = aggregate_spans(all);

  LayerMetrics layers;
  probe.report(spans, layers);
  layers.set("util.json_parse_us", mean_us(spans, "util.json_parse"));
  layers.set("net.api_parse_us", mean_us(spans, "net.api_parse"));
  layers.set("tie.compile_us", mean_us(spans, "tie_compile"));
  layers.set("isa.assemble_us", mean_us(spans, "isa.assemble"));
  layers.set("net.serialize_us", mean_us(spans, "net.serialize"));
  for (const auto& [stage, us] : stage_means_us(exposition)) {
    layers.set("net.stage." + stage + "_us", us);
  }
  const ClientStats& t = traced.total;
  const double answered = static_cast<double>(t.ops - t.failed);
  layers.set("service.queue_wait_us", t.queue_s / answered * 1e6);
  layers.set("service.cache_probe_us", t.probe_s / answered * 1e6);
  if (t.evaluated > 0) {
    layers.set("service.evaluate_us",
               t.evaluate_s / static_cast<double>(t.evaluated) * 1e6);
  }
  layers.set("service.cache_hit_ratio", static_cast<double>(t.hits) / answered);
  layers.set("service.cache_lookups", answered);
  layers.set("service.worker_busy_frac",
             t.worker_s / (traced.wall_s * kWorkers));
  layers.set("trace.overhead_frac",
             1.0 - traced.ops_per_s() / untraced.ops_per_s());
  // Blocking path of one request, as the server's own spans cut it: HTTP
  // parse, route (JSON + API parse, TIE compile, assembly), queue wait, the
  // worker's job, respond. The residual is loopback, wake-ups and client.
  double path_s = 0.0;
  for (const char* name : {"http_parse", "route", "queue_wait", "job",
                           "respond"}) {
    if (const auto it = spans.find(name); it != spans.end()) {
      path_s += it->second.total_s;
    }
  }
  double latency_s = 0.0;
  for (const OpSample& op : traced.latency) latency_s += op.latency_us * 1e-6;
  layers.set("trace.residual_frac", 1.0 - path_s / latency_s);
  layers.set("latency_p99_us", chunked_quantile(untraced.latency, 0.99));
  layers.set("latency_samples",
             static_cast<double>(untraced.latency.size()));
  const std::uint64_t wrong =
      check_miss_samples(macro_model, in, untraced.total.samples) +
      check_miss_samples(macro_model, in, t.samples);
  out.attempted = untraced.total.ops + t.ops;
  out.failed = untraced.total.failed + t.failed + wrong;
  layers.set("error_frac", static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted));
  layers.append_to(out);
  out.correct = out.failed == 0;
  return out;
}

}  // namespace perfbench
