// perfbench: the end-to-end benchmark of the estimator's three user paths.
//
//   perfbench --workload suite_estimate|serve_estimate|dse_beam
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Every input is derived from --seed. An untraced run measures for
// --seconds and reports the end-to-end metrics; a traced run reports the
// per-layer metrics (and writes a Chrome trace file into --out-dir). The
// last line of stdout is the JSON result; the exit code is non-zero when
// a correctness check failed or the arguments are invalid.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "common.h"
#include "util/json.h"

namespace {

using namespace perfbench;

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload suite_estimate|serve_estimate|"
               "dse_beam --seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  return 2;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used, 10);
  if (used != text.size() || text[0] == '-') {
    throw std::invalid_argument(flag + " expects a non-negative integer");
  }
  return value;
}

/// Machine-wide CPU time and its stolen part, in clock ticks, from the
/// aggregate line of /proc/stat (zeros where it is unavailable).
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  double value = 0.0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

void print_result(const Outcome& out) {
  for (const std::string& line : out.notes) std::cout << line << "\n";
  for (const Metric& m : out.metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  exten::JsonWriter w;
  w.begin_object();
  w.field("correct", out.correct);
  w.field("attempted", out.attempted);
  w.field("failed", out.failed);
  w.object_field("metrics");
  for (const Metric& m : out.metrics) {
    w.object_field(m.name);
    w.field("value", m.value);
    w.field("unit", std::string_view(m.unit));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << w.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(flag + " needs a value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = parse_u64(flag, value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = static_cast<double>(parse_u64(flag, value));
        if (config.seconds < 1) return usage("--seconds must be at least 1");
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        config.out_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  Outcome (*run)(const RunConfig&) = nullptr;
  if (config.workload == "suite_estimate") {
    run = run_suite_estimate;
  } else if (config.workload == "serve_estimate") {
    run = run_serve_estimate;
  } else if (config.workload == "dse_beam") {
    run = run_dse_beam;
  } else {
    return usage("unknown workload " + config.workload);
  }

  std::cout << "workload " << config.workload << " seed " << config.seed
            << " seconds " << config.seconds << " trace " << config.trace
            << std::endl;
  Outcome out;
  const CpuTicks before = cpu_ticks();
  try {
    out = run(config);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  const CpuTicks after = cpu_ticks();
  if (after.total > before.total) {
    // Time the hypervisor gave to other guests: the main source of noise
    // between runs on a shared host.
    out.notes.push_back("host steal: " +
                        std::to_string(100.0 * (after.steal - before.steal) /
                                       (after.total - before.total)) +
                        " % of this machine's CPU time during the run");
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite\n";
      out.correct = false;
    }
  }
  if (out.attempted == 0) out.correct = false;
  print_result(out);
  return out.correct ? EXIT_SUCCESS : EXIT_FAILURE;
}
