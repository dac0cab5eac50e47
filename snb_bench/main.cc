// snb_bench: the repository's benchmark harness.
//
//   snb_bench --workload <bi-power|bi-refresh> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--report <file.json>] [--micro] [--plant-mismatch]
//
// Generates the workload's fixed dataset and sets it up several times
// (parameters curated from --seed), runs the three phases (workload.h) in
// interleaved rounds for --seconds, checks every output and prints, as the
// last line of stdout, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones (the
// traced run adds the layer probes). The full record, deterministic
// counters included, goes to --report.
//
// --micro runs every workload at SF 0.003 (the self-test scale);
// --plant-mismatch corrupts one reference fingerprint so the self-test can
// prove a wrong answer is counted as a failed operation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>

#include "harness.h"
#include "workload.h"

namespace snb_bench {
namespace {

const std::set<std::string>& EndToEndNames() {
  static const std::set<std::string> names = {
      "setup_s",          "peak_rss_mb",           "power_ms",
      "power_geomean_ms", "throughput_qps",        "refresh_insert_day_ms",
      "refresh_delete_day_ms", "snapshot_read_ms", "recover_ms",
      "mix_ops_per_s",    "ic_p50_ms",             "iu_p50_us"};
  return names;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "snb_bench: %s\nusage: snb_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--report <file>] [--micro] [--plant-mismatch]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--report") {
      o.report_path = value();
    } else if (arg == "--micro") {
      o.micro = true;
    } else if (arg == "--plant-mismatch") {
      o.plant_mismatch = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const RunRecord& run, bool end_to_end) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : run.metrics) {
    if ((EndToEndNames().count(name) != 0) != end_to_end) continue;
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

void WriteReport(const Options& o, const RunRecord& run) {
  if (o.report_path.empty()) return;
  std::filesystem::path p(o.report_path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::FILE* f = std::fopen(o.report_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "snb_bench: cannot write %s\n", o.report_path.c_str());
    return;
  }
  std::string counters = "{";
  for (const auto& [name, v] : run.counters) {
    if (counters.size() > 1) counters += ", ";
    counters += Quote(name) + ": " + Num(v);
  }
  counters += "}";
  std::string failures = "[";
  for (const std::string& s : run.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += Quote(s);
  }
  failures += "]";
  std::fprintf(f,
               "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
               "\"trace\": %d, \"attempted\": %llu, \"failed\": %llu,\n"
               " \"end_to_end\": %s,\n \"per_layer\": %s,\n \"counters\": %s,\n"
               " \"failures\": %s}\n",
               Quote(o.workload).c_str(),
               static_cast<unsigned long long>(o.seed), Num(o.seconds).c_str(),
               o.trace ? 1 : 0, static_cast<unsigned long long>(run.attempted),
               static_cast<unsigned long long>(run.failed),
               MetricsJson(run, true).c_str(), MetricsJson(run, false).c_str(),
               counters.c_str(), failures.c_str());
  std::fclose(f);
}

// Runs rounds of every phase until --seconds have passed and every phase
// has the samples it needs. Within a round the phases' steps alternate, so
// a slow host phase lands on samples of every metric alike.
//
// peak_rss_mb is read once the first rounds have given every phase its
// fewest samples: the same work precedes that point in every run. Each
// further round fragments the heap a little more (the mix graph grows in
// place between the refresh phase's large transient allocations), so the
// process's final peak would depend on how many rounds the window held.
void RunRounds(const Dataset& ds, const Profile& profile,
               const Options& options, RunRecord& run) {
  struct Scheduled {
    std::unique_ptr<PhaseRunner> phase;
    int steps;  // per round
  };
  Scheduled phases[] = {
      {StartBiPhase(ds, options, run), profile.bi_steps},
      {StartRefreshPhase(ds, profile, options, run), profile.refresh_steps},
      {StartMixPhase(ds, profile, options, run), 1}};
  int max_steps = 0;
  for (const Scheduled& p : phases) max_steps = std::max(max_steps, p.steps);
  auto enough = [&phases] {
    for (const Scheduled& p : phases) {
      if (!p.phase->Enough()) return false;
    }
    return true;
  };

  Stopwatch window;
  int rounds = 0;
  bool peak_read = false;
  while (window.S() < options.seconds || !enough()) {
    for (int i = 0; i < max_steps; ++i) {
      for (Scheduled& p : phases) {
        if (i < p.steps) p.phase->Step();
      }
    }
    ++rounds;
    if (!peak_read && enough()) {
      run.Set("peak_rss_mb", PeakRssMb(), "MiB");
      peak_read = true;
    }
  }
  std::fprintf(stderr, "[rounds] %d rounds in %.1f s\n", rounds, window.S());
  for (Scheduled& p : phases) p.phase->Finish();
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const Profile* profile = FindProfile(options.workload, options.micro);
  if (profile == nullptr) Usage(("unknown workload " + options.workload).c_str());

  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  RunRecord run;
  const double spin_before = SpinMedianMs(11);
  Dataset ds = SetUp(*profile, options, run);
  RunRounds(ds, *profile, options, run);
  if (options.trace) TraceStorage(ds, *profile, options, run);
  const double spin_after = SpinMedianMs(11);

  run.Set("host.spin_ms", (spin_before + spin_after) / 2, "ms");
  std::fprintf(stderr, "[host] spin %.2f ms before, %.2f ms after\n",
               spin_before, spin_after);
  for (const std::string& f : run.failures) {
    std::fprintf(stderr, "[fail] %s\n", f.c_str());
  }
  for (const auto& [name, m] : run.metrics) {
    if (EndToEndNames().count(name) != 0) {
      std::fprintf(stderr, "[e2e] %-24s %14.4f %s\n", name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  WriteReport(options, run);
  std::filesystem::remove_all(options.work_dir);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              run.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              MetricsJson(run, !options.trace).c_str());
  return 0;
}

}  // namespace
}  // namespace snb_bench

int main(int argc, char** argv) { return snb_bench::Main(argc, argv); }
