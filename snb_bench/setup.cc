// Workload table, set-up, the refresh day sequence and the host probes.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "datagen/delete_stream.h"
#include "params/parameter_curation.h"
#include "storage/recovery.h"
#include "workload.h"

namespace snb_bench {

namespace {

// As in LDBC SNB, the dataset of a scale factor is fixed; the run's seed
// varies everything drawn on top of it (substitution parameters, stream
// permutations, delete victims, short-read choices). A per-seed dataset
// would add graph-shape variance to every timing.
constexpr uint64_t kDatasetSeed = 42;

// Sizes are chosen so each workload's run, set-up included, stays under a
// minute on a 4-vCPU host while every reported timing is a median over
// samples spread across the whole measuring window (see NOTES.md).
const std::vector<Profile>& Profiles() {
  static const std::vector<Profile> profiles = [] {
    std::vector<Profile> p(2);
    // SF 1 (11 K persons): the largest graph; reads dominate.
    p[0].name = "bi-power";
    p[0].sf = "1";
    p[0].activity = 0.25;
    p[0].bi_steps = 2;
    p[0].refresh_steps = 1;
    // IC 5 (about 20 ms at SF 1, every 57 events) dominates a chunk's time;
    // 1000 events cycle all 16 of its bindings, so chunks weigh alike.
    p[0].mix_chunk = 1000;
    p[0].insert_days = 2;
    p[0].delete_days = 2;
    p[0].recoveries = 2;
    p[0].probe_reps = 3;
    p[0].naive_ic5_bindings = 0;
    // SF 0.1: live + shadow graph fit in L3; refresh dominates.
    p[1].name = "bi-refresh";
    p[1].sf = "0.1";
    p[1].activity = 0.5;
    p[1].bi_steps = 1;
    p[1].refresh_steps = 2;
    p[1].mix_chunk = 1500;
    p[1].insert_days = 6;
    p[1].delete_days = 7;
    p[1].recoveries = 3;
    p[1].probe_reps = 2;
    return p;
  }();
  return profiles;
}

}  // namespace

const Profile* FindProfile(const std::string& name, bool micro) {
  static std::vector<Profile> micro_profiles = [] {
    std::vector<Profile> p = Profiles();
    for (Profile& m : p) {
      m.sf = "0.003";
      m.activity = 0.5;
    }
    return p;
  }();
  for (const Profile& p : micro ? micro_profiles : Profiles()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

Dataset SetUp(const Profile& profile, const Options& options,
              RunRecord& run) {
  Dataset ds;
  std::vector<double> total_s, gen_s, build_s, curate_s, store_s;
  Stopwatch all;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kMinSetupReps || all.S() < kSetupSeconds);
       ++rep) {
    ds = Dataset{};  // free the previous rep before building the next
    ds.sf = *core::FindScaleFactor(profile.sf);
    ds.workers = std::max(1u, std::thread::hardware_concurrency());
    ds.store_dir = options.work_dir + "/store";
    std::filesystem::remove_all(ds.store_dir);

    Stopwatch total;
    Stopwatch step;
    datagen::DatagenConfig dg;
    dg.seed = kDatasetSeed;
    dg.num_persons = ds.sf.num_persons;
    dg.activity_scale = profile.activity;
    datagen::GeneratedData data = datagen::Generate(dg);
    ds.network = std::move(data.network);
    ds.updates = std::move(data.updates);
    gen_s.push_back(step.S());

    step = Stopwatch();
    ds.graph = std::make_unique<snb::storage::Graph>(CopyNetwork(ds.network));
    build_s.push_back(step.S());

    step = Stopwatch();
    snb::params::CurationConfig pc;
    pc.seed = options.seed;
    pc.per_query = kCuratedBindings;
    ds.params = snb::params::CurateParameters(*ds.graph, pc);
    curate_s.push_back(step.S());

    step = Stopwatch();
    ds.first_update_day =
        ds.updates.empty() ? 0
                           : core::DateFromDateTime(ds.updates.front().timestamp);
    snb::util::Status st =
        snb::storage::InitStore(ds.store_dir, ds.network, ds.first_update_day - 1);
    run.Check(st.ok(), "InitStore: " + st.ToString());
    store_s.push_back(step.S());
    total_s.push_back(total.S());
    std::fprintf(stderr, "[setup] rep %d: %.3f s\n", rep + 1, total_s.back());
  }
  run.Set("setup_s", Median(total_s), "s");
  run.Set("datagen.generate_s", Median(gen_s), "s");
  run.Set("storage.build_s", Median(build_s), "s");
  run.Set("params.curate_s", Median(curate_s), "s");
  run.Set("storage.init_store_s", Median(store_s), "s");

  const auto mem = ds.graph->Memory();
  run.Set("storage.graph_mb",
          static_cast<double>(mem.total_bytes()) / (1024.0 * 1024.0), "MiB");
  run.Set("storage.bytes_per_edge", mem.BytesPerEdge(), "B");
  run.Count("storage.memory_bytes", static_cast<double>(mem.total_bytes()));
  run.Count("storage.edges", static_cast<double>(mem.num_edges));
  run.Count("datagen.persons", static_cast<double>(ds.network.persons.size()));
  run.Count("datagen.updates", static_cast<double>(ds.updates.size()));
  return ds;
}

std::vector<Day> BuildDays(const Dataset& ds, const Profile& profile,
                           uint64_t seed) {
  std::vector<Day> days;
  auto group = [&days](const std::vector<datagen::UpdateEvent>& events,
                       bool is_delete, int max_days) {
    int taken = 0;
    for (const datagen::UpdateEvent& e : events) {
      core::Date d = core::DateFromDateTime(e.timestamp);
      if (days.empty() || days.back().day != d ||
          days.back().is_delete != is_delete) {
        if (taken == max_days) break;
        days.push_back(Day{d, is_delete, {}});
        ++taken;
      }
      days.back().events.push_back(e);
    }
  };
  group(ds.updates, false, profile.insert_days);

  datagen::DeleteStreamOptions del;
  del.seed = seed;
  del.days = profile.delete_days;
  std::vector<datagen::UpdateEvent> deletes =
      datagen::DeriveDeleteStream(ds.network, del);
  if (!deletes.empty() && !days.empty()) {
    core::DateTime offset = days.back().events.back().timestamp +
                            core::kMillisPerDay - deletes.front().timestamp;
    if (offset > 0) {
      for (datagen::UpdateEvent& e : deletes) e.timestamp += offset;
    }
  }
  group(deletes, true, profile.delete_days);
  return days;
}

double SpinMedianMs(int reps) {
  std::vector<double> ms;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    ms.push_back(sw.Ms());
  }
  // Keeps the loop from being optimised away.
  if (x == 0) std::fprintf(stderr, "spin: degenerate state\n");
  return Median(ms);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace snb_bench
