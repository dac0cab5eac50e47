// Storage-layer probes for the traced run. Refresh composes a WAL commit, an
// export of the live graph, a rebuild, the event apply and (on DEL days) a
// compaction; each is timed here on a private copy through the same public
// calls, so a change to one shows which step of refresh_*_day_ms it moved.

#include <filesystem>

#include "interactive/updates.h"
#include "storage/export.h"
#include "storage/wal.h"
#include "workload.h"

namespace snb_bench {

void TraceStorage(const Dataset& ds, const Profile& profile,
                  const Options& options, RunRecord& run) {
  const std::vector<Day> days = BuildDays(ds, profile, options.seed);

  std::vector<double> export_s;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    core::SocialNetwork net = snb::storage::ExportNetwork(*ds.graph);
    export_s.push_back(sw.S());
  }
  run.Set("storage.export_s", Median(export_s), "s");

  // Apply every day's events in order to one copy, then compact it.
  snb::storage::Graph copy(CopyNetwork(ds.network));
  size_t applied = 0;
  double apply_us = 0;
  for (const Day& day : days) {
    for (const datagen::UpdateEvent& e : day.events) {
      Stopwatch sw;
      snb::util::Status st = snb::interactive::ApplyUpdate(copy, e);
      apply_us += sw.Us();
      ++applied;
      run.Check(st.ok(), "ApplyUpdate on copy: " + st.ToString());
    }
  }
  run.Set("storage.apply_us_per_event",
          applied == 0 ? 0 : apply_us / static_cast<double>(applied), "us");
  std::vector<double> compact_ms;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    snb::storage::Graph compacted(snb::storage::ExportNetwork(copy),
                                  copy.CompactionEpoch() + 1);
    compact_ms.push_back(sw.Ms());
  }
  run.Set("storage.compact_ms", Median(compact_ms), "ms");

  // One WAL batch per day, committed with fsync.
  const std::string dir = options.work_dir + "/wal-trace";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  snb::storage::Wal wal;
  run.Check(wal.Open(snb::storage::WalPath(dir)).ok(), "Wal::Open");
  std::vector<double> commit_ms;
  for (const Day& day : days) {
    Stopwatch sw;
    bool ok = wal.BatchBegin(day.day).ok();
    if (day.is_delete) {
      ok = ok && wal.NoteDeleteBatch(
                     day.day, static_cast<uint32_t>(day.events.size())).ok();
    }
    for (const datagen::UpdateEvent& e : day.events) ok = ok && wal.Append(e).ok();
    ok = ok && wal.BatchCommit(day.day).ok();
    commit_ms.push_back(sw.Ms());
    run.Check(ok, "WAL batch for day " + std::to_string(day.day));
  }
  run.Check(wal.Close().ok(), "Wal::Close");
  std::filesystem::remove_all(dir);
  run.Set("storage.wal_commit_ms", Median(commit_ms), "ms");
}

}  // namespace snb_bench
