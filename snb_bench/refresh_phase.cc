// The refresh phase: insert days then DEL 1-8 days, one RunBatchedRefresh
// call per day on a fresh store, a BI probe pass after every published day,
// and RecoveryManager::Recover at the end of each replay. A step is one day
// or one recovery; the last recovery of a replay also sets up the fresh
// store the next replay starts from.

#include <cstdio>
#include <filesystem>
#include <memory>

#include "driver/refresh.h"
#include "sched/stream.h"
#include "storage/export.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "validate/validator.h"
#include "workload.h"

namespace snb_bench {

namespace {

using snb::sched::StreamOp;

// One binding of every template that has one.
std::vector<StreamOp> ProbeOps(const snb::params::WorkloadParameters& params) {
  std::vector<StreamOp> ops;
  for (int q = 1; q <= 25; ++q) {
    if (snb::sched::BindingCount(params, q) > 0) ops.push_back(StreamOp{q, 0});
  }
  return ops;
}

std::vector<uint64_t> Probe(const snb::storage::Graph& graph,
                            const snb::params::WorkloadParameters& params,
                            const std::vector<StreamOp>& ops) {
  std::vector<uint64_t> fps;
  fps.reserve(ops.size());
  for (const StreamOp& op : ops) {
    fps.push_back(
        snb::sched::ExecuteStreamOp(graph, params, op, nullptr).fingerprint);
  }
  return fps;
}

class RefreshPhase : public PhaseRunner {
 public:
  RefreshPhase(const Dataset& ds, const Profile& profile,
               const Options& options, RunRecord& run)
      : ds_(ds),
        profile_(profile),
        options_(options),
        run_(run),
        days_(BuildDays(ds, profile, options.seed)),
        probe_ops_(ProbeOps(ds.params)),
        // The first replay uses the store set-up initialised.
        handle_(std::make_shared<snb::storage::Graph>(CopyNetwork(ds.network))) {
    for (const Day& d : days_) events_ += d.events.size();
    day_ms_.resize(days_.size());
    probe_ms_.resize(days_.size());
    run.Check(!days_.empty() && days_.back().is_delete,
              "refresh day sequence has no DEL day");
    cfg_.seed = options.seed;
  }

  void Step() override {
    Stopwatch sw;
    if (day_ < days_.size()) {
      RunDay();
    } else {
      RecoverStep();
    }
    busy_s_ += sw.S();
  }

  bool Enough() const override { return replays_ >= 1; }

  void Finish() override {
    // Each day of the sequence counts once, at its median over replays:
    // days differ in size, and a run ends part-way through a replay, so
    // pooling every sample would weigh the first days more in some runs.
    std::vector<double> insert_ms, delete_ms, probe_ms;
    for (size_t i = 0; i < days_.size(); ++i) {
      if (day_ms_[i].empty()) continue;
      (days_[i].is_delete ? delete_ms : insert_ms).push_back(Median(day_ms_[i]));
      probe_ms.push_back(Median(probe_ms_[i]));
    }
    const double insert_day_ms = Median(insert_ms);
    const double delete_day_ms = Median(delete_ms);
    run_.Set("refresh_insert_day_ms", insert_day_ms, "ms");
    run_.Set("refresh_delete_day_ms", delete_day_ms, "ms");
    run_.Set("snapshot_read_ms", Median(probe_ms), "ms");
    run_.Set("recover_ms", Median(recover_ms_), "ms");
    run_.Set("driver.refresh_retries", static_cast<double>(retries_), "count");
    run_.Set("driver.events_per_day",
             days_.empty() ? 0 : static_cast<double>(events_) / days_.size(),
             "count");
    run_.Set("validate.graph_ms", Median(validate_ms_), "ms");
    run_.Count("driver.days", static_cast<double>(days_.size()));
    run_.Count("driver.events", static_cast<double>(events_));
    for (size_t i = 0; i < days_.size(); ++i) {
      run_.Count("driver.day" + std::to_string(i) + ".events",
                 static_cast<double>(days_[i].events.size()));
    }
    std::fprintf(stderr,
                 "[refresh] %d replays of %zu days (%zu events), %zu days run: "
                 "insert %.1f ms, delete %.1f ms, probe %.1f ms, recover %.1f "
                 "ms (%zu) in %.1f s\n",
                 replays_, days_.size(), events_, days_run_, insert_day_ms,
                 delete_day_ms, Median(probe_ms), Median(recover_ms_),
                 recover_ms_.size(), busy_s_);
  }

 private:
  void RunDay() {
    const Day& day = days_[day_];
    Stopwatch sw;
    auto report =
        snb::driver::RunBatchedRefresh(ds_.store_dir, handle_, day.events, cfg_);
    const double ms = sw.Ms();
    run_.Check(report.ok() && report.value().events_applied == day.events.size(),
               "refresh day " + std::to_string(day.day) + ": " +
                   (report.ok() ? "events lost" : report.status().ToString()));
    if (report.ok()) retries_ += report.value().retries;
    day_ms_[day_].push_back(ms);
    ++days_run_;

    std::shared_ptr<const snb::storage::Graph> snap = handle_.Current();
    std::vector<uint64_t> fps;
    for (int r = 0; r < profile_.probe_reps; ++r) {
      Stopwatch probe;
      std::vector<uint64_t> again = Probe(*snap, ds_.params, probe_ops_);
      probe_ms_[day_].push_back(probe.Ms());
      run_.Check(r == 0 || again == fps, "probe pass not deterministic");
      fps = std::move(again);
    }
    if (replays_ == 0) {
      day_fps_.push_back(std::move(fps));
    } else {
      run_.Check(fps == day_fps_[day_], "replay " + std::to_string(replays_) +
                                            " day " + std::to_string(day.day) +
                                            " probes differ from replay 0");
    }
    ++day_;
  }

  // One Recover call on the store the replay left; the first of a replay
  // also checks its WAL size and, on replay 0, the recompute oracle.
  void RecoverStep() {
    const std::string& dir = ds_.store_dir;
    if (recovered_ == 0) {
      const double wal_bytes = static_cast<double>(
          std::filesystem::file_size(snb::storage::WalPath(dir)));
      if (replays_ == 0) {
        run_.Set("storage.wal_bytes_per_event",
                 events_ == 0 ? 0 : wal_bytes / static_cast<double>(events_),
                 "B");
        run_.Count("storage.wal_bytes", wal_bytes);
      } else {
        run_.Check(wal_bytes == run_.counters["storage.wal_bytes"],
                   "replay " + std::to_string(replays_) + " WAL size differs");
      }
    }

    Stopwatch rec_sw;
    auto recovered = snb::storage::RecoveryManager(dir).Recover();
    recover_ms_.push_back(rec_sw.Ms());
    run_.Check(recovered.ok() && recovered.value().graph != nullptr,
               "recover: " + recovered.status().ToString());
    if (recovered.ok() && recovered.value().graph != nullptr) {
      const snb::storage::Graph& g = *recovered.value().graph;
      run_.Check(Probe(g, ds_.params, probe_ops_) == day_fps_.back(),
                 "recovered graph probes differ from the published snapshot");
      if (options_.trace) {
        Stopwatch v;
        bool ok = snb::validate::ValidateGraph(g).ok();
        validate_ms_.push_back(v.Ms());
        run_.Check(ok, "ValidateGraph failed on the recovered graph");
      }
    }
    if (replays_ == 0 && recovered_ == 0) {
      // Recompute oracle: a from-scratch build of the final state.
      std::shared_ptr<const snb::storage::Graph> final_graph = handle_.Current();
      snb::storage::Graph oracle(snb::storage::ExportNetwork(*final_graph));
      run_.Check(Probe(oracle, ds_.params, probe_ops_) == day_fps_.back(),
                 "final snapshot differs from Graph(ExportNetwork(g))");
      run_.Check(snb::validate::ValidateGraph(*final_graph).ok(),
                 "ValidateGraph failed on the final snapshot");
    }
    if (++recovered_ < profile_.recoveries) return;
    ++replays_;

    // The next replay starts from a fresh store and graph.
    handle_.Replace(nullptr);
    std::filesystem::remove_all(dir);
    snb::util::Status st =
        snb::storage::InitStore(dir, ds_.network, ds_.first_update_day - 1);
    run_.Check(st.ok(), "InitStore: " + st.ToString());
    handle_.Replace(
        std::make_shared<snb::storage::Graph>(CopyNetwork(ds_.network)));
    day_ = 0;
    recovered_ = 0;
  }

  const Dataset& ds_;
  const Profile& profile_;
  const Options& options_;
  RunRecord& run_;
  const std::vector<Day> days_;
  const std::vector<StreamOp> probe_ops_;
  snb::driver::RefreshConfig cfg_;
  snb::driver::GraphHandle handle_;
  size_t events_ = 0;
  size_t day_ = 0;  // next day of the current replay
  int recovered_ = 0;  // Recover calls on the current replay's store
  int replays_ = 0;  // completed replays
  // Per day of the sequence: RunBatchedRefresh times and probe-pass times,
  // pooled over replays.
  std::vector<std::vector<double>> day_ms_, probe_ms_;
  size_t days_run_ = 0;
  std::vector<double> recover_ms_, validate_ms_;
  std::vector<std::vector<uint64_t>> day_fps_;  // replay 0's per-day probes
  size_t retries_ = 0;
  double busy_s_ = 0;
};

}  // namespace

std::unique_ptr<PhaseRunner> StartRefreshPhase(const Dataset& ds,
                                               const Profile& profile,
                                               const Options& options,
                                               RunRecord& run) {
  return std::make_unique<RefreshPhase>(ds, profile, options, run);
}

}  // namespace snb_bench
