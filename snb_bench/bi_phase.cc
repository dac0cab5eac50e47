// The bi phase: power passes and throughput passes through sched::RunStreams,
// every outcome checked against a sequential-engine reference.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "sched/scheduler.h"
#include "sched/stream.h"
#include "storage/scan_stats.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace snb_bench {

namespace {

using snb::sched::ExecuteStreamOp;
using snb::sched::OpOutcome;
using snb::sched::StreamOp;

// Templates with a morsel-parallel variant (sched/stream.h).
constexpr int kMorselTemplates[] = {1, 2, 3, 6, 12, 13, 14, 17, 20, 23, 24};

std::string TemplateKey(const char* prefix, int q, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%02d%s", prefix, q, suffix);
  return buf;
}

std::vector<StreamOp> AllOps(const snb::params::WorkloadParameters& params,
                             size_t bindings) {
  std::vector<StreamOp> ops;
  for (int q = 1; q <= 25; ++q) {
    size_t n = std::min(bindings, snb::sched::BindingCount(params, q));
    for (size_t b = 0; b < n; ++b) ops.push_back(StreamOp{q, b});
  }
  return ops;
}

using OpKey = std::pair<int, size_t>;

struct Reference {
  std::map<OpKey, uint64_t> fingerprint;
  // Sequential latencies per template, pooled over bindings and passes.
  std::map<int, std::vector<double>> latency_ms;
};

// Runs every op on the calling thread with the sequential engine.
Reference SequentialPasses(const Dataset& ds, const std::vector<StreamOp>& ops,
                           int passes, RunRecord& run) {
  Reference ref;
  snb::storage::ScanStats scan;
  uint64_t rows = 0;
  for (int pass = 0; pass < passes; ++pass) {
    snb::storage::ScopedScanStats sink(pass == 0 ? &scan : nullptr);
    for (const StreamOp& op : ops) {
      Stopwatch sw;
      OpOutcome o = ExecuteStreamOp(*ds.graph, ds.params, op, nullptr);
      ref.latency_ms[op.query].push_back(sw.Ms());
      if (pass == 0) {
        ref.fingerprint[{op.query, op.binding}] = o.fingerprint;
        rows += o.rows;
      } else {
        run.Check(ref.fingerprint[{op.query, op.binding}] == o.fingerprint,
                  "sequential " + snb::sched::StreamOpName(op) +
                      " not deterministic");
      }
    }
  }
  const double decoded = static_cast<double>(scan.rows_decoded.load());
  const double skipped_date =
      static_cast<double>(scan.blocks_skipped_date.load());
  const double skipped_bound =
      static_cast<double>(scan.blocks_skipped_bound.load());
  const double rows_skipped =
      static_cast<double>(scan.rows_skipped_bound.load());
  run.Set("storage.scan.rows_decoded", decoded, "count");
  run.Set("storage.scan.blocks_skipped_date", skipped_date, "count");
  run.Set("storage.scan.blocks_skipped_bound", skipped_bound, "count");
  run.Set("storage.scan.rows_skipped_bound", rows_skipped, "count");
  // Share of candidate rows a scan never delivered to a kernel.
  run.Set("storage.scan.skip_ratio",
          decoded + rows_skipped == 0 ? 0 : rows_skipped / (decoded + rows_skipped),
          "ratio");
  run.Count("storage.scan.rows_decoded", decoded);
  run.Count("storage.scan.blocks_skipped_date", skipped_date);
  run.Count("storage.scan.blocks_skipped_bound", skipped_bound);
  run.Count("storage.scan.rows_skipped_bound", rows_skipped);
  run.Count("bi.result_rows", static_cast<double>(rows));
  return ref;
}

// Power and throughput passes, one of each per step; every outcome is
// checked against the sequential reference.
class BiPhase : public PhaseRunner {
 public:
  BiPhase(const Dataset& ds, const Options& options, RunRecord& run)
      : ds_(ds),
        options_(options),
        run_(run),
        ops_(AllOps(ds.params, kBiBindings)),
        ref_(SequentialPasses(ds, ops_, options.trace ? 3 : 1, run)) {
    if (options.plant_mismatch && !ref_.fingerprint.empty()) {
      ref_.fingerprint.begin()->second ^= 1;  // self-test: must count as failed
    }
    power_cfg_.num_streams = 1;
    power_cfg_.num_workers = ds.workers;
    power_cfg_.bindings_per_query = kBiBindings;
    power_cfg_.dispatch = snb::sched::DispatchPolicy::kAdaptive;
    power_cfg_.seed = options.seed;
    // Twice as many throughput streams as workers keep an admitted query
    // queued for every worker, so a pass measures query throughput rather
    // than thread wake-up latency between a stream's queries, which on a
    // shared VM host swings twofold from one minute to the next.
    tp_cfg_ = power_cfg_;
    tp_cfg_.num_streams = 2 * ds.workers;
  }

  void Step() override {
    Stopwatch sw;
    PowerPass();
    ThroughputPass();
    busy_s_ += sw.S();
  }

  bool Enough() const override {
    return static_cast<int>(pass_ms_.size()) >= kMinPasses;
  }

  void Finish() override {
    // Per-template median rather than mean: one stalled query in a pass
    // moved a mean-based figure by 20 % between runs of the same seed.
    std::vector<double> template_medians;
    for (const auto& [q, lat] : power_latency_) {
      template_medians.push_back(Median(lat));
    }
    // A power pass's time with every query at its median latency over the
    // run's passes: a stall hits a few queries of most passes, so it moves
    // each pass's sum but not the per-query medians.
    double power_ms = 0;
    for (const auto& [op, lat] : op_latency_) power_ms += Median(lat);
    const double power_qps =
        power_ms == 0 ? 0 : ops_.size() * 1000.0 / power_ms;
    // A throughput pass ends with its slowest stream, so per-pass rates
    // have a long tail; the median pass is the reported rate.
    const double tp_qps = Median(tp_qps_);
    run_.Set("power_ms", power_ms, "ms");
    run_.Set("power_geomean_ms", GeoMean(template_medians), "ms");
    run_.Set("throughput_qps", tp_qps, "1/s");
    run_.Set("sched.stream_speedup", power_qps == 0 ? 0 : tp_qps / power_qps,
             "ratio");
    run_.Set("sched.cancelled", static_cast<double>(cancelled_), "count");
    run_.Set("sched.power_gap_ms", Median(power_gap_ms_), "ms");
    run_.Count("bi.ops_per_pass", static_cast<double>(ops_.size()));
    std::fprintf(stderr,
                 "[bi] %zu power passes (%.1f ms at per-query medians; pass "
                 "sums %.1f / %.1f / %.1f ms), %zu throughput passes (%.1f / "
                 "%.1f / %.1f q/s) in %.1f s\n",
                 pass_ms_.size(), power_ms, Quantile(pass_ms_, 0.1),
                 Median(pass_ms_), Quantile(pass_ms_, 0.9), tp_qps_.size(),
                 Quantile(tp_qps_, 0.1), Median(tp_qps_),
                 Quantile(tp_qps_, 0.9), busy_s_);

    // Per-template figures from the sequential engine.
    std::vector<double> all_seq;
    for (int q = 1; q <= 25; ++q) {
      const std::vector<double>& lat = ref_.latency_ms[q];
      run_.Set(TemplateKey("bi.", q, "_ms"), Median(lat), "ms");
      all_seq.insert(all_seq.end(), lat.begin(), lat.end());
    }
    run_.Set("bi.p90_ms", Quantile(all_seq, 0.9), "ms");
    run_.Set("bi.p90_samples", static_cast<double>(all_seq.size()), "count");
    if (options_.trace) MorselSpeedups();
  }

 private:
  static constexpr int kMinPasses = 3;  // of each kind

  void Check(const snb::sched::ScheduleResult& r, const char* what) {
    for (const auto& stream : r.streams) {
      for (const OpOutcome& o : stream.outcomes) {
        auto it = ref_.fingerprint.find({o.op.query, o.op.binding});
        run_.Check(!o.cancelled && it != ref_.fingerprint.end() &&
                       it->second == o.fingerprint,
                   std::string(what) + " " + snb::sched::StreamOpName(o.op) +
                       (o.cancelled ? " cancelled" : " fingerprint mismatch"));
      }
    }
    cancelled_ += r.total_cancelled;
  }

  void PowerPass() {
    snb::sched::ScheduleResult r =
        snb::sched::RunStreams(*ds_.graph, ds_.params, power_cfg_);
    Check(r, "power");
    // A pass's busy time is the sum of its query latencies; the scheduler's
    // gaps between queries (wall minus that sum) are reported per layer.
    double busy_ms = 0;
    for (const OpOutcome& o : r.streams.front().outcomes) {
      if (!o.cancelled) {
        power_latency_[o.op.query].push_back(o.latency_ms);
        op_latency_[{o.op.query, o.op.binding}].push_back(o.latency_ms);
      }
      busy_ms += o.latency_ms;
    }
    if (pass_ms_.empty()) {
      run_.Set("engine.morsel_chosen", static_cast<double>(r.morsel_chosen),
               "count");
      run_.Set("engine.morsel_refused", static_cast<double>(r.morsel_refused),
               "count");
      run_.Count("engine.morsel_chosen", static_cast<double>(r.morsel_chosen));
      run_.Count("engine.morsel_refused",
                 static_cast<double>(r.morsel_refused));
    }
    pass_ms_.push_back(busy_ms);
    power_gap_ms_.push_back(r.wall_seconds * 1000.0 - busy_ms);
  }

  void ThroughputPass() {
    snb::sched::ScheduleResult r =
        snb::sched::RunStreams(*ds_.graph, ds_.params, tp_cfg_);
    Check(r, "throughput");
    tp_qps_.push_back(r.total_completed / r.wall_seconds);
  }

  // Morsel speedup per capable template: sequential latency over the
  // latency with an nproc pool and unconditional fan-out.
  void MorselSpeedups() {
    snb::util::ThreadPool pool(ds_.workers);
    for (int q : kMorselTemplates) {
      std::vector<double> par;
      for (int pass = 0; pass < 3; ++pass) {
        for (const StreamOp& op : ops_) {
          if (op.query != q) continue;
          Stopwatch sw;
          OpOutcome o = ExecuteStreamOp(*ds_.graph, ds_.params, op, nullptr,
                                        &pool, nullptr);
          par.push_back(sw.Ms());
          run_.Check(o.fingerprint == ref_.fingerprint[{op.query, op.binding}],
                     "morsel " + snb::sched::StreamOpName(op) +
                         " fingerprint mismatch");
        }
      }
      const double seq = Median(ref_.latency_ms[q]);
      const double p = Median(par);
      run_.Set(TemplateKey("engine.morsel_speedup.", q, ""),
               p == 0 ? 0 : seq / p, "ratio");
    }
  }

  const Dataset& ds_;
  const Options& options_;
  RunRecord& run_;
  const std::vector<StreamOp> ops_;
  Reference ref_;
  snb::sched::SchedulerConfig power_cfg_;
  snb::sched::SchedulerConfig tp_cfg_;
  std::vector<double> pass_ms_, power_gap_ms_, tp_qps_;
  std::map<int, std::vector<double>> power_latency_;  // per template
  std::map<OpKey, std::vector<double>> op_latency_;
  size_t cancelled_ = 0;
  double busy_s_ = 0;
};

}  // namespace

std::unique_ptr<PhaseRunner> StartBiPhase(const Dataset& ds,
                                          const Options& options,
                                          RunRecord& run) {
  return std::make_unique<BiPhase>(ds, options, run);
}

}  // namespace snb_bench
