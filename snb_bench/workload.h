// The benchmark's workloads and the phases every workload runs.
//
// A workload is a dataset (scale factor and activity; the datagen seed is
// fixed, --seed varies what is drawn on top of it) plus the amount of work
// each of three phases does per round. The phases drive the program through
// its public functions:
//
//   bi       power passes (sched::RunStreams, 1 stream on nproc workers)
//            and throughput passes (2 x nproc permuted streams);
//   refresh  daily insert and DEL 1-8 batches through
//            driver::RunBatchedRefresh, a BI probe pass after each
//            published day, and RecoveryManager::Recover at the end;
//   mix      the insert stream applied in place with IC 1-14 / IS 1-7
//            interleaved at the Table B.1 frequencies.
//
// Every workload runs all three phases, so every end-to-end metric exists on
// every workload. main() interleaves them: each round takes a few steps of
// every phase, and rounds repeat until --seconds have passed. Each metric is
// a median over samples spread across the whole window, so a slow host
// phase of a few seconds touches a few samples of every metric rather than
// every sample of one.
#ifndef SNB_BENCH_WORKLOAD_H_
#define SNB_BENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scale_factors.h"
#include "datagen/datagen.h"
#include "harness.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"

namespace snb_bench {

namespace core = snb::core;
namespace datagen = snb::datagen;

// Set-up repeats at least kMinSetupReps times and until kSetupSeconds have
// passed (at most kMaxSetupReps); setup_s is the median. A short set-up
// (SF 0.1: 0.3-0.5 s, the first repetition slowest) needs more repetitions
// than an SF 1 one (4-5 s) for a steady median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 15;
constexpr double kSetupSeconds = 3;
constexpr size_t kCuratedBindings = 16;  // per template; the mix cycles all
constexpr size_t kBiBindings = 4;        // of those, the ones a BI pass runs

struct Profile {
  std::string name;
  std::string sf;         // scale-factor row name (core::FindScaleFactor)
  double activity = 1.0;  // datagen activity_scale
  // Steps of each phase per round: a bi step is one power and one
  // throughput pass, a refresh step one day or one of the recoveries that
  // close a replay. Every round also takes one mix step: a chunk of
  // `mix_chunk` insert events with the reads interleaved among them.
  int bi_steps = 1;
  int refresh_steps = 1;
  size_t mix_chunk = 1000;
  // refresh phase: days per replay, and Recover calls on the store a replay
  // leaves (recovering a clean store is idempotent, so each repeats the
  // same work).
  int insert_days = 1;
  int delete_days = 1;
  int recoveries = 1;
  int probe_reps = 1;  // probe passes after each published day
  // IC 5 bindings also checked against the naive engine (slow at SF >= 0.3).
  size_t naive_ic5_bindings = kCuratedBindings;
};

/// The workload table; nullptr for an unknown name. `micro` swaps every
/// dataset for SF 0.003 (the self-test scale).
const Profile* FindProfile(const std::string& name, bool micro);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool micro = false;
  bool plant_mismatch = false;
  std::string work_dir = ".bench_build/work";
  std::string report_path;
};

/// Set-up products shared by the phases. `network` is the bulk dataset the
/// graph was built from; phases that mutate build their own copies from it.
struct Dataset {
  core::ScaleFactorInfo sf;
  core::SocialNetwork network;
  std::vector<datagen::UpdateEvent> updates;
  std::unique_ptr<snb::storage::Graph> graph;
  snb::params::WorkloadParameters params;
  std::string store_dir;  // InitStore'd at set-up; the first replay uses it
  core::Date first_update_day = 0;
  unsigned workers = 1;  // nproc
};

/// Generates, builds, curates and initialises the store repeatedly (see
/// kMinSetupReps) and records setup_s and the per-step medians.
Dataset SetUp(const Profile& profile, const Options& options, RunRecord& run);

/// One phase of a workload, run step by step so main() can interleave it
/// with the others. Every step records its samples and checks its outputs;
/// Finish() runs the end-of-run output checks and sets the phase's metrics.
class PhaseRunner {
 public:
  PhaseRunner() = default;
  PhaseRunner(const PhaseRunner&) = delete;
  PhaseRunner& operator=(const PhaseRunner&) = delete;
  virtual ~PhaseRunner() = default;
  virtual void Step() = 0;
  /// True once the phase has the fewest samples its metrics need.
  virtual bool Enough() const = 0;
  virtual void Finish() = 0;
};

/// The bi phase; computes the sequential-engine reference on construction.
std::unique_ptr<PhaseRunner> StartBiPhase(const Dataset& ds,
                                          const Options& options,
                                          RunRecord& run);
std::unique_ptr<PhaseRunner> StartRefreshPhase(const Dataset& ds,
                                               const Profile& profile,
                                               const Options& options,
                                               RunRecord& run);
std::unique_ptr<PhaseRunner> StartMixPhase(const Dataset& ds,
                                           const Profile& profile,
                                           const Options& options,
                                           RunRecord& run);

/// One refresh day: the events RunBatchedRefresh applies as one batch.
struct Day {
  core::Date day = 0;
  bool is_delete = false;
  std::vector<datagen::UpdateEvent> events;
};

/// The refresh day sequence: the first `insert_days` days of the insert
/// stream, then `delete_days` DEL 1-8 days from DeriveDeleteStream shifted
/// past the last insert day, so no insert references a deleted entity.
std::vector<Day> BuildDays(const Dataset& ds, const Profile& profile,
                           uint64_t seed);

/// Storage-layer probes for the traced run: each public call refresh
/// composes (export, apply, WAL commit, compaction) timed on a copy.
void TraceStorage(const Dataset& ds, const Profile& profile,
                  const Options& options, RunRecord& run);

/// Copies a network (the Graph constructor consumes its argument).
inline core::SocialNetwork CopyNetwork(const core::SocialNetwork& net) {
  return net;
}

}  // namespace snb_bench

#endif  // SNB_BENCH_WORKLOAD_H_
