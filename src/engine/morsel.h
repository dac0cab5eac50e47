// Morsel-driven intra-query parallelism (choke point CP-1.2: parallel
// high-cardinality group-by; the framework behind the BI engine's parallel
// query variants).
//
// An index range [0, n) is split into cache-friendly morsels that idle
// executors pull off a shared atomic counter — dynamic dispatch, so skewed
// per-element costs (hub vertices, hot tags) still balance. Executors are
// `pool.num_threads()` helper tasks *plus the calling thread*: the caller
// always participates and drains the counter itself if every pool worker is
// busy, so a query already running on a pool worker can morsel-parallelize
// over the same pool without deadlock and without oversubscribing it (the
// scheduler relies on this for power runs).
//
// Aggregation follows the partial-state + re-aggregation pattern: each
// executor slot lazily builds one private State, morsels fold into it
// lock-free, and after the join the caller merges the surviving states in
// ascending slot order. The merge order is fixed, and every BI aggregation
// merges commutative content (integer counts/sums, top-k sets under a total
// order), so results are bit-identical to the sequential engine at any
// thread count.
//
// Exceptions thrown by a body (most importantly bi::QueryCancelled from a
// per-morsel cancellation poll) stop the dispatch: remaining morsels are
// abandoned, every executor joins, and the first captured exception is
// rethrown on the calling thread.

#ifndef SNB_ENGINE_MORSEL_H_
#define SNB_ENGINE_MORSEL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace snb::engine {

/// Default elements per morsel for flat column scans. Queries whose
/// per-element work is itself a scan (adjacency expansion, triangle probes)
/// should pass something far smaller.
constexpr size_t kDefaultMorselSize = 8192;

/// Minimum-work floor: inputs shorter than this many morsels never fan out
/// (slots collapses to 1 and the caller runs everything inline). Fan-out
/// costs two pool handoffs plus a join per helper; a query with a handful
/// of morsels pays that overhead for no overlap — the measured BI 17
/// regression (≈0.2× at 1200 persons) was exactly this shape.
constexpr size_t kMinMorselsForFanout = 8;

namespace internal {

/// Dispatch knobs, process-global. Tests override them: the TSan morsel
/// suite drops the fan-out floor to 1 so tiny fixtures still exercise the
/// parallel machinery, and the bound-race tests set `shuffle_seed` to
/// permute morsel issue order and hit different bound interleavings.
struct MorselTuning {
  size_t min_morsels_for_fanout = kMinMorselsForFanout;
  uint64_t shuffle_seed = 0;  // 0 = natural order
};

MorselTuning& GlobalMorselTuning();

/// Runs fn(morsel_index, slot) for every morsel in [0, num_morsels) on
/// `slots` executors: slots-1 pool helpers plus the calling thread (which
/// takes slot slots-1). Blocks until every executor finished; rethrows the
/// first exception any morsel raised.
void RunMorsels(util::ThreadPool& pool, size_t num_morsels, size_t slots,
                const std::function<void(size_t, size_t)>& fn);

/// Executor count for `num_morsels` morsels on `pool`, honouring the
/// minimum-work floor.
inline size_t SlotsFor(util::ThreadPool& pool, size_t num_morsels) {
  if (num_morsels < GlobalMorselTuning().min_morsels_for_fanout) return 1;
  return std::min(pool.num_threads() + 1, num_morsels);
}

}  // namespace internal

/// Parallel reduction over [0, n): `init() -> State` builds one partial
/// state per executor slot (lazily — idle slots never allocate),
/// `body(state, begin, end)` folds one morsel, and after the join
/// `merge(state)` is invoked on the calling thread once per surviving state
/// in ascending slot order.
template <typename Init, typename Body, typename Merge>
void ParallelAggregate(util::ThreadPool& pool, size_t n, Init&& init,
                       Body&& body, Merge&& merge,
                       size_t morsel_size = kDefaultMorselSize) {
  using State = std::decay_t<std::invoke_result_t<Init&>>;
  if (n == 0) return;
  const size_t num_morsels = (n + morsel_size - 1) / morsel_size;
  const size_t slots = internal::SlotsFor(pool, num_morsels);
  std::vector<std::optional<State>> states(slots);
  internal::RunMorsels(pool, num_morsels, slots,
                       [&](size_t morsel, size_t slot) {
                         std::optional<State>& state = states[slot];
                         if (!state) state.emplace(init());
                         const size_t begin = morsel * morsel_size;
                         body(*state, begin, std::min(n, begin + morsel_size));
                       });
  for (std::optional<State>& state : states) {
    if (state) merge(*state);
  }
}

}  // namespace snb::engine

#endif  // SNB_ENGINE_MORSEL_H_
