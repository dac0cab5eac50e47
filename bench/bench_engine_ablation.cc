// Ablations for the design decisions called out in DESIGN.md (experiment
// id ABL), each timed against the baseline it replaces:
//   * top-k pushdown (CP-1.3) vs sort-everything,
//   * CSR adjacency BFS vs edge-list rescanning (CP-3.2/3.3),
//   * precomputed thread roots vs replyOf* chasing (CP-7.2/7.3),
//   * the reverse tag index vs a full message scan.
// Every figure is the minimum wall-clock time over kReps runs; the ratio
// column is baseline / design choice.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "datagen/datagen.h"
#include "engine/bfs.h"
#include "engine/top_k.h"
#include "storage/graph.h"
#include "util/rng.h"

namespace {

using Clock = std::chrono::steady_clock;
using snb::storage::Graph;

constexpr uint64_t kPersons = 800;
constexpr int kReps = 5;

/// Folds every measured result in, so no timed loop is dead code.
uint64_t sink = 0;

/// Minimum wall-clock milliseconds of `fn` over kReps runs.
double BestMs(const std::function<uint64_t()>& fn) {
  double best = 0;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    sink += fn();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

void Row(const char* choice, const char* baseline,
         const std::function<uint64_t()>& fast,
         const std::function<uint64_t()>& slow) {
  const double fast_ms = BestMs(fast);
  const double slow_ms = BestMs(slow);
  std::printf("%-34s %10.3f   %-30s %10.3f   %7.1fx\n", choice, fast_ms,
              baseline, slow_ms, fast_ms > 0 ? slow_ms / fast_ms : 0.0);
}

// ---- Top-k pushdown vs full sort -------------------------------------------

std::vector<int64_t> MakeValues(size_t n) {
  snb::util::Rng rng(7, n);
  std::vector<int64_t> values(n);
  for (int64_t& v : values) v = rng.UniformInt(0, 1 << 30);
  return values;
}

uint64_t TopKHeap(const std::vector<int64_t>& values) {
  auto less = [](int64_t a, int64_t b) { return a < b; };
  snb::engine::TopK<int64_t, decltype(less)> top(100, less);
  for (int64_t v : values) top.Add(v);
  return top.Take().size();
}

uint64_t TopKFullSort(const std::vector<int64_t>& values) {
  std::vector<int64_t> copy = values;
  std::sort(copy.begin(), copy.end());
  copy.resize(std::min<size_t>(copy.size(), 100));
  return copy.size();
}

// ---- CSR BFS vs edge-list BFS ----------------------------------------------

uint64_t Reached(const std::vector<int32_t>& dist) {
  return static_cast<uint64_t>(std::count_if(
      dist.begin(), dist.end(), [](int32_t d) { return d >= 0; }));
}

/// Depth-3 BFS from every 17th person, the way a 3-hop query fans out.
uint64_t BfsCsr(const Graph& graph) {
  uint64_t reached = 0;
  for (uint32_t src = 0; src < graph.NumPersons(); src += 17) {
    reached += Reached(snb::engine::BfsDistances(graph.Knows(), src, 3));
  }
  return reached;
}

/// The same BFS as a naive engine runs it: one scan of the undirected edge
/// list per level.
uint64_t BfsEdgeListRescan(
    const Graph& graph,
    const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  uint64_t reached = 0;
  for (uint32_t src = 0; src < graph.NumPersons(); src += 17) {
    std::vector<int32_t> dist(graph.NumPersons(), -1);
    dist[src] = 0;
    for (int32_t depth = 1; depth <= 3; ++depth) {
      bool changed = false;
      for (const auto& [a, b] : edges) {
        if (dist[a] == depth - 1 && dist[b] < 0) {
          dist[b] = depth;
          changed = true;
        }
        if (dist[b] == depth - 1 && dist[a] < 0) {
          dist[a] = depth;
          changed = true;
        }
      }
      if (!changed) break;
    }
    reached += Reached(dist);
  }
  return reached;
}

// ---- Thread roots: precomputed column vs replyOf* chase --------------------

uint64_t ThreadRootPrecomputed(const Graph& graph) {
  uint64_t acc = 0;
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    acc += graph.CommentRootPost(c);
  }
  return acc;
}

uint64_t ThreadRootChase(const Graph& graph) {
  uint64_t acc = 0;
  for (uint32_t c = 0; c < graph.NumComments(); ++c) {
    uint32_t msg = graph.CommentReplyOf(c);
    while (!Graph::IsPost(msg)) {
      msg = graph.CommentReplyOf(Graph::AsComment(msg));
    }
    acc += Graph::AsPost(msg);
  }
  return acc;
}

// ---- Reverse index vs scan (tag → messages) --------------------------------

// Both sides visit the messages of tags [0, tags): the scan costs one pass
// over every message per tag, so a short prefix keeps the baseline bounded.
uint64_t TagMessagesReverseIndex(const Graph& graph, uint32_t tags) {
  uint64_t count = 0;
  for (uint32_t tag = 0; tag < tags; ++tag) {
    graph.TagPosts().ForEach(tag, [&](uint32_t) { ++count; });
    graph.TagComments().ForEach(tag, [&](uint32_t) { ++count; });
  }
  return count;
}

uint64_t TagMessagesFullScan(const Graph& graph, uint32_t tags) {
  uint64_t count = 0;
  for (uint32_t tag = 0; tag < tags; ++tag) {
    graph.ForEachMessage([&](uint32_t msg) {
      graph.ForEachMessageTag(msg, [&](uint32_t t) {
        if (t == tag) ++count;
      });
    });
  }
  return count;
}

}  // namespace

int main() {
  using namespace snb;  // NOLINT

  datagen::DatagenConfig cfg;
  cfg.num_persons = kPersons;
  cfg.activity_scale = 0.6;
  const Graph graph(std::move(datagen::Generate(cfg).network));

  std::printf("Design-choice ablations (ms, min of %d runs, %llu persons)\n\n",
              kReps, static_cast<unsigned long long>(kPersons));
  std::printf("%-34s %10s   %-30s %10s   %8s\n", "design choice", "ms",
              "baseline", "ms", "speedup");

  for (size_t n : {10'000u, 100'000u, 1'000'000u}) {
    const std::vector<int64_t> values = MakeValues(n);
    char choice[64];
    std::snprintf(choice, sizeof(choice), "top-100 heap, %zu rows", n);
    Row(choice, "full sort", [&] { return TopKHeap(values); },
        [&] { return TopKFullSort(values); });
  }

  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t a = 0; a < graph.NumPersons(); ++a) {
    graph.Knows().ForEach(a, [&](uint32_t b) {
      if (a < b) edges.emplace_back(a, b);
    });
  }
  Row("CSR BFS, depth 3", "edge-list rescan per level",
      [&] { return BfsCsr(graph); },
      [&] { return BfsEdgeListRescan(graph, edges); });

  Row("precomputed thread roots", "replyOf* chase",
      [&] { return ThreadRootPrecomputed(graph); },
      [&] { return ThreadRootChase(graph); });

  const uint32_t scan_tags =
      std::min<uint32_t>(32, static_cast<uint32_t>(graph.NumTags()));
  Row("reverse tag index, 32 tags", "full message scan per tag",
      [&] { return TagMessagesReverseIndex(graph, scan_tags); },
      [&] { return TagMessagesFullScan(graph, scan_tags); });

  std::printf("\nchecksum %llu\n", static_cast<unsigned long long>(sink));
  return 0;
}
