// The mix phase: the insert stream applied in place (IU 1-8) with the
// complex reads IC 1-14 interleaved at the Table B.1 frequencies and short
// reads IS 1-7 following them, parameterised from earlier results. Every
// curated IC binding and the short-read targets are checked, on the graph
// as the last step left it, against the naive engine and the recompute
// oracle.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>

#include "interactive/interactive.h"
#include "interactive/naive.h"
#include "interactive/updates.h"
#include "storage/export.h"
#include "util/rng.h"
#include "workload.h"

namespace snb_bench {

namespace {

namespace ia = snb::interactive;
using snb::params::WorkloadParameters;
using snb::storage::Graph;

// Bounded recent-result pools that parameterise the short reads.
struct Recent {
  std::deque<core::Id> persons;
  std::deque<std::pair<core::Id, bool>> messages;  // (id, is_post)
  void Person(core::Id id) {
    persons.push_back(id);
    if (persons.size() > 64) persons.pop_front();
  }
  void Message(core::Id id, bool is_post) {
    messages.emplace_back(id, is_post);
    if (messages.size() > 64) messages.pop_front();
  }
};

size_t IcBindings(int q, const WorkloadParameters& p) {
  switch (q) {
    case 1: return p.ic1.size();
    case 2: return p.ic2.size();
    case 3: return p.ic3.size();
    case 4: return p.ic4.size();
    case 5: return p.ic5.size();
    case 6: return p.ic6.size();
    case 7: return p.ic7.size();
    case 8: return p.ic8.size();
    case 9: return p.ic9.size();
    case 10: return p.ic10.size();
    case 11: return p.ic11.size();
    case 12: return p.ic12.size();
    case 13: return p.ic13.size();
    case 14: return p.ic14.size();
  }
  return 0;
}

template <typename P, typename Fast, typename Remember>
size_t RunOne(const std::vector<P>& ps, size_t b, const Graph& g, Fast fast,
              Remember remember) {
  auto rows = fast(g, ps[b]);
  if constexpr (requires { rows.size(); }) {
    for (const auto& r : rows) remember(r);
    return rows.size();
  } else {
    return 1;
  }
}

// Runs IC q with binding b; returns the row count.
size_t RunIc(int q, const Graph& g, const WorkloadParameters& p, size_t b,
             Recent& recent) {
  auto none = [](const auto&) {};
  auto person = [&recent](const auto& r) { recent.Person(r.person_id); };
  switch (q) {
    case 1:
      return RunOne(p.ic1, b, g, ia::RunIc1,
                    [&recent](const ia::Ic1Row& r) { recent.Person(r.friend_id); });
    case 2: return RunOne(p.ic2, b, g, ia::RunIc2, person);
    case 3: return RunOne(p.ic3, b, g, ia::RunIc3, person);
    case 4: return RunOne(p.ic4, b, g, ia::RunIc4, none);
    case 5: return RunOne(p.ic5, b, g, ia::RunIc5, none);
    case 6: return RunOne(p.ic6, b, g, ia::RunIc6, none);
    case 7:
      return RunOne(p.ic7, b, g, ia::RunIc7, [&recent](const ia::Ic7Row& r) {
        recent.Person(r.person_id);
      });
    case 8:
      return RunOne(p.ic8, b, g, ia::RunIc8, [&recent](const ia::Ic8Row& r) {
        recent.Message(r.comment_id, false);
      });
    case 9: return RunOne(p.ic9, b, g, ia::RunIc9, person);
    case 10: return RunOne(p.ic10, b, g, ia::RunIc10, person);
    case 11: return RunOne(p.ic11, b, g, ia::RunIc11, person);
    case 12: return RunOne(p.ic12, b, g, ia::RunIc12, person);
    case 13: return RunOne(p.ic13, b, g, ia::RunIc13, none);
    case 14: return RunOne(p.ic14, b, g, ia::RunIc14, none);
  }
  return 0;
}

// Optimized engine on `g` vs the same engine on `oracle` and, when `naive`,
// vs the naive engine on `g`.
template <typename P, typename Fast, typename Naive>
bool Same(const std::vector<P>& ps, size_t b, const Graph& g,
          const Graph& oracle, bool naive, Fast fast, Naive slow) {
  const auto got = fast(g, ps[b]);
  return got == fast(oracle, ps[b]) && (!naive || got == slow(g, ps[b]));
}

bool IcMatches(int q, const Graph& g, const Graph& o,
               const WorkloadParameters& p, size_t b, bool n) {
  namespace nv = snb::interactive::naive;
  switch (q) {
    case 1: return Same(p.ic1, b, g, o, n, ia::RunIc1, nv::RunIc1);
    case 2: return Same(p.ic2, b, g, o, n, ia::RunIc2, nv::RunIc2);
    case 3: return Same(p.ic3, b, g, o, n, ia::RunIc3, nv::RunIc3);
    case 4: return Same(p.ic4, b, g, o, n, ia::RunIc4, nv::RunIc4);
    case 5: return Same(p.ic5, b, g, o, n, ia::RunIc5, nv::RunIc5);
    case 6: return Same(p.ic6, b, g, o, n, ia::RunIc6, nv::RunIc6);
    case 7: return Same(p.ic7, b, g, o, n, ia::RunIc7, nv::RunIc7);
    case 8: return Same(p.ic8, b, g, o, n, ia::RunIc8, nv::RunIc8);
    case 9: return Same(p.ic9, b, g, o, n, ia::RunIc9, nv::RunIc9);
    case 10: return Same(p.ic10, b, g, o, n, ia::RunIc10, nv::RunIc10);
    case 11: return Same(p.ic11, b, g, o, n, ia::RunIc11, nv::RunIc11);
    case 12: return Same(p.ic12, b, g, o, n, ia::RunIc12, nv::RunIc12);
    case 13: return Same(p.ic13, b, g, o, n, ia::RunIc13, nv::RunIc13);
    case 14: return Same(p.ic14, b, g, o, n, ia::RunIc14, nv::RunIc14);
  }
  return false;
}

std::string OpName(const char* prefix, int n, bool two_digits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), two_digits ? "%s%02d" : "%s%d", prefix, n);
  return buf;
}

class MixPhase : public PhaseRunner {
 public:
  MixPhase(const Dataset& ds, const Profile& profile, const Options& options,
           RunRecord& run)
      : ds_(ds),
        profile_(profile),
        options_(options),
        run_(run),
        freq_(core::FrequenciesForScaleFactor(ds.sf.name)),
        n_updates_(ds.updates.size()) {
    StartPass();
  }

  // Applies the next chunk of the insert stream with its reads; at the end
  // of the stream, starts again on a fresh graph (not timed).
  void Step() override {
    if (u_ == n_updates_) StartPass();
    const size_t end = std::min(n_updates_, u_ + profile_.mix_chunk);
    const size_t ops_before = ops_;
    Stopwatch sw;
    for (; u_ < end; ++u_) Update(u_);
    const double s = sw.S();
    wall_s_ += s;
    if (s > 0) chunk_rates_.push_back((ops_ - ops_before) / s);
    if (++chunks_ <= kMinChunks) first_chunk_ops_ += ops_ - ops_before;
  }

  bool Enough() const override { return chunks_ >= kMinChunks; }

  // Output check on the graph as the last step left it. Every binding is
  // checked against the recompute oracle (the optimized engine on
  // Graph(ExportNetwork(g)), built from scratch) and against the naive
  // engine, except that the naive IC 5 - seconds per binding at SF 0.3,
  // tens at SF 1 - runs only on the profile's first few bindings.
  void Finish() override {
    const WorkloadParameters& params = ds_.params;
    Stopwatch check_sw;
    const Graph& g = *graph_;
    const Graph oracle(snb::storage::ExportNetwork(g));
    for (int q = 1; q <= 14; ++q) {
      for (size_t b = 0; b < IcBindings(q, params); ++b) {
        const bool naive = q != 5 || b < profile_.naive_ic5_bindings;
        run_.Check(IcMatches(q, g, oracle, params, b, naive),
                   OpName("IC ", q, false) + " binding " + std::to_string(b) +
                       " differs from its oracle");
      }
    }
    namespace nv = snb::interactive::naive;
    for (const auto& p : params.ic1) {
      run_.Check(ia::RunIs1(g, p.person_id) == nv::RunIs1(g, p.person_id) &&
                     ia::RunIs2(g, p.person_id) == nv::RunIs2(g, p.person_id) &&
                     ia::RunIs3(g, p.person_id) == nv::RunIs3(g, p.person_id),
                 "IS 1-3 differ from the naive engine");
      for (const auto& r : ia::RunIs2(g, p.person_id)) {
        for (auto [id, is_post] :
             {std::pair{r.message_id, r.message_id == r.original_post_id},
              std::pair{r.original_post_id, true}}) {
          run_.Check(
              ia::RunIs4(g, id, is_post) == nv::RunIs4(g, id, is_post) &&
                  ia::RunIs5(g, id, is_post) == nv::RunIs5(g, id, is_post) &&
                  ia::RunIs6(g, id, is_post) == nv::RunIs6(g, id, is_post) &&
                  ia::RunIs7(g, id, is_post) == nv::RunIs7(g, id, is_post),
              "IS 4-7 differ from the naive engine");
        }
      }
    }
    std::fprintf(stderr, "[mix] output check: %.1f s\n", check_sw.S());

    run_.Set("mix_ops_per_s", Median(chunk_rates_), "1/s");
    run_.Set("ic_p50_ms", Median(ic_ms_), "ms");
    run_.Set("iu_p50_us", Median(iu_us_), "us");
    for (int q = 1; q <= 14; ++q) {
      run_.Set("interactive." + OpName("ic", q, true) + "_ms",
               Median(lat_ms_[OpName("ic", q, true)]), "ms");
    }
    for (int q = 1; q <= 7; ++q) {
      run_.Set("interactive." + OpName("is", q, false) + "_us",
               Median(lat_ms_[OpName("is", q, false)]) * 1000.0, "us");
    }
    for (int q = 1; q <= 8; ++q) {
      run_.Set("interactive." + OpName("iu", q, false) + "_us",
               Median(lat_ms_[OpName("iu", q, false)]) * 1000.0, "us");
    }
    run_.Count("interactive.ops_first_chunks",
               static_cast<double>(first_chunk_ops_));
    run_.Count("interactive.updates_per_pass", static_cast<double>(n_updates_));
    std::fprintf(stderr,
                 "[mix] %zu chunks in %d passes, %zu ops (%zu IC, %zu IU) in "
                 "%.1f s: %.0f ops/s, IC p50 %.3f ms, IU p50 %.2f us\n",
                 chunks_, passes_, ops_, ic_ms_.size(), iu_us_.size(), wall_s_,
                 Median(chunk_rates_), Median(ic_ms_), Median(iu_us_));
  }

 private:
  static constexpr size_t kMinChunks = 3;

  void StartPass() {
    graph_ = nullptr;
    graph_ = std::make_unique<Graph>(CopyNetwork(ds_.network));
    rng_ = snb::util::Rng(options_.seed, uint64_t{0x313c});
    recent_ = Recent{};
    for (int t = 0; t < 14; ++t) {
      cursor_[t] = 0;
      countdown_[t] = freq_.freq[t];
    }
    u_ = 0;
    ++passes_;
  }

  template <typename Fn>
  double Timed(const std::string& name, Fn&& fn) {
    Stopwatch sw;
    fn();
    const double ms = sw.Ms();
    lat_ms_[name].push_back(ms);
    ++ops_;
    return ms;
  }

  void ShortReads(bool person_centric) {
    Graph& g = *graph_;
    double p = 0.5;
    while (rng_.NextDouble() < p) {
      p *= 0.5;
      if (person_centric && !recent_.persons.empty()) {
        core::Id person =
            recent_.persons[rng_.NextU64() % recent_.persons.size()];
        Timed("is1", [&] { ia::RunIs1(g, person); });
        Timed("is2", [&] {
          for (const auto& r : ia::RunIs2(g, person)) {
            recent_.Message(r.original_post_id, true);
          }
        });
        Timed("is3", [&] {
          for (const auto& r : ia::RunIs3(g, person)) {
            recent_.Person(r.person_id);
          }
        });
      } else if (!recent_.messages.empty()) {
        auto [message, is_post] =
            recent_.messages[rng_.NextU64() % recent_.messages.size()];
        Timed("is4", [&] { ia::RunIs4(g, message, is_post); });
        Timed("is5", [&] {
          for (const auto& r : ia::RunIs5(g, message, is_post)) {
            recent_.Person(r.person_id);
          }
        });
        Timed("is6", [&] { ia::RunIs6(g, message, is_post); });
        Timed("is7", [&] {
          for (const auto& r : ia::RunIs7(g, message, is_post)) {
            recent_.Message(r.comment_id, false);
          }
        });
      } else {
        break;
      }
    }
  }

  // The IC countdowns that fire before insert event u, each IC followed by
  // its short reads, then the event itself.
  void Update(size_t u) {
    Graph& g = *graph_;
    for (int t = 0; t < 14; ++t) {
      if (--countdown_[t] > 0) continue;
      countdown_[t] = freq_.freq[t];
      const size_t n = IcBindings(t + 1, ds_.params);
      if (n == 0) continue;
      const size_t b = cursor_[t]++ % n;
      ic_ms_.push_back(Timed(OpName("ic", t + 1, true), [&] {
        RunIc(t + 1, g, ds_.params, b, recent_);
      }));
      ShortReads(t + 1 != 2 && t + 1 != 8 && t + 1 != 9);
    }
    const datagen::UpdateEvent& event = ds_.updates[u];
    snb::util::Status st;
    const double ms = Timed(OpName("iu", static_cast<int>(event.kind), false),
                            [&] { st = ia::ApplyUpdate(g, event); });
    iu_us_.push_back(ms * 1000.0);
    run_.Check(st.ok(), "ApplyUpdate: " + st.ToString());
  }

  const Dataset& ds_;
  const Profile& profile_;
  const Options& options_;
  RunRecord& run_;
  const core::InteractiveFrequencies freq_;
  const size_t n_updates_;  // insert events per pass: the whole stream
  std::unique_ptr<Graph> graph_;
  snb::util::Rng rng_{0, uint64_t{0}};
  Recent recent_;
  size_t cursor_[14] = {0};
  int32_t countdown_[14] = {0};
  size_t u_ = 0;  // next insert event of the current pass
  int passes_ = 0;
  size_t chunks_ = 0;
  size_t ops_ = 0;
  size_t first_chunk_ops_ = 0;  // ops of the first kMinChunks chunks
  double wall_s_ = 0;
  // Latencies per op type ("ic01", "is1", "iu1"), pooled over the run.
  std::map<std::string, std::vector<double>> lat_ms_;
  std::vector<double> ic_ms_, iu_us_;
  // Ops per second of each chunk: a host stall shorter than half the run
  // moves the median chunk rate, not the reported rate.
  std::vector<double> chunk_rates_;
};

}  // namespace

std::unique_ptr<PhaseRunner> StartMixPhase(const Dataset& ds,
                                           const Profile& profile,
                                           const Options& options,
                                           RunRecord& run) {
  return std::make_unique<MixPhase>(ds, profile, options, run);
}

}  // namespace snb_bench
