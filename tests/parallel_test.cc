// Tests for the parallel execution paths: every morsel kernel (CP-1.2) run
// on a pool must be bit-identical to the same kernel run inline (the
// sequential engine) AND to the naive engine at every pool size; the
// creation-date index must visit exactly the messages a filtered full scan
// visits, including messages appended to the unsorted tail by updates, and
// its scan units must partition that set; cancellation must surface from
// inside a morsel loop without wedging the pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/naive.h"
#include "datagen/datagen.h"
#include "engine/morsel.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"
#include "storage/message_index.h"
#include "util/thread_pool.h"

namespace snb {
namespace {

class ParallelFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Drop the minimum-work fan-out floor: the fixture is deliberately tiny,
    // and these tests (run under TSan in check.sh) must still drive the
    // morsel machinery rather than collapse to the inline path.
    engine::internal::GlobalMorselTuning().min_morsels_for_fanout = 1;
    datagen::DatagenConfig cfg;
    cfg.num_persons = 350;
    cfg.activity_scale = 0.5;
    datagen::GeneratedData data = datagen::Generate(cfg);
    graph_ = new storage::Graph(std::move(data.network));
    params::CurationConfig pc;
    pc.per_query = 4;
    params_ = new params::WorkloadParameters(
        params::CurateParameters(*graph_, pc));
    pool_ = new util::ThreadPool(4);
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete params_;
    delete graph_;
    engine::internal::GlobalMorselTuning() = engine::internal::MorselTuning{};
  }
  static const storage::Graph& graph() { return *graph_; }
  static const params::WorkloadParameters& params() { return *params_; }
  static util::ThreadPool& pool() { return *pool_; }

  /// Cross-validates one query template: for every curated binding the
  /// naive engine and the kernel fanned out at 1/2/4/8 threads must all
  /// return exactly the rows of the kernel run inline.
  template <typename Bindings, typename RunFn, typename NaiveFn>
  static void CheckQuery(const char* name, const Bindings& bindings,
                         RunFn run, NaiveFn naive) {
    util::ThreadPool pools[] = {util::ThreadPool(1), util::ThreadPool(2),
                                util::ThreadPool(4), util::ThreadPool(8)};
    ASSERT_FALSE(bindings.empty()) << name;
    for (const auto& p : bindings) {
      const auto expected = run(graph(), p, nullptr);
      EXPECT_EQ(naive(graph(), p), expected) << name << " (naive)";
      for (util::ThreadPool& tp : pools) {
        EXPECT_EQ(run(graph(), p, &tp), expected)
            << name << " threads=" << tp.num_threads();
      }
    }
  }

 private:
  static storage::Graph* graph_;
  static params::WorkloadParameters* params_;
  static util::ThreadPool* pool_;
};

storage::Graph* ParallelFixture::graph_ = nullptr;
params::WorkloadParameters* ParallelFixture::params_ = nullptr;
util::ThreadPool* ParallelFixture::pool_ = nullptr;

TEST_F(ParallelFixture, Bi1MatchesSequentialAndNaive) {
  CheckQuery("BI 1", params().bi1, bi::RunBi1, bi::naive::RunBi1);
  // Degenerate date (nothing qualifies) must also agree.
  bi::Bi1Params empty{core::DateFromCivil(2009, 1, 1)};
  EXPECT_EQ(bi::RunBi1(graph(), empty, &pool()),
            bi::RunBi1(graph(), empty));
}

TEST_F(ParallelFixture, Bi2MatchesSequentialAndNaive) {
  CheckQuery("BI 2", params().bi2, bi::RunBi2, bi::naive::RunBi2);
}

TEST_F(ParallelFixture, Bi3MatchesSequentialAndNaive) {
  CheckQuery("BI 3", params().bi3, bi::RunBi3, bi::naive::RunBi3);
}

TEST_F(ParallelFixture, Bi6MatchesSequentialAndNaive) {
  CheckQuery("BI 6", params().bi6, bi::RunBi6, bi::naive::RunBi6);
}

TEST_F(ParallelFixture, Bi12MatchesSequentialAndNaive) {
  CheckQuery("BI 12", params().bi12, bi::RunBi12, bi::naive::RunBi12);
}

TEST_F(ParallelFixture, Bi13MatchesSequentialAndNaive) {
  CheckQuery("BI 13", params().bi13, bi::RunBi13, bi::naive::RunBi13);
}

TEST_F(ParallelFixture, Bi14MatchesSequentialAndNaive) {
  CheckQuery("BI 14", params().bi14, bi::RunBi14, bi::naive::RunBi14);
}

TEST_F(ParallelFixture, Bi17MatchesSequentialAndNaive) {
  CheckQuery("BI 17", params().bi17, bi::RunBi17, bi::naive::RunBi17);
}

TEST_F(ParallelFixture, Bi20MatchesSequentialAndNaive) {
  CheckQuery("BI 20", params().bi20, bi::RunBi20, bi::naive::RunBi20);
  bi::Bi20Params with_unknown{{"Thing", "NoSuchClass", "Person"}};
  EXPECT_EQ(bi::RunBi20(graph(), with_unknown, &pool()),
            bi::RunBi20(graph(), with_unknown));
}

TEST_F(ParallelFixture, Bi23MatchesSequentialAndNaive) {
  CheckQuery("BI 23", params().bi23, bi::RunBi23, bi::naive::RunBi23);
}

TEST_F(ParallelFixture, Bi24MatchesSequentialAndNaive) {
  CheckQuery("BI 24", params().bi24, bi::RunBi24, bi::naive::RunBi24);
}

TEST_F(ParallelFixture, ParallelBi1DeterministicAcrossPoolSizes) {
  util::ThreadPool one(1), many(8);
  const bi::Bi1Params& p = params().bi1[0];
  EXPECT_EQ(bi::RunBi1(graph(), p, &one), bi::RunBi1(graph(), p, &many));
}

TEST_F(ParallelFixture, CancelledTokenAbortsParallelQueryAndPoolSurvives) {
  bi::CancelToken token;
  token.RequestStop();
  {
    bi::ScopedCancelToken scoped(&token);
    EXPECT_THROW(bi::RunBi1(graph(), params().bi1[0], &pool()),
                 bi::QueryCancelled);
    EXPECT_THROW(bi::RunBi20(graph(), params().bi20[0], &pool()),
                 bi::QueryCancelled);
  }
  // The abandoned morsels must not leave the pool wedged or poisoned.
  EXPECT_EQ(bi::RunBi1(graph(), params().bi1[0], &pool()),
            bi::RunBi1(graph(), params().bi1[0]));
}

// ---- Creation-date index / zone-map pruning ------------------------------

class MessageIndexFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::DatagenConfig cfg;
    cfg.num_persons = 200;
    cfg.activity_scale = 0.5;
    datagen::GeneratedData data = datagen::Generate(cfg);
    graph_ = std::make_unique<storage::Graph>(std::move(data.network));
  }

  storage::Graph& graph() { return *graph_; }

  /// Reference: full scan + per-message filter, sorted for set comparison.
  std::vector<uint32_t> FilteredFullScan(core::DateTime start,
                                         core::DateTime end) {
    std::vector<uint32_t> out;
    graph().ForEachMessage([&](uint32_t msg) {
      core::DateTime d = graph().MessageCreationDate(msg);
      if (d >= start && d < end) out.push_back(msg);
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<uint32_t> RangeScan(core::DateTime start, core::DateTime end) {
    std::vector<uint32_t> out;
    graph().ForEachMessageInRange(start, end,
                                  [&](uint32_t msg) { out.push_back(msg); });
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<storage::Graph> graph_;
};

TEST_F(MessageIndexFixture, RangeScanVisitsExactlyTheWindowMessages) {
  const core::DateTime windows[][2] = {
      {core::DateTimeFromCivil(2010, 6, 1), core::DateTimeFromCivil(2010, 7, 1)},
      {core::DateTimeFromCivil(2011, 1, 1), core::DateTimeFromCivil(2011, 4, 1)},
      {storage::kMinMessageDate, core::DateTimeFromCivil(2011, 1, 1)},
      {core::DateTimeFromCivil(2012, 1, 1), storage::kMaxMessageDate},
      {storage::kMinMessageDate, storage::kMaxMessageDate},
      // Empty window.
      {core::DateTimeFromCivil(1990, 1, 1), core::DateTimeFromCivil(1991, 1, 1)},
  };
  for (const auto& w : windows) {
    EXPECT_EQ(RangeScan(w[0], w[1]), FilteredFullScan(w[0], w[1]));
  }
}

TEST_F(MessageIndexFixture, MessageRangeUnitsPartitionTheWindow) {
  const core::DateTime start = core::DateTimeFromCivil(2010, 6, 1);
  const core::DateTime end = core::DateTimeFromCivil(2010, 9, 1);
  const storage::Graph::MessageRangeView view =
      graph().MessageRange(start, end);
  // Odd-sized unit slices, as morsels would hand them out, must together
  // visit exactly the window's messages once each.
  std::vector<uint32_t> from_slices;
  for (size_t i = 0; i < view.size(); i += 7) {
    view.ForEach(i, std::min(view.size(), i + 7),
                 [&](uint32_t msg) { from_slices.push_back(msg); });
  }
  std::sort(from_slices.begin(), from_slices.end());
  EXPECT_EQ(from_slices, FilteredFullScan(start, end));
}

TEST_F(MessageIndexFixture, FlatMessageSlicesPartitionTheFullScan) {
  std::vector<uint32_t> full, from_slices;
  graph().ForEachMessage([&](uint32_t msg) { full.push_back(msg); });
  const size_t n = graph().NumMessages();
  for (size_t i = 0; i < n; i += 1000) {
    graph().ForEachMessageIn(i, std::min(n, i + 1000), [&](uint32_t msg) {
      from_slices.push_back(msg);
    });
  }
  EXPECT_EQ(from_slices, full);
}

TEST_F(MessageIndexFixture, OneMonthWindowExaminesStrictlyFewerCandidates) {
  // The sorted base turns a one-month window into a contiguous slice, so a
  // range scan must examine strictly fewer index entries than the full
  // message count (the bench report records the same ratio at scale).
  const size_t total = graph().NumMessages();
  ASSERT_GT(total, 0u);
  const size_t candidates = graph().MessageIndex().CandidatesInRange(
      core::DateTimeFromCivil(2010, 6, 1), core::DateTimeFromCivil(2010, 7, 1));
  EXPECT_LT(candidates, total);
  // Candidates can never undercount the actual matches.
  EXPECT_GE(candidates, RangeScan(core::DateTimeFromCivil(2010, 6, 1),
                                  core::DateTimeFromCivil(2010, 7, 1))
                            .size());
}

TEST_F(MessageIndexFixture, AppendedMessagesLandInTheTailAndAreVisible) {
  const size_t base = graph().MessageIndex().base_size();
  // Append clones of existing records with fresh ids; creation dates far
  // outside the generated range make them easy to address with a window.
  const core::DateTime tail_date = core::DateTimeFromCivil(2030, 6, 15);
  core::Post post = graph().PostAt(0);
  post.id = 1u << 30;
  post.creation_date = tail_date;
  graph().AddPost(post);
  core::Comment comment = graph().CommentAt(0);
  comment.id = 1u << 30;
  comment.creation_date = tail_date + core::kMillisPerDay;
  graph().AddComment(comment);

  // Appends grow the tail, never the sorted base (readers of the base stay
  // valid under the single-writer contract).
  EXPECT_EQ(graph().MessageIndex().base_size(), base);
  EXPECT_EQ(graph().MessageIndex().tail_size(), 2u);

  // Tail messages are visible to range scans, views and candidate counts.
  const core::DateTime w0 = core::DateTimeFromCivil(2030, 1, 1);
  const core::DateTime w1 = core::DateTimeFromCivil(2031, 1, 1);
  EXPECT_EQ(RangeScan(w0, w1).size(), 2u);
  EXPECT_EQ(RangeScan(w0, w1), FilteredFullScan(w0, w1));
  size_t in_view = 0;
  const storage::Graph::MessageRangeView view = graph().MessageRange(w0, w1);
  view.ForEach(0, view.size(), [&](uint32_t) { ++in_view; });
  EXPECT_EQ(in_view, 2u);
  EXPECT_GE(graph().MessageIndex().CandidatesInRange(w0, w1), 2u);
  // A window before the appends never touches the tail block.
  EXPECT_EQ(RangeScan(core::DateTimeFromCivil(2010, 6, 1),
                      core::DateTimeFromCivil(2010, 7, 1)),
            FilteredFullScan(core::DateTimeFromCivil(2010, 6, 1),
                             core::DateTimeFromCivil(2010, 7, 1)));

  // The engines agree on the mutated graph too — BI 1 with a far-future
  // cutoff aggregates over both the base and the tail.
  bi::Bi1Params p{core::DateFromCivil(2032, 1, 1)};
  util::ThreadPool tp(4);
  const auto expected = bi::RunBi1(graph(), p);
  EXPECT_EQ(bi::naive::RunBi1(graph(), p), expected);
  EXPECT_EQ(bi::RunBi1(graph(), p, &tp), expected);
  // BI 12's bound-pruned scan of a window holding only the tail: both
  // appended messages (no likes, threshold -1) come from the tail block.
  bi::Bi12Params p12{core::DateFromCivil(2030, 1, 1), -1};
  const auto expected12 = bi::naive::RunBi12(graph(), p12);
  EXPECT_EQ(expected12.size(), 2u);
  EXPECT_EQ(bi::RunBi12(graph(), p12), expected12);
  EXPECT_EQ(bi::RunBi12(graph(), p12, &tp), expected12);
}

}  // namespace
}  // namespace snb
