// Parameter-curation tests: the P1/P2 properties of spec §3.3 (bounded
// variance, stable distributions), full coverage of all 39 query templates,
// and substitution-parameter file output (§2.3.4.4).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <vector>

#include "datagen/datagen.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"
#include "util/rng.h"

namespace snb::params {
namespace {

class ParamsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DatagenConfig cfg;
    cfg.num_persons = 400;
    cfg.activity_scale = 0.4;
    datagen::GeneratedData data = datagen::Generate(cfg);
    graph_ = new storage::Graph(std::move(data.network));
  }
  static void TearDownTestSuite() { delete graph_; }
  static const storage::Graph& graph() { return *graph_; }

 private:
  static storage::Graph* graph_;
};

storage::Graph* ParamsFixture::graph_ = nullptr;

TEST_F(ParamsFixture, CuratedPersonsHaveBoundedVariance) {
  CurationConfig cfg;
  cfg.per_query = 25;
  CuratedPersons curated = CuratePersons(graph(), cfg);
  ASSERT_GE(curated.selected.size(), 10u);
  // P1: the selected bindings' friend-count spread is far below the
  // population's.
  EXPECT_LT(curated.selected_friend_stddev,
            curated.population_friend_stddev * 0.5);
  for (const PersonCounts& c : curated.selected) {
    EXPECT_GT(c.friends, 0);
  }
}

TEST_F(ParamsFixture, CurationIsDeterministicAndStable) {
  CurationConfig cfg;
  cfg.per_query = 15;
  CuratedPersons a = CuratePersons(graph(), cfg);
  CuratedPersons b = CuratePersons(graph(), cfg);
  ASSERT_EQ(a.selected.size(), b.selected.size());
  for (size_t i = 0; i < a.selected.size(); ++i) {
    EXPECT_EQ(a.selected[i].person, b.selected[i].person);  // P2
  }
}

TEST_F(ParamsFixture, TwoSamplesHaveSimilarCountDistributions) {
  // P2: different-size samples select around the same median.
  CurationConfig small_cfg;
  small_cfg.per_query = 10;
  CurationConfig large_cfg;
  large_cfg.per_query = 30;
  CuratedPersons small = CuratePersons(graph(), small_cfg);
  CuratedPersons large = CuratePersons(graph(), large_cfg);
  ASSERT_FALSE(small.selected.empty());
  ASSERT_FALSE(large.selected.empty());
  auto mean_friends = [](const CuratedPersons& c) {
    double total = 0;
    for (const PersonCounts& p : c.selected) {
      total += static_cast<double>(p.friends);
    }
    return total / static_cast<double>(c.selected.size());
  };
  double ms = mean_friends(small);
  double ml = mean_friends(large);
  EXPECT_LT(std::abs(ms - ml) / std::max(ms, ml), 0.35);
}

TEST_F(ParamsFixture, AllQueryTemplatesGetBindings) {
  CurationConfig cfg;
  cfg.per_query = 7;
  WorkloadParameters wp = CurateParameters(graph(), cfg);
  EXPECT_EQ(wp.ic1.size(), 7u);
  EXPECT_EQ(wp.ic7.size(), 7u);
  EXPECT_EQ(wp.ic14.size(), 7u);
  EXPECT_EQ(wp.bi1.size(), 7u);
  EXPECT_EQ(wp.bi13.size(), 7u);
  EXPECT_EQ(wp.bi25.size(), 7u);
  // Spot-check binding plausibility.
  for (const auto& p : wp.ic1) {
    EXPECT_NE(graph().PersonIdx(p.person_id), storage::kNoIdx);
    EXPECT_FALSE(p.first_name.empty());
  }
  for (const auto& p : wp.bi13) {
    EXPECT_NE(graph().PlaceByName(p.country), storage::kNoIdx);
  }
  for (const auto& p : wp.bi20) {
    EXPECT_EQ(p.tag_classes.size(), 3u);
  }
  for (const auto& p : wp.bi16) {
    EXPECT_GE(p.max_path_distance, p.min_path_distance);
  }
}

TEST_F(ParamsFixture, CuratedPersonsAreWellConnected) {
  CurationConfig cfg;
  WorkloadParameters wp = CurateParameters(graph(), cfg);
  for (const auto& p : wp.ic2) {
    uint32_t idx = graph().PersonIdx(p.person_id);
    ASSERT_NE(idx, storage::kNoIdx);
    EXPECT_GT(graph().Knows().Degree(idx), 0u);
  }
}

/// Coefficient of variation of the work a per-person template touches: the
/// friend-adjacent message count (IC 2's candidate set) of each person.
double WorkCv(const storage::Graph& graph,
              const std::vector<core::Id>& persons) {
  double sum = 0, sq = 0;
  for (core::Id id : persons) {
    double work = 0;
    graph.Knows().ForEach(graph.PersonIdx(id), [&](uint32_t f) {
      work += static_cast<double>(graph.PersonPosts().Degree(f) +
                                  graph.PersonComments().Degree(f));
    });
    sum += work;
    sq += work * work;
  }
  const double n = static_cast<double>(persons.size());
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  return mean > 0 ? std::sqrt(std::max(var, 0.0)) / mean : 0;
}

TEST_F(ParamsFixture, CuratedBindingsSpreadWorkLessThanRandomOnes) {
  // P1 measured on the work itself, not on the curation's own statistic:
  // the curated IC 2 persons must touch a more uniform number of messages
  // than an equal-size uniform sample of persons.
  CurationConfig cfg;
  cfg.per_query = 10;
  WorkloadParameters wp = CurateParameters(graph(), cfg);
  std::vector<core::Id> curated;
  for (const auto& p : wp.ic2) curated.push_back(p.person_id);
  ASSERT_EQ(curated.size(), 10u);
  util::Rng rng(777);
  std::vector<core::Id> random;
  for (size_t i = 0; i < curated.size(); ++i) {
    random.push_back(graph()
                         .PersonAt(static_cast<uint32_t>(rng.UniformInt(
                             0, static_cast<int64_t>(graph().NumPersons()) -
                                    1)))
                         .id);
  }
  EXPECT_LT(WorkCv(graph(), curated), WorkCv(graph(), random));
}

TEST_F(ParamsFixture, WritesSubstitutionParameterFiles) {
  CurationConfig cfg;
  cfg.per_query = 5;
  WorkloadParameters wp = CurateParameters(graph(), cfg);
  std::string dir = ::testing::TempDir() + "/snb_subst_params";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(WriteSubstitutionParameters(wp, dir).ok());

  EXPECT_TRUE(std::filesystem::exists(dir + "/interactive_1_param.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/bi_1_param.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/bi_16_param.txt"));

  // Lines are JSON-formatted key/value collections (spec §3.3 example).
  std::ifstream in(dir + "/interactive_1_param.txt");
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"personId\""), std::string::npos);
    EXPECT_NE(line.find("\"firstName\""), std::string::npos);
  }
  EXPECT_EQ(lines, 5u);
}

}  // namespace
}  // namespace snb::params
