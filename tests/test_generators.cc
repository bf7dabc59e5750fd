#include <gtest/gtest.h>

#include <set>

#include "data/synthetic/movielens_gen.h"
#include "data/synthetic/standard_datasets.h"
#include "data/synthetic/yelp_gen.h"

namespace kgag {
namespace {

MovieLensConfig TinyMlConfig() {
  MovieLensConfig cfg;
  cfg.num_users = 60;
  cfg.num_movies = 50;
  cfg.num_directors = 10;
  cfg.num_actors = 30;
  cfg.num_genres = 6;
  cfg.num_years = 10;
  cfg.num_studios = 5;
  cfg.num_countries = 4;
  cfg.num_languages = 3;
  cfg.num_series = 5;
  return cfg;
}

TEST(MovieLensGenTest, TriplesAreValid) {
  Rng rng(1);
  MovieLensWorld w = GenerateMovieLensWorld(TinyMlConfig(), &rng);
  EXPECT_EQ(w.num_relations, kNumMovieRelations);
  EXPECT_EQ(w.relation_names.size(), static_cast<size_t>(w.num_relations));
  for (const Triple& t : w.kg_triples) {
    EXPECT_GE(t.head, 0);
    EXPECT_LT(t.head, w.num_items);  // heads are movies
    EXPECT_GE(t.tail, w.num_items);  // tails are attribute entities
    EXPECT_LT(t.tail, w.num_entities);
    EXPECT_GE(t.relation, 0);
    EXPECT_LT(t.relation, w.num_relations);
  }
}

TEST(MovieLensGenTest, EveryMovieHasCoreAttributes) {
  Rng rng(2);
  MovieLensWorld w = GenerateMovieLensWorld(TinyMlConfig(), &rng);
  std::vector<int> directors(w.num_items, 0), genres(w.num_items, 0),
      years(w.num_items, 0);
  for (const Triple& t : w.kg_triples) {
    if (t.relation == kDirectedBy) ++directors[t.head];
    if (t.relation == kHasGenre) ++genres[t.head];
    if (t.relation == kReleasedIn) ++years[t.head];
  }
  for (ItemId m = 0; m < w.num_items; ++m) {
    EXPECT_EQ(directors[m], 1) << "movie " << m;
    EXPECT_GE(genres[m], 1) << "movie " << m;
    EXPECT_LE(genres[m], 3) << "movie " << m;
    EXPECT_EQ(years[m], 1) << "movie " << m;
  }
}

TEST(MovieLensGenTest, RatingsWithinBoundsAndDensity) {
  Rng rng(3);
  MovieLensConfig cfg = TinyMlConfig();
  MovieLensWorld w = GenerateMovieLensWorld(cfg, &rng);
  size_t rated = 0;
  for (UserId u = 0; u < w.num_users; ++u) {
    for (ItemId v = 0; v < w.num_items; ++v) {
      const uint8_t r = w.ratings.Get(u, v);
      EXPECT_LE(r, 5);
      rated += (r != 0);
    }
  }
  const double density =
      static_cast<double>(rated) / (w.num_users * w.num_items);
  EXPECT_GT(density, cfg.min_rating_density * 0.5);
  EXPECT_LT(density, cfg.max_rating_density * 1.3);
}

TEST(MovieLensGenTest, HighRatingsAreCommonButNotUniversal) {
  Rng rng(4);
  MovieLensWorld w = GenerateMovieLensWorld(TinyMlConfig(), &rng);
  const double p4 = static_cast<double>(w.ratings.CountAtLeast(4)) /
                    static_cast<double>(w.ratings.CountRated());
  EXPECT_GT(p4, 0.10);
  EXPECT_LT(p4, 0.80);
}

TEST(MovieLensGenTest, DeterministicGivenSeed) {
  Rng rng1(5), rng2(5);
  MovieLensWorld a = GenerateMovieLensWorld(TinyMlConfig(), &rng1);
  MovieLensWorld b = GenerateMovieLensWorld(TinyMlConfig(), &rng2);
  EXPECT_EQ(a.kg_triples.size(), b.kg_triples.size());
  for (size_t i = 0; i < a.kg_triples.size(); ++i) {
    EXPECT_EQ(a.kg_triples[i], b.kg_triples[i]);
  }
  for (UserId u = 0; u < a.num_users; ++u) {
    for (ItemId v = 0; v < a.num_items; ++v) {
      ASSERT_EQ(a.ratings.Get(u, v), b.ratings.Get(u, v));
    }
  }
}

TEST(MovieLensGenTest, KgCarriesPreferenceSignal) {
  // Movies sharing a genre should have higher latent similarity than
  // random pairs — the causal property the propagation block exploits.
  Rng rng(6);
  MovieLensWorld w = GenerateMovieLensWorld(TinyMlConfig(), &rng);
  std::vector<std::set<EntityId>> movie_genres(w.num_items);
  for (const Triple& t : w.kg_triples) {
    if (t.relation == kHasGenre) movie_genres[t.head].insert(t.tail);
  }
  auto dot = [&](ItemId a, ItemId b) {
    double s = 0;
    for (size_t i = 0; i < w.movie_latents[a].size(); ++i) {
      s += w.movie_latents[a][i] * w.movie_latents[b][i];
    }
    return s;
  };
  double shared_sum = 0, other_sum = 0;
  int shared_n = 0, other_n = 0;
  for (ItemId a = 0; a < w.num_items; ++a) {
    for (ItemId b = a + 1; b < w.num_items; ++b) {
      bool shares = false;
      for (EntityId g : movie_genres[a]) {
        if (movie_genres[b].count(g)) {
          shares = true;
          break;
        }
      }
      if (shares) {
        shared_sum += dot(a, b);
        ++shared_n;
      } else {
        other_sum += dot(a, b);
        ++other_n;
      }
    }
  }
  ASSERT_GT(shared_n, 0);
  ASSERT_GT(other_n, 0);
  EXPECT_GT(shared_sum / shared_n, other_sum / other_n + 0.05);
}

YelpConfig TinyYelpConfig() {
  YelpConfig cfg;
  cfg.num_users = 80;
  cfg.num_businesses = 40;
  cfg.num_communities = 6;
  cfg.num_cities = 4;
  cfg.num_neighborhoods = 8;
  cfg.num_categories = 6;
  cfg.num_groups = 60;
  return cfg;
}

TEST(YelpGenTest, TriplesValidAndSeventeenRelations) {
  Rng rng(7);
  YelpWorld w = GenerateYelpWorld(TinyYelpConfig(), &rng);
  EXPECT_EQ(w.num_relations, 17);
  EXPECT_EQ(w.relation_names.size(), 17u);
  std::set<RelationId> used;
  for (const Triple& t : w.kg_triples) {
    EXPECT_GE(t.head, 0);
    EXPECT_LT(t.head, w.num_items);
    EXPECT_GE(t.tail, w.num_items);
    EXPECT_LT(t.tail, w.num_entities);
    used.insert(t.relation);
  }
  EXPECT_EQ(used.size(), 17u);  // every relation type occurs
}

TEST(YelpGenTest, GroupsAreTrianglesOfDistinctUsers) {
  Rng rng(8);
  YelpWorld w = GenerateYelpWorld(TinyYelpConfig(), &rng);
  ASSERT_GT(w.groups.num_groups(), 0);
  for (GroupId g = 0; g < w.groups.num_groups(); ++g) {
    auto members = w.groups.MembersOf(g);
    ASSERT_EQ(members.size(), 3u);
    std::set<UserId> uniq(members.begin(), members.end());
    EXPECT_EQ(uniq.size(), 3u);
    // Friend triangles live inside one community.
    EXPECT_EQ(w.user_community[members[0]], w.user_community[members[1]]);
    EXPECT_EQ(w.user_community[members[1]], w.user_community[members[2]]);
  }
}

TEST(YelpGenTest, OneInteractionPerGroup) {
  // Table I: Yelp has Inter./group = 1.00, which is why rec@5 == hit@5.
  Rng rng(9);
  YelpWorld w = GenerateYelpWorld(TinyYelpConfig(), &rng);
  EXPECT_EQ(w.group_item.num_interactions(),
            static_cast<size_t>(w.groups.num_groups()));
  for (GroupId g = 0; g < w.groups.num_groups(); ++g) {
    EXPECT_EQ(w.group_item.RowDegree(g), 1u);
  }
}

TEST(YelpGenTest, VisitsNonEmptyForMostUsers) {
  Rng rng(10);
  YelpWorld w = GenerateYelpWorld(TinyYelpConfig(), &rng);
  int with_visits = 0;
  for (UserId u = 0; u < w.num_users; ++u) {
    if (w.visits.RowDegree(u) > 0) ++with_visits;
  }
  EXPECT_GT(with_visits, w.num_users * 9 / 10);
}

// Standard dataset assembly, across scales (property-style sweep).
class StandardDatasetTest : public ::testing::TestWithParam<double> {};

TEST_P(StandardDatasetTest, AllThreeDatasetsValidate) {
  const double scale = GetParam();
  for (auto make : {MakeMovieLensRandDataset, MakeMovieLensSimiDataset,
                    MakeYelpDataset}) {
    GroupRecDataset ds = make(/*seed=*/11, scale);
    EXPECT_TRUE(ds.Validate().ok()) << ds.name << ": "
                                    << ds.Validate().ToString();
    EXPECT_GT(ds.groups.num_groups(), 0) << ds.name;
    EXPECT_GT(ds.group_item.num_interactions(), 0u) << ds.name;
    EXPECT_GT(ds.user_item.num_interactions(), 0u) << ds.name;
    EXPECT_FALSE(ds.TestItemPool().empty()) << ds.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, StandardDatasetTest,
                         ::testing::Values(0.1, 0.2),
                         [](const ::testing::TestParamInfo<double>&
                                param_info) {
                           return param_info.param == 0.1 ? "tenth" : "fifth";
                         });

TEST(StandardDatasetTest, GroupSizesMatchPaper) {
  EXPECT_EQ(MakeMovieLensRandDataset(1, 0.1).group_size, 8);
  EXPECT_EQ(MakeMovieLensSimiDataset(1, 0.1).group_size, 5);
  EXPECT_EQ(MakeYelpDataset(1, 0.1).group_size, 3);
}

TEST(StandardDatasetTest, SimiDenserThanRand) {
  // Table I: Inter./group is higher on Simi (11.19) than Rand (5.05).
  GroupRecDataset rand_ds = MakeMovieLensRandDataset(13, 0.15);
  GroupRecDataset simi_ds = MakeMovieLensSimiDataset(13, 0.15);
  EXPECT_GT(simi_ds.group_item.MeanRowDegree(),
            rand_ds.group_item.MeanRowDegree());
}

}  // namespace
}  // namespace kgag
