// Tests for the attribute-based search extension (paper §5/§8 future work): the
// search-index semantics object, its behaviour under replication (it is itself a
// DSO), and the HTTP /search endpoint.

#include <gtest/gtest.h>

#include "src/gdn/search.h"
#include "src/gdn/world.h"

namespace globe::gdn {
namespace {

// ---------------------------------------------------------------- Tokenizer

TEST(TokenizeTest, SplitsOnNonAlnum) {
  EXPECT_EQ(SearchIndexObject::Tokenize("/apps/graphics/Gimp"),
            (std::vector<std::string>{"apps", "graphics", "gimp"}));
  EXPECT_EQ(SearchIndexObject::Tokenize("GNU Image-Manipulation  Program!"),
            (std::vector<std::string>{"gnu", "image", "manipulation", "program"}));
  EXPECT_TRUE(SearchIndexObject::Tokenize("---").empty());
  EXPECT_TRUE(SearchIndexObject::Tokenize("").empty());
}

// ---------------------------------------------------------------- Index semantics

class SearchIndexTest : public ::testing::Test {
 protected:
  Status Register(const std::string& name, const std::string& description) {
    return index_.Invoke(search::kRegister.Marshal({name, description})).status();
  }

  std::vector<SearchMatch> Query(const std::string& query) {
    auto result =
        search::kSearch.Unmarshal(index_.Invoke(search::kSearch.Marshal({query})));
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->matches : std::vector<SearchMatch>{};
  }

  SearchIndexObject index_;
};

TEST_F(SearchIndexTest, FindsByDescriptionWord) {
  ASSERT_TRUE(Register("/apps/graphics/Gimp", "GNU image manipulation program").ok());
  ASSERT_TRUE(Register("/apps/text/teTeX", "TeX typesetting distribution").ok());

  auto matches = Query("image");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].globe_name, "/apps/graphics/Gimp");
}

TEST_F(SearchIndexTest, FindsByNameComponent) {
  ASSERT_TRUE(Register("/apps/graphics/Gimp", "painting").ok());
  auto matches = Query("gimp");
  ASSERT_EQ(matches.size(), 1u);
}

TEST_F(SearchIndexTest, QueryIsCaseInsensitive) {
  ASSERT_TRUE(Register("/apps/devel/gcc", "GNU Compiler Collection").ok());
  EXPECT_EQ(Query("COMPILER").size(), 1u);
  EXPECT_EQ(Query("gnu compiler").size(), 1u);
}

TEST_F(SearchIndexTest, MultiTermQueryIsConjunctive) {
  ASSERT_TRUE(Register("/apps/graphics/Gimp", "GNU image editor").ok());
  ASSERT_TRUE(Register("/apps/devel/gcc", "GNU compiler").ok());
  EXPECT_EQ(Query("gnu").size(), 2u);
  auto matches = Query("gnu image");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].globe_name, "/apps/graphics/Gimp");
  EXPECT_TRUE(Query("gnu haskell").empty());
}

TEST_F(SearchIndexTest, NoMatchesForUnknownTerm) {
  ASSERT_TRUE(Register("/apps/x", "something").ok());
  EXPECT_TRUE(Query("nonexistent").empty());
}

TEST_F(SearchIndexTest, ReregisterReplacesEntry) {
  ASSERT_TRUE(Register("/apps/tool", "old words here").ok());
  ASSERT_TRUE(Register("/apps/tool", "new description").ok());
  EXPECT_TRUE(Query("old").empty());
  EXPECT_EQ(Query("new").size(), 1u);
  EXPECT_EQ(index_.num_entries(), 1u);
}

TEST_F(SearchIndexTest, UnregisterRemovesFromAllKeywords) {
  ASSERT_TRUE(Register("/apps/tool", "alpha beta gamma").ok());
  ASSERT_TRUE(index_.Invoke(search::kUnregister.Marshal({"/apps/tool"})).ok());
  EXPECT_TRUE(Query("alpha").empty());
  EXPECT_TRUE(Query("gamma").empty());
  EXPECT_EQ(index_.num_entries(), 0u);
}

TEST_F(SearchIndexTest, EmptyNameRejected) {
  EXPECT_FALSE(Register("", "whatever").ok());
}

TEST_F(SearchIndexTest, StateRoundTripPreservesIndex) {
  ASSERT_TRUE(Register("/apps/a", "first package").ok());
  ASSERT_TRUE(Register("/apps/b", "second package").ok());

  SearchIndexObject restored;
  ASSERT_TRUE(restored.SetState(index_.GetState()).ok());
  auto result =
      search::kSearch.Unmarshal(restored.Invoke(search::kSearch.Marshal({"second"})));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->matches.size(), 1u);
  EXPECT_EQ(result->matches[0].globe_name, "/apps/b");
}

// ---------------------------------------------------------------- End to end

TEST(SearchWorldTest, SearchOverHttpFindsPublishedPackages) {
  GdnWorld world;
  ASSERT_FALSE(world.search_oid().IsNil());

  ASSERT_TRUE(world
                  .PublishPackage("/apps/graphics/Gimp", {{"bin", ToBytes("x")}},
                                  dso::kProtoMasterSlave, 0, {},
                                  "GNU image manipulation program")
                  .ok());
  ASSERT_TRUE(world
                  .PublishPackage("/apps/devel/gcc", {{"bin", ToBytes("y")}},
                                  dso::kProtoMasterSlave, 1, {},
                                  "GNU compiler collection")
                  .ok());

  // A user on the far continent searches via their local HTTPD.
  sim::NodeId user = world.user_hosts().back();
  auto html = world.SearchViaHttp(user, "image");
  ASSERT_TRUE(html.ok()) << html.status();
  EXPECT_NE(html->find("/apps/graphics/Gimp"), std::string::npos);
  EXPECT_EQ(html->find("/apps/devel/gcc"), std::string::npos);

  auto both = world.SearchViaHttp(user, "gnu");
  ASSERT_TRUE(both.ok());
  EXPECT_NE(both->find("Gimp"), std::string::npos);
  EXPECT_NE(both->find("gcc"), std::string::npos);
}

TEST(SearchWorldTest, IndexReplicaOnEveryGos) {
  GdnWorld world;
  for (size_t i = 0; i < world.num_countries(); ++i) {
    EXPECT_NE(world.services().GosOf(i)->FindReplica(world.search_oid()), nullptr)
        << "country " << i;
  }
}

TEST(SearchWorldTest, SearchUpdatesPropagateToSlaves) {
  GdnWorld world;
  ASSERT_TRUE(world.RegisterInSearchIndex("/apps/late", "freshly indexed package").ok());

  // The slave replica on the last country's GOS answers locally.
  auto* slave =
      world.services().GosOf(world.num_countries() - 1)->FindReplica(world.search_oid());
  ASSERT_NE(slave, nullptr);
  Result<search::Matches> result = Unavailable("pending");
  slave->Invoke(search::kSearch.Marshal({"freshly"}), [&](Result<Bytes> r) {
    result = search::kSearch.Unmarshal(std::move(r));
  });
  world.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->matches.size(), 1u);
  EXPECT_EQ(result->matches[0].globe_name, "/apps/late");
}

TEST(SearchWorldTest, UnregisterRemovesFromSearch) {
  GdnWorld world;
  ASSERT_TRUE(world.RegisterInSearchIndex("/apps/gone", "ephemeral entry").ok());
  ASSERT_TRUE(world.UnregisterFromSearchIndex("/apps/gone").ok());
  auto html = world.SearchViaHttp(world.user_hosts()[0], "ephemeral");
  ASSERT_TRUE(html.ok());
  EXPECT_NE(html->find("0 match(es)"), std::string::npos);
}

TEST(SearchWorldTest, BadSearchRequestIs400) {
  GdnWorld world;
  auto browser = world.MakeBrowser(world.user_hosts()[0]);
  Result<http::HttpResponse> out = Unavailable("pending");
  browser->Fetch(world.NearestHttpd(world.user_hosts()[0])->node(), "/search",
                 [&](Result<http::HttpResponse> r) { out = std::move(r); });
  world.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->status_code, 400);
}

}  // namespace
}  // namespace globe::gdn
