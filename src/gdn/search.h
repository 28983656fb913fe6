// Attribute-based search (paper §5, §8): "we would like the GDN to support some form
// of attribute-based search, such that people can look for a software package with
// some specific functionality" — listed in §8 as a planned functional addition.
//
// The index is itself a distributed shared object: SearchIndexObject is an ordinary
// semantics subobject, so the index replicates under any of the stock replication
// protocols — each country's HTTPD can hold a slave replica and answer /search
// queries locally. This is exactly the middleware-reuse story the object model
// promises: no new distribution code was written for this feature.
//
// Its methods are declared in namespace search below:
//   idx.register   {globe_name, description}  write  (tokenizes into keywords)
//   idx.unregister {globe_name}               write
//   idx.search     {query} -> matches         read   (AND over query terms)

#ifndef SRC_GDN_SEARCH_H_
#define SRC_GDN_SEARCH_H_

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/dso/runtime.h"
#include "src/dso/subobjects.h"

namespace globe::gdn {

constexpr uint16_t kSearchIndexTypeId = 101;

// One indexed package: what idx.register stores and idx.search returns.
struct SearchMatch {
  std::string globe_name;
  std::string description;

  bool operator==(const SearchMatch&) const = default;

  static constexpr auto kWireFields =
      std::tuple(&SearchMatch::globe_name, &SearchMatch::description);
};

namespace search {

struct NameArgs {
  std::string globe_name;

  static constexpr auto kWireFields = std::tuple(&NameArgs::globe_name);
};

struct QueryArgs {
  std::string query;

  static constexpr auto kWireFields = std::tuple(&QueryArgs::query);
};

struct Matches {
  std::vector<SearchMatch> matches;

  static constexpr auto kWireFields = std::tuple(&Matches::matches);
};

inline constexpr dso::Method<SearchMatch, sim::EmptyMessage> kRegister{
    "idx.register", dso::Access::kWrite};
inline constexpr dso::Method<NameArgs, sim::EmptyMessage> kUnregister{
    "idx.unregister", dso::Access::kWrite};
inline constexpr dso::Method<QueryArgs, Matches> kSearch{"idx.search",
                                                         dso::Access::kRead};

}  // namespace search

class SearchIndexObject : public dso::SemanticsObject {
 public:
  SearchIndexObject();

  Bytes GetState() const override;
  Status SetState(ByteSpan state) override;
  std::unique_ptr<dso::SemanticsObject> CloneEmpty() const override;
  uint16_t type_id() const override { return kSearchIndexTypeId; }

  size_t num_entries() const { return descriptions_.size(); }

  // Lowercased alphanumeric tokens of a text; the indexing unit.
  static std::vector<std::string> Tokenize(std::string_view text);

 private:
  void IndexEntry(const std::string& globe_name, const std::string& description);
  void UnindexEntry(const std::string& globe_name);

  std::map<std::string, std::string> descriptions_;        // name -> description
  std::map<std::string, std::set<std::string>> keywords_;  // token -> names
};

}  // namespace globe::gdn

#endif  // SRC_GDN_SEARCH_H_
