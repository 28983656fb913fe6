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
// Marshalled methods:
//   idx.register   {globe_name, description}  write  (tokenizes into keywords)
//   idx.unregister {globe_name}               write
//   idx.search     {query} -> matches         read   (AND over query terms)
//   idx.size       {} -> u64                  read

#ifndef SRC_GDN_SEARCH_H_
#define SRC_GDN_SEARCH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/dso/runtime.h"
#include "src/dso/subobjects.h"

namespace globe::gdn {

constexpr uint16_t kSearchIndexTypeId = 101;

struct SearchMatch {
  std::string globe_name;
  std::string description;

  bool operator==(const SearchMatch&) const = default;
};

class SearchIndexObject : public dso::SemanticsObject {
 public:
  SearchIndexObject() = default;

  Result<Bytes> Invoke(const dso::Invocation& invocation) override;
  // True for exactly the read methods listed at the top of this file.
  bool IsReadOnly(std::string_view method) const override;
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

// Invocation builders / parsers.
namespace search {
dso::Invocation Register(std::string_view globe_name, std::string_view description);
dso::Invocation Unregister(std::string_view globe_name);
dso::Invocation Query(std::string_view query);
Result<std::vector<SearchMatch>> ParseMatches(ByteSpan data);
}  // namespace search

// Typed client over a bound search-index object.
class SearchProxy {
 public:
  explicit SearchProxy(std::unique_ptr<dso::BoundObject> bound) : bound_(std::move(bound)) {}

  using MatchCallback = std::function<void(Result<std::vector<SearchMatch>>)>;
  using StatusCallback = std::function<void(Status)>;

  void Register(std::string_view globe_name, std::string_view description,
                StatusCallback done);
  void Unregister(std::string_view globe_name, StatusCallback done);
  void Search(std::string_view query, MatchCallback done);

  dso::BoundObject* bound() { return bound_.get(); }

 private:
  std::unique_ptr<dso::BoundObject> bound_;
};

}  // namespace globe::gdn

#endif  // SRC_GDN_SEARCH_H_
