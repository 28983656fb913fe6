#include "src/gdn/search.h"

#include <algorithm>
#include <cctype>

namespace globe::gdn {

std::vector<std::string> SearchIndexObject::Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) {
    tokens.push_back(std::move(current));
  }
  return tokens;
}

void SearchIndexObject::IndexEntry(const std::string& globe_name,
                                   const std::string& description) {
  UnindexEntry(globe_name);
  descriptions_[globe_name] = description;
  for (const std::string& token : Tokenize(globe_name)) {
    keywords_[token].insert(globe_name);
  }
  for (const std::string& token : Tokenize(description)) {
    keywords_[token].insert(globe_name);
  }
}

void SearchIndexObject::UnindexEntry(const std::string& globe_name) {
  if (descriptions_.erase(globe_name) == 0) {
    return;
  }
  for (auto it = keywords_.begin(); it != keywords_.end();) {
    it->second.erase(globe_name);
    it = it->second.empty() ? keywords_.erase(it) : std::next(it);
  }
}

Result<Bytes> SearchIndexObject::Invoke(const dso::Invocation& invocation) {
  ByteReader r(invocation.args);

  if (invocation.method == "idx.register") {
    ASSIGN_OR_RETURN(std::string globe_name, r.ReadString());
    ASSIGN_OR_RETURN(std::string description, r.ReadString());
    if (globe_name.empty()) {
      return InvalidArgument("empty package name");
    }
    IndexEntry(globe_name, description);
    return Bytes{};
  }

  if (invocation.method == "idx.unregister") {
    ASSIGN_OR_RETURN(std::string globe_name, r.ReadString());
    UnindexEntry(globe_name);
    return Bytes{};
  }

  if (invocation.method == "idx.search") {
    ASSIGN_OR_RETURN(std::string query, r.ReadString());
    std::vector<std::string> terms = Tokenize(query);
    std::set<std::string> matches;
    bool first = true;
    for (const std::string& term : terms) {
      auto it = keywords_.find(term);
      std::set<std::string> hits =
          it == keywords_.end() ? std::set<std::string>{} : it->second;
      if (first) {
        matches = std::move(hits);
        first = false;
      } else {
        // AND semantics: intersect.
        std::set<std::string> intersection;
        std::set_intersection(matches.begin(), matches.end(), hits.begin(), hits.end(),
                              std::inserter(intersection, intersection.begin()));
        matches = std::move(intersection);
      }
      if (matches.empty()) {
        break;
      }
    }
    ByteWriter w;
    w.WriteVarint(matches.size());
    for (const std::string& name : matches) {
      w.WriteString(name);
      w.WriteString(descriptions_.at(name));
    }
    return w.Take();
  }

  if (invocation.method == "idx.size") {
    ByteWriter w;
    w.WriteU64(descriptions_.size());
    return w.Take();
  }

  return NotFound("search index has no method " + invocation.method);
}

bool SearchIndexObject::IsReadOnly(std::string_view method) const {
  return method == "idx.search" || method == "idx.size";
}

Bytes SearchIndexObject::GetState() const {
  ByteWriter w;
  w.WriteVarint(descriptions_.size());
  for (const auto& [name, description] : descriptions_) {
    w.WriteString(name);
    w.WriteString(description);
  }
  return w.Take();
}

Status SearchIndexObject::SetState(ByteSpan state) {
  ByteReader r(state);
  ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
  std::map<std::string, std::string> entries;
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(std::string name, r.ReadString());
    ASSIGN_OR_RETURN(std::string description, r.ReadString());
    entries[name] = std::move(description);
  }
  descriptions_.clear();
  keywords_.clear();
  for (auto& [name, description] : entries) {
    IndexEntry(name, description);
  }
  return OkStatus();
}

std::unique_ptr<dso::SemanticsObject> SearchIndexObject::CloneEmpty() const {
  return std::make_unique<SearchIndexObject>();
}

namespace search {

dso::Invocation Register(std::string_view globe_name, std::string_view description) {
  ByteWriter w;
  w.WriteString(globe_name);
  w.WriteString(description);
  return dso::Invocation{"idx.register", w.Take(), /*read_only=*/false};
}

dso::Invocation Unregister(std::string_view globe_name) {
  ByteWriter w;
  w.WriteString(globe_name);
  return dso::Invocation{"idx.unregister", w.Take(), /*read_only=*/false};
}

dso::Invocation Query(std::string_view query) {
  ByteWriter w;
  w.WriteString(query);
  return dso::Invocation{"idx.search", w.Take(), /*read_only=*/true};
}

Result<std::vector<SearchMatch>> ParseMatches(ByteSpan data) {
  ByteReader r(data);
  ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
  std::vector<SearchMatch> matches;
  matches.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SearchMatch match;
    ASSIGN_OR_RETURN(match.globe_name, r.ReadString());
    ASSIGN_OR_RETURN(match.description, r.ReadString());
    matches.push_back(std::move(match));
  }
  return matches;
}

}  // namespace search

void SearchProxy::Register(std::string_view globe_name, std::string_view description,
                           StatusCallback done) {
  dso::Invocation invocation = search::Register(globe_name, description);
  bound_->Invoke(std::move(invocation.method), std::move(invocation.args), false,
                 [done = std::move(done)](Result<Bytes> result) {
                   done(result.ok() ? OkStatus() : result.status());
                 });
}

void SearchProxy::Unregister(std::string_view globe_name, StatusCallback done) {
  dso::Invocation invocation = search::Unregister(globe_name);
  bound_->Invoke(std::move(invocation.method), std::move(invocation.args), false,
                 [done = std::move(done)](Result<Bytes> result) {
                   done(result.ok() ? OkStatus() : result.status());
                 });
}

void SearchProxy::Search(std::string_view query, MatchCallback done) {
  dso::Invocation invocation = search::Query(query);
  bound_->Invoke(std::move(invocation.method), std::move(invocation.args), true,
                 [done = std::move(done)](Result<Bytes> result) {
                   if (!result.ok()) {
                     done(result.status());
                     return;
                   }
                   done(search::ParseMatches(*result));
                 });
}

}  // namespace globe::gdn
