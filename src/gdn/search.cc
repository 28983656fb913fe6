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

SearchIndexObject::SearchIndexObject() {
  Handle(search::kRegister, [this](const SearchMatch& entry) -> Status {
    if (entry.globe_name.empty()) {
      return InvalidArgument("empty package name");
    }
    IndexEntry(entry.globe_name, entry.description);
    return OkStatus();
  });
  Handle(search::kUnregister, [this](const search::NameArgs& args) -> Status {
    UnindexEntry(args.globe_name);
    return OkStatus();
  });
  Handle(search::kSearch, [this](search::QueryArgs args) -> Result<search::Matches> {
    std::set<std::string> matches;
    bool first = true;
    for (const std::string& term : Tokenize(args.query)) {
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
    search::Matches result;
    for (const std::string& name : matches) {
      result.matches.push_back({name, descriptions_.at(name)});
    }
    return result;
  });
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

}  // namespace globe::gdn
