#include "src/gdn/package.h"

#include "src/util/sha256.h"

namespace globe::gdn {

PackageObject::PackageObject() {
  Handle(pkg::kAddFile, [this](pkg::FileArgs args) -> Status {
    if (args.path.empty()) {
      return InvalidArgument("file path may not be empty");
    }
    std::string digest = Sha256::HexDigest(args.content);
    files_[args.path] = FileEntry{std::move(args.content), std::move(digest)};
    return OkStatus();
  });
  Handle(pkg::kRemoveFile, [this](const pkg::PathArgs& args) -> Status {
    if (files_.erase(args.path) == 0) {
      return NotFound("no such file in package: " + args.path);
    }
    return OkStatus();
  });
  Handle(pkg::kSetDescription, [this](pkg::Text args) -> Status {
    description_ = std::move(args.text);
    return OkStatus();
  });
  Handle(pkg::kListContents, [this](const sim::EmptyMessage&) -> Result<pkg::Listing> {
    pkg::Listing listing;
    listing.files.reserve(files_.size());
    for (const auto& [path, entry] : files_) {
      listing.files.push_back({path, entry.content.size(), entry.sha256_hex});
    }
    return listing;
  });
  Handle(pkg::kGetFileContents, [this](const pkg::PathArgs& args) -> Result<Bytes> {
    ASSIGN_OR_RETURN(const FileEntry* entry, FindFile(args.path));
    return entry->content;
  });
  Handle(pkg::kGetFileInfo, [this](pkg::PathArgs args) -> Result<FileInfo> {
    ASSIGN_OR_RETURN(const FileEntry* entry, FindFile(args.path));
    return FileInfo{std::move(args.path), entry->content.size(), entry->sha256_hex};
  });
  Handle(pkg::kGetDescription, [this](const sim::EmptyMessage&) -> Result<pkg::Text> {
    return pkg::Text{description_};
  });
}

Result<const PackageObject::FileEntry*> PackageObject::FindFile(
    const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFound("no such file in package: " + path);
  }
  return &it->second;
}

Bytes PackageObject::GetState() const {
  // Sized up front: a writer grown field by field copies the whole state again
  // each time a digest lands behind a file that filled its capacity.
  constexpr size_t kMaxVarintBytes = 10;
  size_t size = 2 * kMaxVarintBytes + description_.size();
  for (const auto& [path, entry] : files_) {
    size += 3 * kMaxVarintBytes + path.size() + entry.content.size() +
            entry.sha256_hex.size();
  }
  ByteWriter w;
  w.Reserve(size);
  w.WriteString(description_);
  w.WriteVarint(files_.size());
  for (const auto& [path, entry] : files_) {
    w.WriteString(path);
    w.WriteLengthPrefixed(entry.content);
    w.WriteString(entry.sha256_hex);
  }
  return w.Take();
}

Status PackageObject::SetState(ByteSpan state) {
  ByteReader r(state);
  std::string description;
  std::map<std::string, FileEntry> files;
  ASSIGN_OR_RETURN(description, r.ReadString());
  ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(std::string path, r.ReadString());
    FileEntry entry;
    ASSIGN_OR_RETURN(ByteSpan content, r.ReadLengthPrefixedView());
    ASSIGN_OR_RETURN(entry.sha256_hex, r.ReadString());
    // Integrity check: reject state whose digests do not match the content
    // (§6.1) — over the view, before paying the copy into the package.
    if (Sha256::HexDigest(content) != entry.sha256_hex) {
      return DataLoss("file digest mismatch in package state for " + path);
    }
    entry.content = ToBytes(content);
    files[path] = std::move(entry);
  }
  description_ = std::move(description);
  files_ = std::move(files);
  return OkStatus();
}

std::unique_ptr<dso::SemanticsObject> PackageObject::CloneEmpty() const {
  return std::make_unique<PackageObject>();
}

uint64_t PackageObject::total_bytes() const {
  uint64_t total = 0;
  for (const auto& [path, entry] : files_) {
    total += entry.content.size();
  }
  return total;
}

}  // namespace globe::gdn
