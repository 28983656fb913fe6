#include "src/gdn/package.h"

#include "src/util/sha256.h"

namespace globe::gdn {

Result<Bytes> PackageObject::Invoke(const dso::Invocation& invocation) {
  ByteReader r(invocation.args);

  if (invocation.method == "pkg.addFile") {
    ASSIGN_OR_RETURN(std::string path, r.ReadString());
    ASSIGN_OR_RETURN(ByteSpan content, r.ReadLengthPrefixedView());
    if (path.empty()) {
      return InvalidArgument("file path may not be empty");
    }
    // Digest over the view; the one copy is the content entering the package.
    std::string digest = Sha256::HexDigest(content);
    files_[path] = FileEntry{ToBytes(content), std::move(digest)};
    return Bytes{};
  }

  if (invocation.method == "pkg.removeFile") {
    ASSIGN_OR_RETURN(std::string path, r.ReadString());
    if (files_.erase(path) == 0) {
      return NotFound("no such file in package: " + path);
    }
    return Bytes{};
  }

  if (invocation.method == "pkg.setDescription") {
    ASSIGN_OR_RETURN(description_, r.ReadString());
    return Bytes{};
  }

  if (invocation.method == "pkg.listContents") {
    ByteWriter w;
    w.WriteVarint(files_.size());
    for (const auto& [path, entry] : files_) {
      w.WriteString(path);
      w.WriteU64(entry.content.size());
      w.WriteString(entry.sha256_hex);
    }
    return w.Take();
  }

  if (invocation.method == "pkg.getFileContents") {
    ASSIGN_OR_RETURN(std::string path, r.ReadString());
    auto it = files_.find(path);
    if (it == files_.end()) {
      return NotFound("no such file in package: " + path);
    }
    return it->second.content;
  }

  if (invocation.method == "pkg.getFileInfo") {
    ASSIGN_OR_RETURN(std::string path, r.ReadString());
    auto it = files_.find(path);
    if (it == files_.end()) {
      return NotFound("no such file in package: " + path);
    }
    ByteWriter w;
    w.WriteString(path);
    w.WriteU64(it->second.content.size());
    w.WriteString(it->second.sha256_hex);
    return w.Take();
  }

  if (invocation.method == "pkg.getDescription") {
    ByteWriter w;
    w.WriteString(description_);
    return w.Take();
  }

  return NotFound("package DSO has no method " + invocation.method);
}

bool PackageObject::IsReadOnly(std::string_view method) const {
  return method == "pkg.listContents" || method == "pkg.getFileContents" ||
         method == "pkg.getFileInfo" || method == "pkg.getDescription";
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

namespace pkg {

dso::Invocation AddFile(std::string_view path, ByteSpan content) {
  ByteWriter w;
  w.WriteString(path);
  w.WriteLengthPrefixed(content);
  return dso::Invocation{"pkg.addFile", w.Take(), /*read_only=*/false};
}

dso::Invocation RemoveFile(std::string_view path) {
  ByteWriter w;
  w.WriteString(path);
  return dso::Invocation{"pkg.removeFile", w.Take(), /*read_only=*/false};
}

dso::Invocation SetDescription(std::string_view text) {
  ByteWriter w;
  w.WriteString(text);
  return dso::Invocation{"pkg.setDescription", w.Take(), /*read_only=*/false};
}

dso::Invocation ListContents() {
  return dso::Invocation{"pkg.listContents", {}, /*read_only=*/true};
}

dso::Invocation GetFileContents(std::string_view path) {
  ByteWriter w;
  w.WriteString(path);
  return dso::Invocation{"pkg.getFileContents", w.Take(), /*read_only=*/true};
}

dso::Invocation GetFileInfo(std::string_view path) {
  ByteWriter w;
  w.WriteString(path);
  return dso::Invocation{"pkg.getFileInfo", w.Take(), /*read_only=*/true};
}

dso::Invocation GetDescription() {
  return dso::Invocation{"pkg.getDescription", {}, /*read_only=*/true};
}

Result<std::vector<FileInfo>> ParseListContents(ByteSpan data) {
  ByteReader r(data);
  ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
  std::vector<FileInfo> files;
  files.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    FileInfo info;
    ASSIGN_OR_RETURN(info.path, r.ReadString());
    ASSIGN_OR_RETURN(info.size, r.ReadU64());
    ASSIGN_OR_RETURN(info.sha256_hex, r.ReadString());
    files.push_back(std::move(info));
  }
  return files;
}

Result<FileInfo> ParseFileInfo(ByteSpan data) {
  ByteReader r(data);
  FileInfo info;
  ASSIGN_OR_RETURN(info.path, r.ReadString());
  ASSIGN_OR_RETURN(info.size, r.ReadU64());
  ASSIGN_OR_RETURN(info.sha256_hex, r.ReadString());
  return info;
}

}  // namespace pkg

void PackageProxy::InvokeStatus(dso::Invocation invocation, StatusCallback done) {
  bound_->Invoke(std::move(invocation.method), std::move(invocation.args),
                 invocation.read_only, [done = std::move(done)](Result<Bytes> result) {
                   done(result.ok() ? OkStatus() : result.status());
                 });
}

void PackageProxy::AddFile(std::string_view path, ByteSpan content, StatusCallback done) {
  InvokeStatus(pkg::AddFile(path, content), std::move(done));
}

void PackageProxy::RemoveFile(std::string_view path, StatusCallback done) {
  InvokeStatus(pkg::RemoveFile(path), std::move(done));
}

void PackageProxy::SetDescription(std::string_view text, StatusCallback done) {
  InvokeStatus(pkg::SetDescription(text), std::move(done));
}

void PackageProxy::ListContents(ListCallback done) {
  dso::Invocation invocation = pkg::ListContents();
  bound_->Invoke(std::move(invocation.method), std::move(invocation.args), true,
                 [done = std::move(done)](Result<Bytes> result) {
                   if (!result.ok()) {
                     done(result.status());
                     return;
                   }
                   done(pkg::ParseListContents(*result));
                 });
}

void PackageProxy::GetFileContents(std::string_view path, ContentCallback done) {
  dso::Invocation invocation = pkg::GetFileContents(path);
  bound_->Invoke(std::move(invocation.method), std::move(invocation.args), true,
                 [done = std::move(done)](Result<Bytes> result) { done(std::move(result)); });
}

void PackageProxy::GetDescription(TextCallback done) {
  dso::Invocation invocation = pkg::GetDescription();
  bound_->Invoke(std::move(invocation.method), std::move(invocation.args), true,
                 [done = std::move(done)](Result<Bytes> result) {
                   if (!result.ok()) {
                     done(result.status());
                     return;
                   }
                   ByteReader r(*result);
                   done(r.ReadString());
                 });
}

}  // namespace globe::gdn
