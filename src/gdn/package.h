// The package DSO (paper §2, §3.1): "every software package is contained in a
// package DSO" — one or more files, a unique name, potentially very large.
//
// PackageObject is the semantics subobject: it implements the methods the paper
// names (addFile, listContents, getFileContents, §3.3/§4) on local state, with a
// SHA-256 digest per file so the integrity of distributed software is checkable
// end-to-end (§6.1). PackageProxy is the typed client-side wrapper over a bound
// local representative — the control subobject bridging typed calls to marshalled
// invocations.

#ifndef SRC_GDN_PACKAGE_H_
#define SRC_GDN_PACKAGE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dso/runtime.h"
#include "src/dso/subobjects.h"

namespace globe::gdn {

constexpr uint16_t kPackageTypeId = 100;

struct FileInfo {
  std::string path;
  uint64_t size = 0;
  std::string sha256_hex;

  bool operator==(const FileInfo&) const = default;
};

class PackageObject : public dso::SemanticsObject {
 public:
  PackageObject() = default;

  // Marshalled methods:
  //   pkg.addFile         {path, content}         write
  //   pkg.removeFile      {path}                  write
  //   pkg.setDescription  {text}                  write
  //   pkg.listContents    {} -> vector<FileInfo>  read
  //   pkg.getFileContents {path} -> bytes         read
  //   pkg.getFileInfo     {path} -> FileInfo      read
  //   pkg.getDescription  {} -> text              read
  Result<Bytes> Invoke(const dso::Invocation& invocation) override;
  // True for exactly the four read methods above.
  bool IsReadOnly(std::string_view method) const override;

  Bytes GetState() const override;
  Status SetState(ByteSpan state) override;
  std::unique_ptr<dso::SemanticsObject> CloneEmpty() const override;
  uint16_t type_id() const override { return kPackageTypeId; }

  size_t num_files() const { return files_.size(); }
  uint64_t total_bytes() const;

 private:
  struct FileEntry {
    Bytes content;
    std::string sha256_hex;
  };

  std::string description_;
  std::map<std::string, FileEntry> files_;
};

// Invocation builders and result parsers — shared by PackageProxy, the moderator
// tool and the GDN-HTTPD.
namespace pkg {
dso::Invocation AddFile(std::string_view path, ByteSpan content);
dso::Invocation RemoveFile(std::string_view path);
dso::Invocation SetDescription(std::string_view text);
dso::Invocation ListContents();
dso::Invocation GetFileContents(std::string_view path);
dso::Invocation GetFileInfo(std::string_view path);
dso::Invocation GetDescription();

Result<std::vector<FileInfo>> ParseListContents(ByteSpan data);
Result<FileInfo> ParseFileInfo(ByteSpan data);
}  // namespace pkg

// Typed asynchronous wrapper over a bound package object.
class PackageProxy {
 public:
  explicit PackageProxy(std::unique_ptr<dso::BoundObject> bound) : bound_(std::move(bound)) {}

  using StatusCallback = std::function<void(Status)>;
  using ListCallback = std::function<void(Result<std::vector<FileInfo>>)>;
  using ContentCallback = std::function<void(Result<Bytes>)>;
  using TextCallback = std::function<void(Result<std::string>)>;

  void AddFile(std::string_view path, ByteSpan content, StatusCallback done);
  void RemoveFile(std::string_view path, StatusCallback done);
  void SetDescription(std::string_view text, StatusCallback done);
  void ListContents(ListCallback done);
  void GetFileContents(std::string_view path, ContentCallback done);
  void GetDescription(TextCallback done);

  dso::BoundObject* bound() { return bound_.get(); }
  std::unique_ptr<dso::BoundObject> TakeBound() { return std::move(bound_); }

 private:
  void InvokeStatus(dso::Invocation invocation, StatusCallback done);

  std::unique_ptr<dso::BoundObject> bound_;
};

}  // namespace globe::gdn

#endif  // SRC_GDN_PACKAGE_H_
