// The package DSO (paper §2, §3.1): "every software package is contained in a
// package DSO" — one or more files, a unique name, potentially very large.
//
// PackageObject is the semantics subobject: it implements the methods the paper
// names (addFile, listContents, getFileContents, §3.3/§4) on local state, with a
// SHA-256 digest per file so the integrity of distributed software is checkable
// end-to-end (§6.1). The methods are declared once, in namespace pkg below;
// clients invoke them on a bound package with dso::BoundObject::Call.

#ifndef SRC_GDN_PACKAGE_H_
#define SRC_GDN_PACKAGE_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
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

  static constexpr auto kWireFields =
      std::tuple(&FileInfo::path, &FileInfo::size, &FileInfo::sha256_hex);
};

namespace pkg {

struct FileArgs {
  std::string path;
  Bytes content;

  static constexpr auto kWireFields = std::tuple(&FileArgs::path, &FileArgs::content);
};

struct PathArgs {
  std::string path;

  static constexpr auto kWireFields = std::tuple(&PathArgs::path);
};

// The package's description.
struct Text {
  std::string text;

  static constexpr auto kWireFields = std::tuple(&Text::text);
};

struct Listing {
  std::vector<FileInfo> files;

  static constexpr auto kWireFields = std::tuple(&Listing::files);
};

inline constexpr dso::Method<FileArgs, sim::EmptyMessage> kAddFile{
    "pkg.addFile", dso::Access::kWrite};
inline constexpr dso::Method<PathArgs, sim::EmptyMessage> kRemoveFile{
    "pkg.removeFile", dso::Access::kWrite};
inline constexpr dso::Method<Text, sim::EmptyMessage> kSetDescription{
    "pkg.setDescription", dso::Access::kWrite};
inline constexpr dso::Method<sim::EmptyMessage, Listing> kListContents{
    "pkg.listContents", dso::Access::kRead};
inline constexpr dso::Method<PathArgs, Bytes> kGetFileContents{"pkg.getFileContents",
                                                               dso::Access::kRead};
inline constexpr dso::Method<PathArgs, FileInfo> kGetFileInfo{"pkg.getFileInfo",
                                                              dso::Access::kRead};
inline constexpr dso::Method<sim::EmptyMessage, Text> kGetDescription{
    "pkg.getDescription", dso::Access::kRead};

}  // namespace pkg

class PackageObject : public dso::SemanticsObject {
 public:
  PackageObject();

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

  Result<const FileEntry*> FindFile(const std::string& path) const;

  std::string description_;
  std::map<std::string, FileEntry> files_;
};

}  // namespace globe::gdn

#endif  // SRC_GDN_PACKAGE_H_
