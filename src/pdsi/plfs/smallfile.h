// PLFS small-file mode (§1.1 item 7: "pack small files into a smaller
// number of bigger containers").
//
// Creating millions of tiny files pounds the metadata server once per
// file. Small-file mode gives each writer ONE data dropping and ONE name
// log inside a shared container: creating a logical file appends its
// bytes to the data dropping and a name record to the log. The backend
// sees two files per *writer* instead of one per *logical file*; the
// reader merges the name logs (newest record wins per name) into a
// directory it can list and read from.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pdsi/common/result.h"
#include "pdsi/plfs/backend.h"
#include "pdsi/plfs/writer.h"  // WriteClock

namespace pdsi::plfs {

/// One name-log record: the logical file `name` was written as `length`
/// bytes at `offset` of the writer's data dropping. length == kTombstone
/// marks a deletion.
struct NameRecord {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t sequence = 0;
  static constexpr std::uint64_t kTombstone = ~0ULL;
};

Bytes SerializeNameRecords(const std::vector<NameRecord>& records);
std::vector<NameRecord> DeserializeNameRecords(std::span<const std::uint8_t> data);

class SmallFileWriter {
 public:
  /// Joins (creating if needed) the small-file container at `path`.
  static Result<std::unique_ptr<SmallFileWriter>> Open(Backend& backend,
                                                       const std::string& path,
                                                       std::uint32_t writer_id,
                                                       WriteClock& clock);
  ~SmallFileWriter();
  SmallFileWriter(const SmallFileWriter&) = delete;
  SmallFileWriter& operator=(const SmallFileWriter&) = delete;

  /// Creates (or overwrites) a logical file with `data` as its contents.
  Status put(const std::string& name, std::span<const std::uint8_t> data);

  /// Records a deletion of `name`.
  Status remove(const std::string& name);

  Status sync();
  Status close();

 private:
  SmallFileWriter(Backend& backend, std::uint32_t writer_id, WriteClock& clock,
                  BackendHandle data, BackendHandle names);

  Backend& backend_;
  std::uint32_t writer_id_;
  WriteClock& clock_;
  BackendHandle data_h_;
  BackendHandle names_h_;
  bool open_ = true;
  std::uint64_t data_off_ = 0;
  std::uint64_t names_off_ = 0;
  std::vector<NameRecord> pending_;
};

class SmallFileReader {
 public:
  static Result<std::unique_ptr<SmallFileReader>> Open(Backend& backend,
                                                       const std::string& path);
  ~SmallFileReader();
  SmallFileReader(const SmallFileReader&) = delete;
  SmallFileReader& operator=(const SmallFileReader&) = delete;

  /// Logical names present (deletions applied), sorted.
  std::vector<std::string> list() const;

  Result<std::uint64_t> size(const std::string& name) const;

  /// Reads a whole logical file.
  Result<Bytes> get(const std::string& name);

 private:
  struct Location {
    std::uint32_t dropping;
    std::uint64_t offset;
    std::uint64_t length;
    std::uint64_t sequence;
  };

  SmallFileReader(Backend& backend) : backend_(backend) {}
  Status build(const std::string& path);

  Backend& backend_;
  std::map<std::string, Location> names_;
  std::vector<std::string> droppings_;
  std::vector<BackendHandle> handles_;
};

/// True if `path` holds a small-file container.
Result<bool> IsSmallFileContainer(Backend& backend, const std::string& path);

}  // namespace pdsi::plfs
