// TimingFileSystem: a counting, timing decorator around a server's
// FileSystem.
//
// ServerMain takes the i/o node's file system by reference, so the
// traced run hands each server one of these wrapped around
// machine.server_fs(s). It forwards every call unchanged (the wrapped
// file system still charges the server's virtual clock) and records,
// per file kind, how many opens, reads, writes, syncs, renames and
// removes the server issued and how many bytes moved, plus the host
// time spent inside the wrapped calls. One instance serves one server
// rank, whose calls never overlap.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "iosim/file_system.h"
#include "span_log.h"

namespace perfbench {

// What a path holds, from its name (see DataFileName, SidecarFileName,
// FrameDirFileName, JournalFileName, ShardFileName).
enum class FileKind { kData = 0, kCrc, kFdx, kWal, kShard, kSchema };
inline constexpr int kNumFileKinds = 6;
const char* FileKindName(FileKind kind);

struct FsOpCounts {
  std::int64_t opens = 0;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t syncs = 0;
  std::int64_t renames = 0;
  std::int64_t removes = 0;
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;

  FsOpCounts& operator+=(const FsOpCounts& o);
  FsOpCounts& operator-=(const FsOpCounts& o);
};

struct FsTally {
  std::array<FsOpCounts, kNumFileKinds> by_kind{};
  std::int64_t busy_ns = 0;  // host time inside wrapped calls

  FsOpCounts Total() const;
  FsTally& operator+=(const FsTally& o);
  FsTally operator-(const FsTally& o) const;
};

class TimingFileSystem : public panda::FileSystem {
 public:
  // `spans` (may be null) receives one span per wrapped call on `track`.
  TimingFileSystem(panda::FileSystem& inner, SpanLog* spans, int track)
      : inner_(inner), spans_(spans), track_(track) {}

  std::unique_ptr<panda::File> Open(const std::string& path,
                                    panda::OpenMode mode) override;
  bool Exists(const std::string& path) override;
  void Remove(const std::string& path) override;
  void Rename(const std::string& from, const std::string& to) override;
  const panda::FsStats& stats() const override { return inner_.stats(); }
  void ResetStats() override { inner_.ResetStats(); }

  const FsTally& tally() const { return tally_; }
  // Distinct shard files this server has opened.
  std::int64_t shard_files() const {
    return static_cast<std::int64_t>(shard_paths_.size());
  }

 private:
  friend class TimingFile;

  panda::FileSystem& inner_;
  SpanLog* spans_;
  int track_;
  FsTally tally_;
  std::set<std::string> shard_paths_;
};

}  // namespace perfbench
