#include "timing_fs.h"

#include <utility>

namespace perfbench {

namespace {

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

FileKind ClassifyPath(const std::string& path) {
  if (EndsWith(path, ".crc")) return FileKind::kCrc;
  if (EndsWith(path, ".fdx")) return FileKind::kFdx;
  if (EndsWith(path, ".wal")) return FileKind::kWal;
  if (EndsWith(path, ".schema")) return FileKind::kSchema;
  if (path.find(".shard.") != std::string::npos) return FileKind::kShard;
  return FileKind::kData;
}

// Times one wrapped call: adds its host duration to the tally and
// records a span.
class CallTimer {
 public:
  CallTimer(FsTally& tally, SpanLog* spans, const char* name, int track)
      : tally_(tally), spans_(spans), name_(name), track_(track),
        start_ns_(NowNs()) {}
  ~CallTimer() {
    const std::int64_t end = NowNs();
    tally_.busy_ns += end - start_ns_;
    if (spans_ != nullptr) {
      spans_->Add(Span{name_, start_ns_, end, spans_->request(), track_});
    }
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  FsTally& tally_;
  SpanLog* spans_;
  const char* name_;
  int track_;
  std::int64_t start_ns_;
};

}  // namespace

const char* FileKindName(FileKind kind) {
  switch (kind) {
    case FileKind::kData: return "data";
    case FileKind::kCrc: return "crc";
    case FileKind::kFdx: return "fdx";
    case FileKind::kWal: return "wal";
    case FileKind::kShard: return "shard";
    case FileKind::kSchema: return "schema";
  }
  return "?";
}

FsOpCounts& FsOpCounts::operator+=(const FsOpCounts& o) {
  opens += o.opens;
  reads += o.reads;
  writes += o.writes;
  syncs += o.syncs;
  renames += o.renames;
  removes += o.removes;
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  return *this;
}

FsOpCounts& FsOpCounts::operator-=(const FsOpCounts& o) {
  opens -= o.opens;
  reads -= o.reads;
  writes -= o.writes;
  syncs -= o.syncs;
  renames -= o.renames;
  removes -= o.removes;
  bytes_read -= o.bytes_read;
  bytes_written -= o.bytes_written;
  return *this;
}

FsOpCounts FsTally::Total() const {
  FsOpCounts total;
  for (const FsOpCounts& c : by_kind) total += c;
  return total;
}

FsTally& FsTally::operator+=(const FsTally& o) {
  for (int k = 0; k < kNumFileKinds; ++k) by_kind[k] += o.by_kind[k];
  busy_ns += o.busy_ns;
  return *this;
}

FsTally FsTally::operator-(const FsTally& o) const {
  FsTally d = *this;
  for (int k = 0; k < kNumFileKinds; ++k) d.by_kind[k] -= o.by_kind[k];
  d.busy_ns -= o.busy_ns;
  return d;
}

class TimingFile : public panda::File {
 public:
  TimingFile(std::unique_ptr<panda::File> inner, TimingFileSystem& fs,
             FileKind kind)
      : inner_(std::move(inner)), fs_(fs),
        counts_(fs.tally_.by_kind[static_cast<int>(kind)]) {}

  void WriteAt(std::int64_t offset, std::span<const std::byte> data,
               std::int64_t vbytes) override {
    CallTimer t(fs_.tally_, fs_.spans_, "iosim.write", fs_.track_);
    inner_->WriteAt(offset, data, vbytes);
    ++counts_.writes;
    counts_.bytes_written += vbytes;
  }
  void ReadAt(std::int64_t offset, std::span<std::byte> out,
              std::int64_t vbytes) override {
    CallTimer t(fs_.tally_, fs_.spans_, "iosim.read", fs_.track_);
    inner_->ReadAt(offset, out, vbytes);
    ++counts_.reads;
    counts_.bytes_read += vbytes;
  }
  void Sync() override {
    CallTimer t(fs_.tally_, fs_.spans_, "iosim.sync", fs_.track_);
    inner_->Sync();
    ++counts_.syncs;
  }
  std::int64_t Size() override { return inner_->Size(); }

 private:
  std::unique_ptr<panda::File> inner_;
  TimingFileSystem& fs_;
  FsOpCounts& counts_;
};

std::unique_ptr<panda::File> TimingFileSystem::Open(const std::string& path,
                                                    panda::OpenMode mode) {
  const FileKind kind = ClassifyPath(path);
  std::unique_ptr<panda::File> file;
  {
    CallTimer t(tally_, spans_, "iosim.open", track_);
    file = inner_.Open(path, mode);
  }
  ++tally_.by_kind[static_cast<int>(kind)].opens;
  if (kind == FileKind::kShard) shard_paths_.insert(path);
  return std::make_unique<TimingFile>(std::move(file), *this, kind);
}

bool TimingFileSystem::Exists(const std::string& path) {
  CallTimer t(tally_, spans_, "iosim.exists", track_);
  return inner_.Exists(path);
}

void TimingFileSystem::Remove(const std::string& path) {
  CallTimer t(tally_, spans_, "iosim.remove", track_);
  inner_.Remove(path);
  ++tally_.by_kind[static_cast<int>(ClassifyPath(path))].removes;
}

void TimingFileSystem::Rename(const std::string& from, const std::string& to) {
  CallTimer t(tally_, spans_, "iosim.rename", track_);
  inner_.Rename(from, to);
  ++tally_.by_kind[static_cast<int>(ClassifyPath(to))].renames;
}

}  // namespace perfbench
