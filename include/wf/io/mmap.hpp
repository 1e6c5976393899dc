#pragma once

// RAII private memory mapping, read-only unless made copy-on-write. This
// class (src/io/mmap.cpp) is the one sanctioned home of raw
// mmap/munmap/mprotect calls in the tree — the wf-lint mmap-discipline rule
// enforces it — so lifetime bugs (double unmap, leaked mappings,
// use-after-close) have exactly one place to hide. Beside it, replace_file
// and sync_path are the one write path and the durability step of the files
// those mappings (and the WFIO readers) read.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace wf::io {

class MappedFile {
 public:
  MappedFile() = default;
  // Maps `path` read-only in whole. Throws IoError (with the path and
  // errno text) when the file cannot be opened, sized or mapped. A
  // zero-length file maps to data() == nullptr with size() == 0.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  // Turns the private mapping copy-on-write: pages written afterwards are
  // copied into process memory and never reach the file. Until this call
  // the mapping is read-only and a write through it faults. Throws IoError
  // when the protection cannot be changed.
  void make_writable();

  const std::uint8_t* data() const { return static_cast<const std::uint8_t*>(addr_); }
  std::size_t size() const { return size_; }
  bool mapped() const { return mapped_; }
  const std::string& path() const { return path_; }

 private:
  void reset() noexcept;

  void* addr_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::string path_;
};

// fsync(2)s `path`, a file or a directory, so its contents (or, for a
// directory, its entries: a rename or unlink inside it) survive a power
// loss. Throws IoError when the path cannot be opened or synced.
void sync_path(const std::string& path);

// Writes `path` whole or not at all: `write` fills <path>.tmp, which is
// then renamed over `path`. A reader, or a process that has the old file
// mapped (a serving daemon), sees the old bytes or the new ones, never a
// torn mix. When `write` or the rename throws, the temp file is removed and
// `path` is left as it was. `durable` adds the fsyncs a caller needs before
// it drops state the old file held: the temp file before the rename, its
// directory after it. Throws IoError when the temp file cannot be written.
void replace_file(const std::string& path, const std::function<void(std::ostream&)>& write,
                  bool durable = false);

}  // namespace wf::io
