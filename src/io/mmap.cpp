#include "io/mmap.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "io/binary.hpp"

namespace wf::io {

namespace {

[[noreturn]] void fail(const std::string& path, const char* what) {
  throw IoError(std::string(what) + " failed for \"" + path + "\": " + std::strerror(errno));
}

}  // namespace

MappedFile::MappedFile(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(path, "open");
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail(path, "fstat");
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* addr = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail(path, "mmap");
    }
    addr_ = addr;
  }
  ::close(fd);  // the mapping keeps the file alive; the fd is not needed
  mapped_ = true;
}

void MappedFile::make_writable() {
  if (addr_ != nullptr && ::mprotect(addr_, size_, PROT_READ | PROT_WRITE) != 0)
    fail(path_, "mprotect");
}

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(std::exchange(other.addr_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)),
      path_(std::move(other.path_)) {
  other.path_.clear();
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    addr_ = std::exchange(other.addr_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

void MappedFile::reset() noexcept {
  if (addr_ != nullptr) ::munmap(addr_, size_);
  addr_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

void sync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(path, "open");
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail(path, "fsync");
  }
  ::close(fd);
}

void replace_file(const std::string& path, const std::function<void(std::ostream&)>& write,
                  bool durable) {
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw IoError("cannot open " + tmp + " for writing");
      write(out);
      out.flush();
      if (!out) throw IoError("write failed: " + tmp);
    }
    if (durable) sync_path(tmp);
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  if (durable) {
    const std::filesystem::path dir = std::filesystem::path(path).parent_path();
    sync_path(dir.empty() ? "." : dir.string());
  }
}

}  // namespace wf::io
