// Seeded violation: changing a mapping's protection outside the wrapper. A
// loader that flips a file mapping writable behind io::MappedFile's back can
// turn a MAP_SHARED view into writes that reach the file, and nobody can see
// from the wrapper which mappings are writable; copy-on-write goes through
// io::MappedFile::make_writable (src/io/mmap.cpp).
// wf-lint-path: src/index/patch.cpp
// wf-lint-expect: mmap-discipline
#include <cstddef>
#include <sys/mman.h>

bool unlock_for_patching(void* base, std::size_t bytes) {
  return ::mprotect(base, bytes, PROT_READ | PROT_WRITE) == 0;
}
