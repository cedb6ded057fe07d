#include "posix/file_heap.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

namespace altx::posix {

namespace {

/// Opens `path`, creating it and zero-extending it to `pages` pages.
Fd open_backing(const std::string& path, std::size_t pages) {
  ALTX_REQUIRE(pages >= 1, "FileHeap: need at least one page");
  Fd fd(::open(path.c_str(), O_CREAT | O_RDWR, 0600));
  if (!fd.valid()) throw_errno("open(FileHeap)");
  const auto bytes = static_cast<off_t>(
      pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
  struct stat st{};
  if (::fstat(fd.get(), &st) != 0) throw_errno("fstat(FileHeap)");
  if (st.st_size < bytes && ::ftruncate(fd.get(), bytes) != 0) {
    throw_errno("ftruncate(FileHeap)");
  }
  return fd;
}

}  // namespace

FileHeap::FileHeap(const std::string& path, std::size_t pages)
    : AltHeap(pages, open_backing(path, pages)) {}

std::size_t FileHeap::apply_patch(const Bytes& patch) {
  std::vector<std::uint32_t> patched;
  const std::size_t n = AltHeap::apply_patch(patch, &patched);
  for (std::uint32_t page : patched) note_pending(page);
  return n;
}

void FileHeap::mark_dirty(std::uint32_t page) {
  ALTX_REQUIRE(page < pages(), "FileHeap::mark_dirty: page out of range");
  note_pending(page);
}

void FileHeap::note_pending(std::uint32_t page) {
  if (std::find(pending_.begin(), pending_.end(), page) == pending_.end()) {
    pending_.push_back(page);
  }
}

std::size_t FileHeap::commit() {
  const std::size_t psz = page_size();
  for (std::uint32_t page : pending_) {
    const auto off = static_cast<off_t>(static_cast<std::size_t>(page) * psz);
    const auto* src = static_cast<const std::uint8_t*>(base()) + off;
    std::size_t done = 0;
    while (done < psz) {
      const ssize_t w = ::pwrite(backing_fd(), src + done, psz - done,
                                 off + static_cast<off_t>(done));
      if (w < 0) {
        if (errno == EINTR) continue;
        throw_errno("pwrite(FileHeap)");
      }
      done += static_cast<std::size_t>(w);
    }
  }
  if (::fsync(backing_fd()) != 0) throw_errno("fsync(FileHeap)");
  const std::size_t n = pending_.size();
  pending_.clear();
  return n;
}

void FileHeap::rollback() {
  remap();
  pending_.clear();
}

}  // namespace altx::posix
