#include "posix/file_heap.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

namespace altx::posix {

namespace {

/// Opens `path`, creating it and zero-extending it to `bytes`.
Fd open_backing(const std::string& path, std::size_t bytes) {
  Fd fd(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0600));
  if (!fd.valid()) throw_errno("open(FileHeap)");
  struct stat st{};
  if (::fstat(fd.get(), &st) != 0) throw_errno("fstat(FileHeap)");
  if (st.st_size < static_cast<off_t>(bytes) &&
      ::ftruncate(fd.get(), static_cast<off_t>(bytes)) != 0) {
    throw_errno("ftruncate(FileHeap)");
  }
  return fd;
}

/// Moves `len` bytes between `buf` and `fd` at `off` with pread or pwrite,
/// through short transfers and EINTR.
template <typename Io, typename Byte>
void transfer(Io io, const Fd& fd, Byte* buf, std::size_t len, off_t off,
              const char* what) {
  for (std::size_t done = 0; done < len;) {
    const ssize_t n =
        io(fd.get(), buf + done, len - done, off + static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw_errno(what);
    if (n == 0) throw SystemError(what, EIO);  // the file was cut short
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

FileHeap::FileHeap(const std::string& path, std::size_t pages)
    : AltHeap(pages), file_(open_backing(path, size_bytes())) {
  rollback();  // loads the file into the arena
}

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
    const std::size_t off = page * psz;
    transfer(::pwrite, file_, static_cast<const std::uint8_t*>(base()) + off,
             psz, static_cast<off_t>(off), "pwrite(FileHeap)");
  }
  if (::fsync(file_.get()) != 0) throw_errno("fsync(FileHeap)");
  const std::size_t n = pending_.size();
  pending_.clear();
  return n;
}

void FileHeap::rollback() {
  transfer(::pread, file_, static_cast<std::uint8_t*>(base()), size_bytes(), 0,
           "pread(FileHeap)");
  pending_.clear();
}

}  // namespace altx::posix
