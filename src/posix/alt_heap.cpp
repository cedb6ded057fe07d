#include "posix/alt_heap.hpp"

#include <limits.h>
#include <linux/fs.h>
#include <pthread.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

// PAGEMAP_SCAN arrived in Linux 6.7; older uapi headers lack it. The ABI is
// fixed, so it is spelled out here (include/uapi/linux/fs.h).
#ifndef PAGEMAP_SCAN
struct pm_scan_arg {
  __u64 size, flags, start, end, walk_end, vec, vec_len, max_pages;
  __u64 category_inverted, category_mask, category_anyof_mask, return_mask;
};
#define PAGEMAP_SCAN _IOWR('f', 16, struct pm_scan_arg)
#define PAGE_IS_FILE (1 << 2)
#define PAGE_IS_PRESENT (1 << 3)
#define PAGE_IS_SWAPPED (1 << 4)
#define PAGE_IS_PFNZERO (1 << 5)
#endif

namespace altx::posix {

namespace {

// Registry of live arenas, for the fork handler, which gives every child its
// private view. Small and scanned linearly; no locking needed — arenas are
// made and destroyed by a backend that is single-threaded by design
// (concurrency comes from processes).
std::vector<AltHeap*> g_heaps;

// A scan returns at most this many regions per call.
constexpr std::size_t kScanBatch = 256;

/// Maps all `bytes` of `fd` read-write.
void* map_view(std::size_t bytes, int flags, int fd) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, flags, fd, 0);
  if (p == MAP_FAILED) throw_errno("mmap");
  return p;
}

/// Moves the `bytes`-long map at `from` to `to`, replacing what is there.
/// With equal sizes mremap moves a map only when told where to.
void move_view(void* from, std::size_t bytes, void* to) {
  if (::mremap(from, bytes, bytes, MREMAP_MAYMOVE | MREMAP_FIXED, to) ==
      MAP_FAILED) {
    throw_errno("mremap");
  }
}

/// Moves the `bytes`-long map at `from` to a fresh address, returned.
void* move_aside(void* from, std::size_t bytes) {
  void* to = ::mmap(nullptr, bytes, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (to == MAP_FAILED) throw_errno("mmap(PROT_NONE)");
  try {
    move_view(from, bytes, to);
  } catch (...) {
    ::munmap(to, bytes);
    throw;
  }
  return to;
}

/// This process's /proc/self/pagemap, checked with an empty scan to take
/// PAGEMAP_SCAN.
Fd open_pagemap() {
  Fd pagemap(::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC));
  if (!pagemap.valid()) throw_errno("open(/proc/self/pagemap)");
  pm_scan_arg probe{};
  probe.size = sizeof probe;
  if (::ioctl(pagemap.get(), PAGEMAP_SCAN, &probe) != 0) {
    throw_errno("ioctl(PAGEMAP_SCAN), which needs Linux >= 6.7");
  }
  return pagemap;
}

}  // namespace

AltHeap::AltHeap(std::size_t pages) {
  ALTX_REQUIRE(pages >= 1, "AltHeap: need at least one page");
  page_size_ = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  pages_ = pages;
  bytes_ = pages * page_size_;
  open_pagemap();  // the kernel's dirty-page tracker is the only one
  // Processes that never make an arena pay nothing at their forks.
  static const bool fork_handler =
      ::pthread_atfork(nullptr, nullptr, &after_fork_in_child) == 0;
  if (!fork_handler) throw SystemError("pthread_atfork", ENOMEM);
  // The owner's view, and the private one each child moves in over it
  // (after_fork_in_child). The maps hold the memfd, so no descriptor stays
  // open. The spare is never touched here, so fork() copies none of its
  // page tables either, and a child's private copies are all its own.
  const Fd memfd(::memfd_create("altx-heap", MFD_CLOEXEC));
  if (!memfd.valid() ||
      ::ftruncate(memfd.get(), static_cast<off_t>(bytes_)) != 0) {
    throw_errno("memfd_create");
  }
  base_ = map_view(bytes_, MAP_SHARED, memfd.get());
  try {
    spare_ = map_view(bytes_, MAP_PRIVATE, memfd.get());
  } catch (...) {
    ::munmap(base_, bytes_);
    throw;
  }
  regions_.resize(3 * kScanBatch);
  g_heaps.push_back(this);
}

AltHeap::~AltHeap() {
  std::erase(g_heaps, this);
  for (void* view : {base_, spare_, shared_}) {
    if (view != nullptr) ::munmap(view, bytes_);
  }
}

void AltHeap::after_fork_in_child() {
  for (AltHeap* h : g_heaps) {
    h->pagemap_.reset();  // it reads the parent's pages, not ours
    if (h->shared_ != nullptr) {
      // Forked while the owner tracks: the private view is in place.
      ::munmap(h->shared_, h->bytes_);
      h->shared_ = nullptr;
    } else if (h->spare_ != nullptr) {
      // From here on this process's writes go to copies of its own. A child
      // that cannot have that must not run on in the owner's arena.
      if (::mremap(h->spare_, h->bytes_, h->bytes_,
                   MREMAP_MAYMOVE | MREMAP_FIXED, h->base_) == MAP_FAILED) {
        std::abort();
      }
      h->spare_ = nullptr;
    }
  }
}

void AltHeap::begin_tracking() {
  dirty_.clear();
  pagemap_ = open_pagemap();
  if (spare_ == nullptr) return;  // a child: its view is private already
  // The owner: the shared view steps aside and the spare takes its place,
  // so every page written from here on is an anonymous copy.
  void* shared = move_aside(base_, bytes_);
  try {
    move_view(spare_, bytes_, base_);
  } catch (...) {
    move_view(shared, bytes_, base_);
    pagemap_.reset();
    throw;
  }
  shared_ = shared;
  spare_ = nullptr;
}

std::size_t AltHeap::collect_dirty() {
  if (!pagemap_.valid()) return dirty_.size();
  dirty_.clear();
  // A written page is an anonymous copy: present or swapped out, and
  // neither a page of the backing file nor the zero page. Each region comes
  // back as {start, end, categories}, in address order; a scan that fills
  // the buffer stops early, and the next one starts where it stopped.
  const auto begin = reinterpret_cast<std::uintptr_t>(base_);
  for (std::uint64_t from = begin; from < begin + bytes_;) {
    pm_scan_arg arg{};
    arg.size = sizeof arg;
    arg.start = from;
    arg.end = begin + bytes_;
    arg.vec = reinterpret_cast<std::uintptr_t>(regions_.data());
    arg.vec_len = regions_.size() / 3;
    arg.category_inverted = arg.category_mask = PAGE_IS_FILE | PAGE_IS_PFNZERO;
    arg.category_anyof_mask = PAGE_IS_PRESENT | PAGE_IS_SWAPPED;
    const int n = ::ioctl(pagemap_.get(), PAGEMAP_SCAN, &arg);
    if (n < 0) throw_errno("ioctl(PAGEMAP_SCAN)");
    if (arg.walk_end <= from) throw SystemError("PAGEMAP_SCAN: stalled", EIO);
    for (std::size_t k = 0; k < 3 * static_cast<std::size_t>(n); k += 3) {
      for (std::uint64_t a = regions_[k]; a < regions_[k + 1];
           a += page_size_) {
        dirty_.push_back(static_cast<std::uint32_t>((a - begin) / page_size_));
      }
    }
    from = arg.walk_end;
  }
  return dirty_.size();
}

void AltHeap::end_tracking() {
  collect_dirty();
  pagemap_.reset();
  if (shared_ == nullptr) return;  // a child: nothing to write back
  for (const PageRun& run : dirty_runs()) {
    const std::size_t off = run.first * page_size_;
    std::memcpy(static_cast<std::uint8_t*>(shared_) + off,
                static_cast<const std::uint8_t*>(base_) + off,
                run.count * page_size_);
  }
  // Dropping the copies leaves a clean spare; the shared view comes back.
  if (::madvise(base_, bytes_, MADV_DONTNEED) != 0) throw_errno("madvise");
  spare_ = move_aside(base_, bytes_);
  move_view(shared_, bytes_, base_);
  shared_ = nullptr;
}

void AltHeap::clear() {
  // The hole punch of fallocate(PUNCH_HOLE), through the shared map.
  if (::madvise(base_, bytes_, MADV_REMOVE) != 0) throw_errno("madvise");
}

std::vector<PageRun> AltHeap::dirty_runs() const {
  std::vector<PageRun> runs;
  for (std::uint32_t page : dirty_) {
    if (!runs.empty() && runs.back().first + runs.back().count == page) {
      ++runs.back().count;
    } else {
      runs.push_back({page, 1});
    }
  }
  return runs;
}

std::optional<std::size_t> AltHeap::absorb_from(
    pid_t winner, const std::vector<PageRun>& runs) {
  // One call or none: the call holds the winner's address space for its
  // whole run, so a kill cannot leave half the pages copied.
  if (runs.empty()) return 0;
  if (runs.size() > static_cast<std::size_t>(IOV_MAX)) return std::nullopt;
  std::vector<iovec> iov;
  iov.reserve(runs.size());
  std::size_t pages = 0;
  for (const PageRun& run : runs) {
    ALTX_REQUIRE(run.count >= 1 && run.first < pages_ &&
                     run.count <= pages_ - run.first,
                 "AltHeap::absorb_from: run out of range");
    iov.push_back({static_cast<std::uint8_t*>(base_) + run.first * page_size_,
                   run.count * page_size_});
    pages += run.count;
  }
  // Same address on both sides: each run is its own remote iovec too.
  const ssize_t got = ::process_vm_readv(
      winner, iov.data(), iov.size(), iov.data(), iov.size(), 0);
  if (got < 0) {
    if (errno == EPERM || errno == ENOSYS) return std::nullopt;
    throw_errno("process_vm_readv");
  }
  if (static_cast<std::size_t>(got) != pages * page_size_) {
    throw SystemError("process_vm_readv: truncated pull", EIO);
  }
  return pages;
}

Bytes AltHeap::serialize_dirty() {
  collect_dirty();
  Bytes out;
  ByteWriter w(out);
  w.u64(page_size_);
  w.u64(dirty_.size());
  for (std::uint32_t page : dirty_) {
    w.u32(page);
    w.blob(static_cast<const std::uint8_t*>(base_) + page * page_size_,
           page_size_);
  }
  return out;
}

std::size_t AltHeap::apply_patch(const Bytes& patch,
                                 std::vector<std::uint32_t>* patched) {
  ByteReader r(patch);
  const std::uint64_t psz = r.u64();
  ALTX_REQUIRE(psz == page_size_, "AltHeap::apply_patch: page size mismatch");
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t page = r.u32();
    ALTX_REQUIRE(page < pages_, "AltHeap::apply_patch: page out of range");
    const Bytes content = r.blob();
    ALTX_REQUIRE(content.size() == page_size_,
                 "AltHeap::apply_patch: bad page payload");
    std::memcpy(static_cast<std::uint8_t*>(base_) + page * page_size_,
                content.data(), page_size_);
    if (patched != nullptr) patched->push_back(page);
  }
  return n;
}

}  // namespace altx::posix
