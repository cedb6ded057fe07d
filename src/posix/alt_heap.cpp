#include "posix/alt_heap.hpp"

#include <limits.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace altx::posix {

namespace {

// Registry of live arenas so the (process-wide) SIGSEGV handler can route a
// fault to the arena that owns the address. Small and scanned linearly; no
// locking needed — faults are handled on the faulting thread and the
// backend is single-threaded by design (concurrency comes from processes).
std::vector<AltHeap*> g_heaps;
struct sigaction g_prev_segv;
bool g_handler_installed = false;

void on_segv(int signo, siginfo_t* info, void* /*ctx*/) {
  for (AltHeap* h : g_heaps) {
    if (h->handle_fault(info->si_addr)) return;
  }
  // Not ours: restore the previous disposition and re-raise so genuine
  // crashes still crash.
  ::sigaction(SIGSEGV, &g_prev_segv, nullptr);
  ::raise(signo);
}

void install_handler() {
  if (g_handler_installed) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_flags = SA_SIGINFO;
  sa.sa_sigaction = &on_segv;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGSEGV, &sa, &g_prev_segv) != 0) throw_errno("sigaction");
  g_handler_installed = true;
}

}  // namespace

AltHeap::AltHeap(std::size_t pages) : AltHeap(pages, Fd{}) {}

AltHeap::AltHeap(std::size_t pages, Fd backing) : backing_(std::move(backing)) {
  ALTX_REQUIRE(pages >= 1, "AltHeap: need at least one page");
  page_size_ = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  pages_ = pages;
  bytes_ = pages * page_size_;
  map();
  install_handler();
  g_heaps.push_back(this);
}

AltHeap::~AltHeap() {
  std::erase(g_heaps, this);
  if (base_ != nullptr) ::munmap(base_, bytes_);
}

void AltHeap::map() {
  const int flags =
      backing_.valid() ? MAP_PRIVATE : MAP_PRIVATE | MAP_ANONYMOUS;
  base_ = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, flags,
                 backing_.get(), 0);
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    throw_errno("mmap");
  }
}

void AltHeap::remap() {
  ::munmap(base_, bytes_);
  base_ = nullptr;
  map();
  dirty_.clear();
  tracking_ = false;
}

void AltHeap::begin_tracking() {
  dirty_.clear();
  // Every page can be dirtied at most once, so the handler's push_back
  // below never has to allocate.
  dirty_.reserve(pages_);
  if (::mprotect(base_, bytes_, PROT_READ) != 0) throw_errno("mprotect(READ)");
  tracking_ = true;
}

void AltHeap::end_tracking() {
  if (::mprotect(base_, bytes_, PROT_READ | PROT_WRITE) != 0) {
    throw_errno("mprotect(RW)");
  }
  tracking_ = false;
}

bool AltHeap::handle_fault(void* addr) {
  if (!tracking_) return false;
  auto a = reinterpret_cast<std::uintptr_t>(addr);
  auto b = reinterpret_cast<std::uintptr_t>(base_);
  if (a < b || a >= b + bytes_) return false;
  const std::size_t page = (a - b) / page_size_;
  // Async-signal-safety: mprotect is a plain syscall, and the push_back
  // stays within the capacity begin_tracking reserved.
  if (::mprotect(static_cast<std::uint8_t*>(base_) + page * page_size_,
                 page_size_, PROT_READ | PROT_WRITE) != 0) {
    return false;  // fall through to crash — cannot continue
  }
  dirty_.push_back(static_cast<std::uint32_t>(page));
  return true;
}

std::vector<PageRun> AltHeap::dirty_runs() const {
  std::vector<std::uint32_t> pages = dirty_;
  std::sort(pages.begin(), pages.end());
  std::vector<PageRun> runs;
  for (std::uint32_t page : pages) {
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
  if (tracking_) {
    // This process is itself an arm: open the destination pages and record
    // them, or its own commit would not carry them on.
    std::vector<bool> recorded(pages_, false);
    for (std::uint32_t page : dirty_) recorded[page] = true;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      if (::mprotect(iov[k].iov_base, iov[k].iov_len,
                     PROT_READ | PROT_WRITE) != 0) {
        throw_errno("mprotect(RW)");
      }
      for (std::uint32_t p = runs[k].first; p < runs[k].first + runs[k].count;
           ++p) {
        if (!recorded[p]) dirty_.push_back(p);
      }
    }
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

Bytes AltHeap::serialize_dirty() const {
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
