// AltHeap: a copy-on-write shared-state arena for real processes.
//
// This is the POSIX realisation of the paper's sink-state management. The
// arena is a memfd, and its owner maps it MAP_SHARED, so fork() copies none
// of its page tables. Every process forked from the owner — an alternative,
// an altxd worker's arm, a plain ::fork() child — maps the memfd
// MAP_PRIVATE at the same address before fork() returns in it (a
// pthread_atfork child handler moves a private map the owner made beside
// the arena, and never touched, in over it; a fork while the owner tracks
// finds the private view in place and unmaps the shared one it moved
// aside), so it reads the owner's pages
// and its writes go to copies of its own: the paper's page-map
// inheritance, with the kernel's COW doing the copying, and no child ever
// writes into the owner's arena. The two maps hold the memfd; no
// descriptor stays open. Arenas are made and destroyed while no other
// thread of the process forks: the handler walks their registry unlocked.
//
// A child's updated pages are its "predicated" pages, the per-process
// descriptor table of section 3.3. No process keeps that table itself: the
// pages a process wrote are exactly the anonymous pages of its private map,
// and it reads them from the kernel with one PAGEMAP_SCAN ioctl (Linux >=
// 6.7) on its own /proc/self/pagemap, into a result buffer allocated before
// the fork. No page is protected, no write traps, and the library installs
// no SIGSEGV handler. The constructor probes the ioctl and throws
// SystemError where it is missing; an arm whose begin_tracking() fails
// aborts before it runs its alternative.
//   - A top-level arm's private map is the owner's untouched spare, so its
//     scan returns exactly its own writes.
//   - A nested arm inherits its parent arm's copies, so its scan returns
//     them as well, and it sends that superset. The parent arm writes
//     nothing between the nested forks and the verdict (alt_spawn's
//     precondition), so every page it gets back that it wrote itself is
//     byte-identical.
//   - The owner's own begin_tracking() moves the shared view aside and the
//     spare in over it; end_tracking() scans, writes the dirty pages back
//     into the shared view, drops the private copies, and swaps the views
//     back, leaving a clean spare.
//
// At synchronization the winning child sends only its dirty pages, merged
// into runs, and waits. The arena sits at the same address in both
// processes, so the parent reads every run straight out of the winner's
// arena into its own with one process_vm_readv (absorb_from) — the absorb
// step ("atomically replacing its page pointer with that of the child") at
// page granularity, with one copy per page. Where the kernel refuses the
// pull (Yama ptrace scope 2, a seccomp filter, a non-dumpable child) or
// there are more runs than one call takes, the winner instead serialises
// its pages (serialize_dirty) and the parent patches them in
// (apply_patch). An arm that pulls from a nested block's winner needs no
// extra step: the pulled pages are copies of its own like any other write,
// and its scan finds them.
//
// Visibility: a loser's private map reads through to the memfd wherever it
// has not written, so a loser still alive while the parent pulls the
// winner's pages may read pulled pages it never wrote. It can no longer
// commit — the token is gone — so no loser effect ever becomes visible.
//
// FileHeap (posix/file_heap.hpp) is an AltHeap loaded from a file, plus the
// file's descriptor and the transaction.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "posix/fd.hpp"

namespace altx::posix {

/// Consecutive arena pages [first, first + count).
struct PageRun {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

class AltHeap {
 public:
  /// Maps an arena of `pages` system pages over a fresh (zeroed) memfd,
  /// shared in this process. The arena starts writable (tracking off).
  /// Throws SystemError where the kernel lacks PAGEMAP_SCAN (Linux < 6.7).
  explicit AltHeap(std::size_t pages);
  ~AltHeap();

  AltHeap(const AltHeap&) = delete;
  AltHeap& operator=(const AltHeap&) = delete;

  [[nodiscard]] void* base() const noexcept { return base_; }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t page_size() const noexcept { return page_size_; }
  [[nodiscard]] std::size_t pages() const noexcept { return pages_; }

  /// Typed view of the arena at a byte offset.
  template <typename T>
  [[nodiscard]] T* at(std::size_t byte_offset) const {
    ALTX_REQUIRE(byte_offset + sizeof(T) <= bytes_, "AltHeap::at: out of range");
    return reinterpret_cast<T*>(static_cast<std::uint8_t*>(base_) + byte_offset);
  }

  /// Starts recording the pages this process writes: opens the scan. An
  /// alternative calls it right after fork(); in the owner it also swaps
  /// the private spare in over the shared view. Throws SystemError when the
  /// scan cannot be opened.
  void begin_tracking();

  /// Reads the dirty set from the kernel (when tracking) and returns its
  /// size. An arm calls it at its sync point.
  std::size_t collect_dirty();

  /// The page indices written since begin_tracking(), ascending, as of the
  /// last scan.
  [[nodiscard]] const std::vector<std::uint32_t>& dirty_pages() const {
    return dirty_;
  }

  /// The dirty pages merged into runs: what a winner sends.
  [[nodiscard]] std::vector<PageRun> dirty_runs() const;

  /// Serialises the dirty pages (index + contents) for the commit pipe,
  /// scanning first when tracking.
  [[nodiscard]] Bytes serialize_dirty();

  /// Parent side: copies `runs` of process `winner`'s arena — a fork of
  /// this one, so at the same address — into this arena with one
  /// process_vm_readv, and returns the number of pages copied. Returns
  /// nullopt, having copied nothing, when the pull is unavailable: more runs
  /// than one call takes, or the kernel refuses it (EPERM, ENOSYS); the
  /// caller then falls back to a patch. Throws SystemError when the call
  /// fails otherwise or comes up short.
  std::optional<std::size_t> absorb_from(pid_t winner,
                                         const std::vector<PageRun>& runs);

  /// Parent side: applies a winner's dirty pages to this arena.
  /// Returns the number of pages patched.
  std::size_t apply_patch(const Bytes& patch) {
    return apply_patch(patch, nullptr);
  }

  /// Stops tracking, with the dirty set scanned a last time. In the owner
  /// it writes the dirty pages back into the shared view.
  void end_tracking();

  /// Owner side: zeroes the whole arena by punching its pages out of the
  /// memfd, which also gives their memory back.
  void clear();

 protected:
  /// apply_patch that also appends each patched page index to `patched`.
  std::size_t apply_patch(const Bytes& patch,
                          std::vector<std::uint32_t>* patched);

 private:
  static void after_fork_in_child();

  Fd pagemap_;  // valid while tracking: this process's /proc/self/pagemap
  void* base_ = nullptr;
  void* spare_ = nullptr;   // the owner's untouched private map of the memfd
  void* shared_ = nullptr;  // the owner's shared view, aside while it tracks
  std::size_t bytes_ = 0;
  std::size_t page_size_ = 0;
  std::size_t pages_ = 0;
  std::vector<std::uint32_t> dirty_;
  std::vector<std::uint64_t> regions_;  // the scan's result buffer
};

}  // namespace altx::posix
