// AltHeap: a copy-on-write shared-state arena for real processes.
//
// This is the POSIX realisation of the paper's sink-state management. The
// arena is a memfd, and its owner maps it MAP_SHARED, so fork() copies none
// of its page tables. Every process forked from the owner — an alternative,
// an altxd worker's arm, a plain ::fork() child — maps the memfd
// MAP_PRIVATE at the same address before fork() returns in it (a
// pthread_atfork child handler moves a private map the owner made beside
// the arena, and never touched, in over it), so it reads the owner's pages
// and its writes go to copies of its own: the paper's page-map
// inheritance, with the kernel's COW doing the copying, and no child ever
// writes into the owner's arena. The two maps hold the memfd; no
// descriptor stays open. Arenas are made and destroyed while no other
// thread of the process forks: the handler walks their registry unlocked.
//
// A child's updated pages are its "predicated" pages, the per-process
// descriptor table of section 3.3. An arm re-mapped at its fork
// (begin_tracking()) needs no table of its own: its written pages are
// exactly the anonymous pages of its private map, and at its sync point it
// reads them from the kernel with one PAGEMAP_SCAN ioctl (Linux >= 6.7) on
// its own /proc/self/pagemap, into a result buffer allocated before the
// fork. No page is protected and no write traps. These keep a table of
// their own instead — the arena read-protected, the first write to each
// page caught by a SIGSEGV handler that records it and opens the page:
//   - a nested arm, whose private map already holds its parent arm's
//     copies, so the kernel cannot tell its own writes from them;
//   - FileHeap, whose map stays MAP_PRIVATE in the owner, so that nothing
//     reaches the file before commit();
//   - every arm where the ioctl is missing (ENOTTY: a kernel older than
//     6.7, or a seccomp policy);
// and so do begin_tracking() / end_tracking() called by the owner itself,
// whose writes land in the arena and are recorded.
//
// At synchronization the winning child sends only its dirty pages, sorted
// and merged into runs, and waits. The arena sits at the same address in
// both processes, so the parent reads every run straight out of the
// winner's arena into its own with one process_vm_readv (absorb_from) —
// the absorb step ("atomically replacing its page pointer with that of the
// child") at page granularity, with one copy per page. Where the kernel
// refuses the pull (Yama ptrace scope 2, a seccomp filter, a non-dumpable
// child) or there are more runs than one call takes, the winner instead
// serialises its pages (serialize_dirty) and the parent patches them in
// (apply_patch). An arm that pulls from a nested block's winner needs no
// extra step when it scans (the pulled pages are copies of its own like
// any other write); with the handler it opens and records them first, so
// its own commit carries them on.
//
// Visibility: a loser's private map reads through to the memfd wherever it
// has not written, so a loser still alive while the parent pulls the
// winner's pages may read pulled pages it never wrote. It can no longer
// commit — the token is gone — so no loser effect ever becomes visible.
//
// FileHeap (posix/file_heap.hpp) is an AltHeap whose arena maps a file's
// descriptor MAP_PRIVATE instead of a memfd MAP_SHARED.
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

  /// Starts recording the pages this process writes. Called by an
  /// alternative right after fork(): in a process forked from the owner it
  /// arms the scan; anywhere else it read-protects the arena for the fault
  /// handler.
  void begin_tracking();

  /// Brings the dirty set up to date — when scanning, reads it from the
  /// kernel — and returns its size. An arm calls it at its sync point.
  std::size_t collect_dirty();

  /// The page indices written since begin_tracking() (when scanning, as of
  /// the last collect_dirty()).
  [[nodiscard]] const std::vector<std::uint32_t>& dirty_pages() const {
    return dirty_;
  }

  /// The dirty pages, sorted and merged into runs: what a winner sends.
  [[nodiscard]] std::vector<PageRun> dirty_runs() const;

  /// Serialises the dirty pages (index + contents) for the commit pipe.
  [[nodiscard]] Bytes serialize_dirty() const;

  /// Parent side: copies `runs` of process `winner`'s arena — a fork of
  /// this one, so at the same address — into this arena with one
  /// process_vm_readv, and returns the number of pages copied. Returns
  /// nullopt, having copied nothing, when the pull is unavailable: more runs
  /// than one call takes, or the kernel refuses it (EPERM, ENOSYS); the
  /// caller then falls back to a patch. Throws SystemError when the call
  /// fails otherwise or comes up short. Under the fault handler, the runs'
  /// pages are opened and recorded dirty first: the kernel's writes bypass
  /// it.
  std::optional<std::size_t> absorb_from(pid_t winner,
                                         const std::vector<PageRun>& runs);

  /// Parent side: applies a winner's dirty pages to this arena.
  /// Returns the number of pages patched.
  std::size_t apply_patch(const Bytes& patch) {
    return apply_patch(patch, nullptr);
  }

  /// Stops tracking (opens every page again); used by tests.
  void end_tracking();

  /// Owner side: zeroes the whole arena by punching its pages out of the
  /// memfd, which also gives their memory back.
  void clear();

  /// The SIGSEGV handler's entry: true when `addr` is a first write to a
  /// tracked page of this arena (now recorded and writable).
  bool handle_fault(void* addr);

 protected:
  /// Maps `pages` pages of `file` MAP_PRIVATE instead of a shared memfd:
  /// reads come from the file, writes stay private (FileHeap). Without a
  /// valid `file`, the memfd arena.
  AltHeap(std::size_t pages, Fd file);

  [[nodiscard]] int backing_fd() const noexcept { return backing_.get(); }

  /// Drops every private page: maps the backing afresh, tracking off.
  void remap();

  /// apply_patch that also appends each patched page index to `patched`.
  std::size_t apply_patch(const Bytes& patch,
                          std::vector<std::uint32_t>* patched);

 private:
  static void after_fork_in_child();

  Fd backing_;  // FileHeap's file (the memfd is held by the maps alone)
  Fd pagemap_;  // valid while scanning: this process's /proc/self/pagemap
  void* base_ = nullptr;
  void* spare_ = nullptr;  // the owner's untouched private map of the memfd
  std::size_t bytes_ = 0;
  std::size_t page_size_ = 0;
  std::size_t pages_ = 0;
  bool fresh_ = false;     // mapped private at this process's fork
  bool tracking_ = false;  // under the fault handler
  std::vector<std::uint32_t> dirty_;    // reserved to pages_ while tracking
  std::vector<std::uint64_t> regions_;  // the scan's result buffer
};

}  // namespace altx::posix
