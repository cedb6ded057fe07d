// AltHeap: a copy-on-write shared-state arena for real processes.
//
// This is the POSIX realisation of the paper's sink-state management: the
// parent allocates an anonymous MAP_PRIVATE arena; fork() gives every
// alternative a copy-on-write view of it for free (the kernel's COW is the
// paper's page-map inheritance). Each child tracks the pages it writes — the
// per-process descriptor table of section 3.3 — by keeping the arena
// read-protected and catching the first write to each page with a SIGSEGV
// handler that records the page and opens it up.
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
// (apply_patch). An arena that is itself tracked — an arm running a nested
// block over the same heap — opens and records the pulled pages first, so
// its own commit carries them on.
//
// The same tracking runs over a file: FileHeap (posix/file_heap.hpp) is an
// AltHeap whose arena maps a file's descriptor instead of anonymous memory.
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
  /// Maps an arena of `pages` system pages. The arena starts writable in the
  /// parent (tracking off).
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

  /// Called by an alternative right after fork(): read-protects the arena and
  /// starts recording dirty pages.
  void begin_tracking();

  /// The page indices written since begin_tracking().
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
  /// fails otherwise or comes up short. While tracking, the runs' pages are
  /// opened and recorded dirty first: the kernel's writes bypass the fault
  /// handler.
  std::optional<std::size_t> absorb_from(pid_t winner,
                                         const std::vector<PageRun>& runs);

  /// Parent side: applies a winner's dirty pages to this arena.
  /// Returns the number of pages patched.
  std::size_t apply_patch(const Bytes& patch) {
    return apply_patch(patch, nullptr);
  }

  /// Stops tracking (unprotects everything); used by tests.
  void end_tracking();

  /// The SIGSEGV handler's entry: true when `addr` is a first write to a
  /// tracked page of this arena (now recorded and writable).
  bool handle_fault(void* addr);

 protected:
  /// Maps `pages` pages of `backing` MAP_PRIVATE instead of anonymous
  /// memory: reads come from the file, writes stay private (FileHeap).
  AltHeap(std::size_t pages, Fd backing);

  [[nodiscard]] int backing_fd() const noexcept { return backing_.get(); }

  /// Drops every private page: maps the backing afresh, tracking off.
  void remap();

  /// apply_patch that also appends each patched page index to `patched`.
  std::size_t apply_patch(const Bytes& patch,
                          std::vector<std::uint32_t>* patched);

 private:
  void map();

  Fd backing_;  // invalid: anonymous arena
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t page_size_ = 0;
  std::size_t pages_ = 0;
  bool tracking_ = false;
  std::vector<std::uint32_t> dirty_;  // reserved to pages_ while tracking
};

}  // namespace altx::posix
