// FileHeap: speculative transactions on a durable file.
//
// The paper's single-level store buries files under the page abstraction
// ("files are named sets of pages"), so the same copy-on-write machinery
// that isolates alternatives over memory also isolates them over files.
// A FileHeap is an ordinary AltHeap arena loaded from the file at open:
// every process (and every forked alternative) reads the file's pages out
// of the arena, an alternative's writes go to its private copies and are
// read with PAGEMAP_SCAN like any arm's (Linux >= 6.7), and nothing touches
// the disk until the parent — after absorbing the winner — explicitly
// commits, making the block a transaction on the file (all of the winner's
// updates or none).
//
// What it adds to the arena is the file's descriptor and the transaction:
// the pending list, commit() and rollback().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "posix/alt_heap.hpp"
#include "posix/fd.hpp"

namespace altx::posix {

class FileHeap : private AltHeap {
 public:
  /// Opens (creating and zero-extending if needed) `path` and reads its
  /// first `pages` system pages into a fresh arena.
  FileHeap(const std::string& path, std::size_t pages);

  using AltHeap::at;
  using AltHeap::base;
  using AltHeap::page_size;
  using AltHeap::pages;
  using AltHeap::size_bytes;

  /// Child side: AltHeap's scanned dirty set.
  using AltHeap::begin_tracking;
  using AltHeap::dirty_pages;
  using AltHeap::end_tracking;
  using AltHeap::serialize_dirty;

  /// Parent side: applies a winner's dirty pages to the in-memory view and
  /// records them for the next commit().
  std::size_t apply_patch(const Bytes& patch);

  /// Writes every page modified since the last commit (whether patched in
  /// from a winner or written directly by the caller) back to the file and
  /// fsyncs — the transaction's commit point. Returns pages written.
  std::size_t commit();

  /// Discards in-memory modifications: reads the whole file into the arena
  /// again, restoring the on-disk state (the transaction's abort).
  void rollback();

  /// Marks a page modified directly by the caller (apply_patch marks its
  /// pages automatically) so commit() persists it.
  void mark_dirty(std::uint32_t page);

 private:
  void note_pending(std::uint32_t page);

  Fd file_;
  std::vector<std::uint32_t> pending_;  // parent-side pages awaiting commit
};

}  // namespace altx::posix
