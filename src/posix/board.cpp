#include "posix/board.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <new>

#include "common/error.hpp"
#include "posix/fd.hpp"

namespace altx::posix {

namespace {

constexpr std::size_t kWords = BoardBlock::kMaxArms + 1;
constexpr std::uint32_t kFirstSeq = 1;  // 0 tags no block

// An arm's standing word below its tag: 2 bits of standing, the census
// flag, and the dirty-page count, which saturates.
constexpr int kStandingShift = 30;
constexpr std::uint64_t kCensusBit = std::uint64_t{1} << 29;
constexpr std::uint64_t kPagesMask = kCensusBit - 1;

constexpr std::uint32_t tag_of(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}

constexpr std::uint64_t tagged(std::uint32_t seq, std::uint64_t low) {
  return (static_cast<std::uint64_t>(seq) << 32) | low;
}

/// The board's words are plain memory the processes share; every access
/// goes through an atomic_ref.
std::atomic_ref<std::uint64_t> word(std::uint64_t* words, int i) {
  return std::atomic_ref<std::uint64_t>(words[i]);
}

}  // namespace

// The board's header; its words follow it on the mapping. Only the header
// is constructed: the words are the memfd's zero pages (tag 0, no block)
// until a block takes them, so a page is touched only once a block uses it.
struct Board {
  pid_t owner = 0;  // the process that made it; never written again
  std::mutex mu;    // guards next_seq and used: threads of `owner`
  std::uint32_t next_seq = kFirstSeq;
  std::uint64_t used[kWords / 64] = {};  // one bit per word taken

  std::uint64_t* words();
};

namespace {

static_assert(kWords % 64 == 0);

constexpr std::size_t kWordsAt = (sizeof(Board) + 63) & ~std::size_t{63};
constexpr std::size_t kMapBytes =
    (kWordsAt + kWords * sizeof(std::uint64_t) + 4095) & ~std::size_t{4095};

// This process's board, or, in a forked arm that has run no block of its
// own yet, the one it inherited (its owner says which).
std::atomic<Board*> g_board{nullptr};
// The board a process inherited, kept once it has made its own: an arm's
// own block publishes there. Forked as an arm, its child unmaps it.
Board* g_parent_board = nullptr;

Board* make_board(pid_t self) {
  // A named memfd, so /proc/<pid>/maps tells a board from other shared
  // memory. Its pages are touched only as far as blocks use its words.
  const Fd fd(::memfd_create("altx-commit-board", MFD_CLOEXEC));
  if (!fd.valid()) throw_errno("commit board: memfd_create");
  if (::ftruncate(fd.get(), static_cast<off_t>(kMapBytes)) != 0) {
    throw_errno("commit board: ftruncate");
  }
  void* p = ::mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                   fd.get(), 0);
  if (p == MAP_FAILED) throw_errno("commit board: mmap");
  Board* b = new (p) Board;
  b->owner = self;
  return b;
}

/// This process's board, made on its first use. In a forked child the
/// inherited board's owner is its parent, so the child makes its own and
/// keeps the inherited one as its parent's.
Board& my_board() {
  const pid_t self = ::getpid();
  Board* b = g_board.load(std::memory_order_acquire);
  while (b == nullptr || b->owner != self) {
    Board* fresh = make_board(self);
    if (g_board.compare_exchange_strong(b, fresh, std::memory_order_acq_rel)) {
      if (b != nullptr) {
        if (g_parent_board != nullptr && g_parent_board != b) {
          ::munmap(g_parent_board, kMapBytes);
        }
        g_parent_board = b;
      }
      return *fresh;
    }
    ::munmap(fresh, kMapBytes);  // another thread made this process's board
  }
  return *b;
}

bool taken(const Board& b, std::size_t i) {
  return ((b.used[i / 64] >> (i % 64)) & 1) != 0;
}

void mark(Board& b, std::size_t first, std::size_t n, bool on) {
  for (std::size_t i = first; i < first + n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if (on) {
      b.used[i / 64] |= bit;
    } else {
      b.used[i / 64] &= ~bit;
    }
  }
}

}  // namespace

std::uint64_t* Board::words() {
  return reinterpret_cast<std::uint64_t*>(reinterpret_cast<char*>(this) +
                                          kWordsAt);
}

BoardBlock BoardBlock::open(int arms, std::uint32_t tokens) {
  ALTX_REQUIRE(arms >= 1 && arms <= kMaxArms,
               "commit board: a block has 1..8191 arms");
  Board& b = my_board();
  const auto need = static_cast<std::size_t>(arms) + 1;
  BoardBlock block;
  {
    std::lock_guard<std::mutex> lock(b.mu);
    // First fit, so one caller keeps reusing the lowest words.
    std::size_t run = 0;
    std::size_t first = kWords;
    for (std::size_t i = 0; i < kWords && first == kWords; ++i) {
      if (i % 64 == 0 && b.used[i / 64] == ~std::uint64_t{0}) {
        run = 0;
        i += 63;
        continue;
      }
      run = taken(b, i) ? 0 : run + 1;
      if (run == need) first = i + 1 - need;
    }
    if (first == kWords) {
      throw SystemError("commit board: no free words for the block", EAGAIN);
    }
    mark(b, first, need, true);
    block.seq_ = b.next_seq++;
    if (b.next_seq == 0) b.next_seq = kFirstSeq;
    block.base_ = static_cast<std::uint32_t>(first);
  }
  block.board_ = &b;
  block.words_ = b.words() + block.base_;
  block.arms_ = arms;
  // Every word takes the block's tag before the first fork; from here on an
  // arm of an earlier block that used these words matches none of them.
  word(block.words_, 0).store(tagged(block.seq_, tokens),
                              std::memory_order_release);
  for (int arm = 1; arm <= arms; ++arm) {
    word(block.words_, arm).store(tagged(block.seq_, 0),
                                  std::memory_order_release);
  }
  return block;
}

void BoardBlock::close() {
  if (board_ == nullptr) return;
  std::lock_guard<std::mutex> lock(board_->mu);
  mark(*board_, base_, static_cast<std::size_t>(arms_) + 1, false);
  board_ = nullptr;
  words_ = nullptr;
}

bool BoardBlock::take_token() const {
  if (words_ == nullptr) return false;
  const std::atomic_ref<std::uint64_t> token = word(words_, 0);
  std::uint64_t w = token.load(std::memory_order_acquire);
  while (tag_of(w) == seq_ && static_cast<std::uint32_t>(w) > 0) {
    if (token.compare_exchange_weak(w, w - 1, std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

namespace {

/// CASes `next(word)` into `slot` as long as the slot still carries `seq`.
template <typename Next>
void update_tagged(std::atomic_ref<std::uint64_t> slot, std::uint32_t seq,
                   Next next) {
  std::uint64_t w = slot.load(std::memory_order_relaxed);
  while (tag_of(w) == seq) {
    if (slot.compare_exchange_weak(w, next(w), std::memory_order_acq_rel)) {
      return;
    }
  }
}

}  // namespace

void BoardBlock::publish_pages(int arm, std::uint64_t pages) const {
  if (words_ == nullptr || arm < 1 || arm > arms_) return;
  const std::uint64_t low = kCensusBit | std::min(pages, kPagesMask);
  update_tagged(word(words_, arm), seq_, [low](std::uint64_t w) {
    return (w & ~(kCensusBit | kPagesMask)) | low;
  });
}

void BoardBlock::publish_standing(int arm, Standing standing) const {
  if (words_ == nullptr || arm < 1 || arm > arms_) return;
  const std::uint64_t bits = static_cast<std::uint64_t>(standing)
                             << kStandingShift;
  update_tagged(word(words_, arm), seq_, [bits](std::uint64_t w) {
    return (w & ~(std::uint64_t{3} << kStandingShift)) | bits;
  });
}

ArmWord BoardBlock::read(int arm) const {
  ArmWord out;
  if (words_ == nullptr || arm < 1 || arm > arms_) return out;
  const std::uint64_t w = word(words_, arm).load(std::memory_order_acquire);
  if (tag_of(w) != seq_) return out;
  out.standing = static_cast<Standing>((w >> kStandingShift) & 3);
  out.census = (w & kCensusBit) != 0;
  out.dirty_pages = w & kPagesMask;
  return out;
}

void BoardBlock::forget_grandparent_board() {
  if (g_parent_board == nullptr) return;
  ::munmap(g_parent_board, kMapBytes);
  g_parent_board = nullptr;
}

}  // namespace altx::posix
