// The commit board: where a block's arms take the commit token and leave
// their standing (paper section 3.2.1's 0-1 semaphore, and the ledger's
// page census).
//
// A process has one board, a MAP_SHARED memfd mapping it makes on its first
// block and never unmaps. Every block takes a run of words on it before its
// first fork — one token word and one standing word per arm — and gives
// them back in its destructor, so a block maps, opens and closes nothing of
// its own, and one caller keeps reusing the same words on the same page.
// Its arms inherit the board through fork and write only their own block's
// words. Threads of the process share the board: the word runs are handed
// out under a mutex that lives on the board too, so the parent's writes
// after a fork never copy a page.
//
// Every word carries its block's sequence number in its high half, and
// every write to a word is a compare-and-swap that keeps that tag. A loser
// whose SIGKILL has not landed yet can therefore neither take a later
// block's token nor publish into a later block's slot, however soon its
// words are reused.
//
// The token word is {seq, tokens left}: taking the token is one CAS that
// counts it down. A block deposits one token; the double-commit sabotage
// (ALTX_TEST_BREAK_AT_MOST_ONCE) deposits two. An arm's standing word is
// {seq, standing, census flag, dirty pages}: where the arm stands at the
// token (unseen / taken / passed) and the dirty-page count it published
// before its sync point, both of which survive a kill.
//
// A forked arm that runs a block of its own makes its own board on that
// block and still publishes its standing into its parent's; a process
// keeps its own board and, as an arm, its parent's, and unmaps any board
// it inherited from further up when it is forked as an arm.
#pragma once

#include <cstddef>
#include <cstdint>

namespace altx::posix {

/// An arm's standing at its block's commit token.
enum class Standing : std::uint8_t {
  kUnseen = 0,  // has not reached the token (or never will)
  kTaken = 1,   // took a token: its commit is on record before any frame
  kPassed = 2,  // aborted, or found the token gone (too late)
};

/// One arm's standing word as its parent reads it.
struct ArmWord {
  Standing standing = Standing::kUnseen;
  bool census = false;  // the arm published its dirty-page count
  std::uint64_t dirty_pages = 0;
};

struct Board;

/// One block's words on its process's board. A plain handle: the parent
/// opens it before its first fork and closes it when the block is done;
/// each arm inherits a copy and never closes it.
class BoardBlock {
 public:
  /// The most arms one block can have on a board (its words less one).
  static constexpr int kMaxArms = 8191;

  /// Takes a token word and `arms` standing words on this process's board,
  /// making the board on the process's first block, and deposits `tokens`
  /// commit tokens. Throws SystemError when the board cannot be mapped or
  /// has no run of free words left.
  static BoardBlock open(int arms, std::uint32_t tokens);

  /// Gives the words back. Parent side only; idempotent.
  void close();

  [[nodiscard]] std::uint32_t seq() const { return seq_; }
  [[nodiscard]] int arms() const { return arms_; }

  // Arm side: a CAS each, void once the words belong to a later block.

  /// Takes a commit token; false when none is left.
  [[nodiscard]] bool take_token() const;
  /// Records arm `arm`'s (1-based) dirty-page count.
  void publish_pages(int arm, std::uint64_t pages) const;
  /// Records where arm `arm` stands at the token.
  void publish_standing(int arm, Standing standing) const;

  /// Arm `arm`'s word; all zero when it published nothing in this block.
  [[nodiscard]] ArmWord read(int arm) const;

  /// Child side, right after fork: unmaps a board the process inherited
  /// from above its parent. No write when there is none.
  static void forget_grandparent_board();

 private:
  Board* board_ = nullptr;
  std::uint64_t* words_ = nullptr;  // [0] token, [arm] standing; every
                                    // access is a std::atomic_ref
  std::uint32_t base_ = 0;
  std::uint32_t seq_ = 0;
  int arms_ = 0;
};

}  // namespace altx::posix
