// The commit board (posix/board.hpp) and what a block adds to the process
// that forks it.
//
// A block takes its token word and its arms' standing words on the
// process's one board, so between alt_spawn and alt_wait the forking
// process has exactly the mappings it had before, and exactly two more
// descriptors per forked arm: the arm's result pipe and its pidfd. Every
// word carries its block's sequence number, so an arm that outlives its
// block (a loser whose SIGKILL has not landed) can neither take nor
// publish into the block that reuses its words. None of these tests
// relies on a time margin.
#include <gtest/gtest.h>
#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "posix/alt_group.hpp"
#include "posix/alt_heap.hpp"
#include "posix/board.hpp"
#include "posix/race.hpp"
#include "posix/reap.hpp"

namespace altx::posix {
namespace {

using namespace std::chrono_literals;

/// Lines of /proc/self/maps, or only those naming `needle`.
int maps_lines(const char* needle = nullptr) {
  std::ifstream maps("/proc/self/maps");
  int n = 0;
  for (std::string line; std::getline(maps, line);) {
    if (needle == nullptr || line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

int board_maps() { return maps_lines("altx-commit-board"); }

/// Open descriptors of this process, the directory stream's own excluded.
int open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* e = ::readdir(dir)) {
    if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0) {
      ++n;
    }
  }
  ::closedir(dir);
  return n - 1;
}

/// Runs one block, so the process's board exists, and reaps its children.
void run_one_block() {
  AltGroup g;
  if (g.alt_spawn(1) > 0) g.child_commit(Bytes{1});
  ASSERT_TRUE(g.alt_wait(5s).has_value());
  reap_eliminated();
}

TEST(CommitBoard, ASecondTakeInTheSameBlockFails) {
  BoardBlock block = BoardBlock::open(2, 1);
  EXPECT_TRUE(block.take_token());
  EXPECT_FALSE(block.take_token());
  block.close();
}

TEST(CommitBoard, TheSabotageDepositAllowsExactlyTwoTakes) {
  BoardBlock block = BoardBlock::open(3, 2);
  EXPECT_TRUE(block.take_token());
  EXPECT_TRUE(block.take_token());
  EXPECT_FALSE(block.take_token());
  block.close();
}

TEST(CommitBoard, AnEarlierBlocksTagMatchesNoWordOfALaterBlock) {
  BoardBlock early = BoardBlock::open(2, 1);
  const BoardBlock stale = early;  // what an arm of that block still holds
  early.close();
  // First fit hands the same words to the next block. Its token is still
  // untaken, so only the tag can refuse the stale take.
  BoardBlock later = BoardBlock::open(2, 1);
  ASSERT_NE(later.seq(), stale.seq());
  EXPECT_FALSE(stale.take_token());
  stale.publish_standing(1, Standing::kTaken);
  stale.publish_pages(2, 7);
  EXPECT_EQ(later.read(1).standing, Standing::kUnseen);
  EXPECT_FALSE(later.read(2).census);
  EXPECT_TRUE(later.take_token());
  later.close();
}

TEST(CommitBoard, AnArmsStandingAndCensusShareItsWord) {
  BoardBlock block = BoardBlock::open(2, 1);
  block.publish_pages(1, 5);
  block.publish_standing(1, Standing::kTaken);
  const ArmWord word = block.read(1);
  EXPECT_TRUE(word.census);
  EXPECT_EQ(word.dirty_pages, 5u);
  EXPECT_EQ(word.standing, Standing::kTaken);
  EXPECT_FALSE(block.read(2).census);
  EXPECT_EQ(block.read(2).standing, Standing::kUnseen);
  block.close();
}

TEST(CommitBoard, ThreadsTakeDisjointWords) {
  // Blocks open at once on one board never share a word: each thread's
  // standing and token are its own while its block is open.
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &wrong] {
      for (int round = 0; round < kRounds; ++round) {
        BoardBlock block = BoardBlock::open(1 + t, 1);
        for (int arm = 1; arm <= 1 + t; ++arm) {
          block.publish_pages(arm, static_cast<std::uint64_t>(t));
        }
        if (!block.take_token() || block.take_token()) ++wrong;
        for (int arm = 1; arm <= 1 + t; ++arm) {
          if (block.read(arm).dirty_pages != static_cast<std::uint64_t>(t)) {
            ++wrong;
          }
        }
        block.close();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(CommitBoard, ThreadsRaceBlocksOnOneBoard) {
  // Races from several threads at once: each block's token goes to one of
  // its own arms, and the reap set, swept from every thread, ends empty.
  constexpr int kThreads = 3;
  constexpr int kBlocks = 40;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &wrong] {
      for (int b = 0; b < kBlocks; ++b) {
        const int token = t * 1000 + b;
        const auto r = race<int>({
            [token] { return std::optional<int>(token); },
            [token] {
              ::usleep(1000);
              return std::optional<int>(token);
            },
        });
        if (!r.has_value() || r->value != token) ++wrong;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  reap_eliminated();
  EXPECT_EQ(board_maps(), 1);
}

TEST(BlockFootprint, ABlockMakesNoMapping) {
  run_one_block();
  const int before = maps_lines();
  AltGroup g;
  const int who = g.alt_spawn(2);
  if (who == 1) g.child_commit(Bytes{1});
  if (who == 2) {
    ::pause();  // the verdict kills it
    g.child_abort();
  }
  const int during = maps_lines();
  ASSERT_TRUE(g.alt_wait(5s).has_value());
  EXPECT_EQ(during, before);
  EXPECT_EQ(board_maps(), 1);
}

TEST(BlockFootprint, ABlockOpensTwoDescriptorsPerForkedArm) {
  run_one_block();
  const int before = open_fds();
  AltGroup g;
  if (g.alt_spawn(3) > 0) {
    ::pause();  // killed at the deadline
    g.child_abort();
  }
  const int during = open_fds();
  EXPECT_FALSE(g.alt_wait(1ms).has_value());
  EXPECT_EQ(during - before, 2 * 3);  // a result read end and a pidfd each
}

TEST(CommitBoard, ANestedArmMakesItsOwnBoardAndPublishesIntoItsParents) {
  run_one_block();
  ASSERT_EQ(board_maps(), 1);
  AltHeap heap(8);
  AltGroupOptions go;
  go.heap = &heap;
  AltGroup g(go);
  if (g.alt_spawn(1) == 1) {
    const int inherited = board_maps();  // its parent's, and no other
    for (std::size_t p = 0; p < 3; ++p) {
      *heap.at<std::uint64_t>(p * heap.page_size()) = p + 1;
    }
    // Its own block makes its own board; the arm of that block maps the
    // board of its parent (this arm) and none from further up.
    const auto inner =
        race<int>({[] { return std::optional<int>(board_maps()); }});
    const int own = board_maps();
    g.child_commit(Bytes{static_cast<std::uint8_t>(inherited),
                         static_cast<std::uint8_t>(inner ? inner->value : 0),
                         static_cast<std::uint8_t>(own)});
  }
  const auto win = g.alt_wait(5s);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->result, (Bytes{1, 1, 2}));
  // Its census went to this block's word on this process's board, after
  // the arm had made a board of its own.
  EXPECT_EQ(g.child_statuses()[0].dirty_pages, 3u);
  EXPECT_EQ(win->pages_absorbed, 3u);
  EXPECT_EQ(board_maps(), 1);
}

}  // namespace
}  // namespace altx::posix
