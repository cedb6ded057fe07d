// Speculative updates to shared paged state through an AltHeap.
//
// The paper's memory story, live: a "database" lives in a copy-on-write
// arena; two query plans race, each updating the pages it needs inside its
// own forked world. The winner's dirty pages — its per-process descriptor
// table, which the kernel keeps as the arm's private copies of the arena's
// pages, read with one PAGEMAP_SCAN (Linux >= 6.7) — are absorbed into the parent, exactly the alt_wait
// page-pointer swap at page granularity. The loser's writes never existed.
#include <unistd.h>

#include <cstdio>

#include "posix/alt_heap.hpp"
#include "posix/race.hpp"

namespace {

struct Record {
  long key;
  long value;
  long updated_by;  // 1 = index plan, 2 = scan plan
};

}  // namespace

int main() {
  using namespace altx::posix;

  // A table of 1024 records spread over a 64-page COW arena.
  AltHeap heap(64);
  const std::size_t n = 1024;
  auto* table = heap.at<Record>(0);
  for (std::size_t i = 0; i < n; ++i) {
    table[i] = Record{static_cast<long>(i), static_cast<long>(i) * 10, 0};
  }

  const long target_key = 777;

  RaceOptions opts;
  opts.heap = &heap;
  auto r = race<long>(
      {
          // Plan 1: "index lookup" — goes straight to the record.
          [&]() -> std::optional<long> {
            ::usleep(5'000);
            table[target_key].value += 1;
            table[target_key].updated_by = 1;
            return table[target_key].value;
          },
          // Plan 2: "full scan" — touches every page on the way.
          [&]() -> std::optional<long> {
            long found = -1;
            for (std::size_t i = 0; i < n; ++i) {
              if (table[i].key == target_key) {
                ::usleep(60'000);  // the scan is slow
                table[i].value += 1;
                table[i].updated_by = 2;
                found = table[i].value;
              }
            }
            return found < 0 ? std::nullopt : std::optional<long>(found);
          },
      },
      opts);

  if (!r.has_value()) {
    std::printf("FAIL: no plan succeeded\n");
    return 1;
  }
  std::printf("query plan race: winner = plan %d, result = %ld\n", r->winner,
              r->value);
  std::printf("pages absorbed from the winner's descriptor table: %zu\n",
              r->pages_absorbed);
  std::printf("record[%ld] in the parent: value=%ld updated_by=plan %ld\n",
              target_key, table[target_key].value, table[target_key].updated_by);
  std::printf("every other record untouched: record[0].value = %ld (expected 0)\n",
              table[0].value);
  return 0;
}
