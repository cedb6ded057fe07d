// await_all: the conjunction companion to race().
//
// The paper's section 5.2 names two kinds of rule-level parallelism:
// OR-parallelism (mutually exclusive alternatives — race()) and
// AND-parallelism ("if goals A and B must be satisfied, we can pursue the
// satisfaction of A and B in parallel"), and runs both on the same
// spawn/wait machinery. So does this: await_all is a collect-all AltGroup.
// Every task runs in its own forked process and delivers its value without
// taking the commit token (every result is needed); the conjunction
// succeeds only when ALL of them deliver. The first task to fail (nullopt,
// exception, crash), in whatever order they finish, or the deadline fails
// the whole conjunction and the surviving children are eliminated.
//
// Being an AltGroup, it is admitted by the governor, billed by wait4 with a
// fate per child, traced with phase spans, and retries injected fork
// failures like any race. Granted k of n tokens, it runs k tasks at a time
// and forks the next as one delivers.
#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "posix/race.hpp"

namespace altx::posix {

struct AwaitOptions {
  std::chrono::milliseconds timeout{30'000};

  /// Optional seeded fault plan (see posix/fault.hpp): children consult it
  /// just before delivering their result; the parent consults it before
  /// each fork. await_all has no commit token, so kDropCommit simply loses
  /// the child's frame — which fails the conjunction, as any crash does.
  FaultInjector* fault = nullptr;
};

/// Runs every task concurrently; returns all results (in task order) or
/// nullopt if any task failed or the deadline passed.
template <RaceSerializable T>
std::optional<std::vector<T>> await_all(const std::vector<AlternativeFn<T>>& tasks,
                                        const AwaitOptions& options = {}) {
  ALTX_REQUIRE(!tasks.empty(), "await_all: need at least one task");
  AltGroupOptions go;
  go.fault = options.fault;
  AltGroup group(go);
  group.alt_spawn(static_cast<int>(tasks.size()), [&](int who) {
    std::optional<T> out;
    try {
      out = tasks[static_cast<std::size_t>(who) - 1]();
    } catch (...) {
    }
    obs::emit(obs::EventKind::kAwaitTaskDone, group.race_id(),
              static_cast<std::int16_t>(who), out.has_value() ? 1 : 0);
    if (out.has_value()) group.child_deliver(race_bytes<T>(*out));
  });
  obs::emit(obs::EventKind::kAwaitBegin, group.race_id(), 0,
            static_cast<std::uint64_t>(tasks.size()));
  const auto all = group.alt_wait_all(options.timeout);
  obs::emit(obs::EventKind::kAwaitDecided, group.race_id(), 0,
            all.has_value() ? 1 : 0);
  if (!all.has_value()) return std::nullopt;
  std::vector<T> results;
  results.reserve(all->size());
  for (const Bytes& b : *all) results.push_back(race_decode<T>(b));
  return results;
}

}  // namespace altx::posix
