// E16 — governed degradation under overload (extension; no paper
// counterpart).
//
// The paper assumes the machine has room for every speculative arm; the
// governor is what happens when it does not. This bench offers the process
// more concurrent blocks than the token budget allows — T submitter threads,
// each racing 4-alternative blocks against a fixed budget of 8 child tokens —
// and measures how the system degrades: throughput, block latency, how many
// blocks fell back to serialized execution, and how many runaway arms the
// watchdog contained.
//
// Two arm mixes per row:
//   fast      — all four arms viable, 2-4 ms each. Contention cost only.
//   runaway   — every 6th block's only viable arm sleeps past the 80 ms wall
//               budget; the watchdog must kill it (SIGTERM→SIGKILL, 1 ms
//               grace) and the supervisor recovers in-process.
//
// The invariant on display: max_in_flight never exceeds the token budget
// except by sanctioned single-arm overdrafts, no matter how much work is
// offered.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "posix/governor.hpp"
#include "posix/supervisor.hpp"
#include "report.hpp"

namespace {

using namespace altx;
using namespace altx::posix;
using namespace std::chrono_literals;

constexpr int kBlocksPerThread = 10;
constexpr int kTokens = 8;
constexpr int kRunawayEvery = 6;

std::vector<AlternativeFn<int>> fast_alts() {
  return {
      [] { ::usleep(2'000); return std::optional<int>(1); },
      [] { ::usleep(3'000); return std::optional<int>(2); },
      [] { ::usleep(3'500); return std::optional<int>(3); },
      [] { ::usleep(4'000); return std::optional<int>(4); },
  };
}

/// The only viable arm sleeps well past the wall budget: the race can only
/// end when the watchdog kills it, after which the supervisor's sequential
/// fallback produces the value in-process.
std::vector<AlternativeFn<int>> runaway_alts() {
  return {
      [] { return std::optional<int>(); },  // failed guard, instantly
      [] { ::usleep(400'000); return std::optional<int>(2); },
  };
}

struct Run {
  Summary latency_ms;
  int succeeded = 0;
  int degraded = 0;
  double blocks_per_s = 0;
  GovernorStats gov;
};

Run run_row(int threads, bool with_runaways, SpeculationGovernor* gov) {
  Run out;
  std::mutex mu;
  const auto t_all0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Summary local;
      int ok = 0, deg = 0;
      for (int b = 0; b < kBlocksPerThread; ++b) {
        const bool runaway =
            with_runaways && (t * kBlocksPerThread + b) % kRunawayEvery == 0;
        RetryPolicy policy;
        policy.max_attempts = 2;
        policy.initial_backoff = 1ms;
        policy.max_backoff = 4ms;
        policy.base_timeout = 2'000ms;
        policy.seed = static_cast<std::uint64_t>(t) * 1'000 + b;
        RaceOptions opts;
        opts.timeout = 2'000ms;
        opts.governor = gov;
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = supervised_race<int>(
            runaway ? runaway_alts() : fast_alts(), policy, opts);
        const auto dt = std::chrono::steady_clock::now() - t0;
        local.add(std::chrono::duration_cast<
                      std::chrono::duration<double, std::milli>>(dt)
                      .count());
        if (r.has_value()) {
          ++ok;
          if (r->degraded) ++deg;
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      out.succeeded += ok;
      out.degraded += deg;
      for (double v : local.samples()) out.latency_ms.add(v);
    });
  }
  for (std::thread& th : pool) th.join();
  const double secs = std::chrono::duration_cast<std::chrono::duration<double>>(
                          std::chrono::steady_clock::now() - t_all0)
                          .count();
  const int blocks = threads * kBlocksPerThread;
  out.blocks_per_s = secs > 0 ? blocks / secs : 0;
  out.gov = gov->stats();
  return out;
}

}  // namespace

int main() {
  std::printf("E16: admission control and arm containment under overload\n\n");
  std::printf("T threads × %d blocks each, 4 arms per fast block, against a\n"
              "budget of %d child tokens (80 ms wall budget, 1 ms SIGTERM\n"
              "grace). Blocks denied admission degrade to serialized forked\n"
              "execution; runaway arms are killed by the watchdog.\n\n",
              kBlocksPerThread, kTokens);

  Table t({"mix", "threads", "success", "degraded", "p50", "p95", "blocks/s",
           "max in flight", "kills"});
  bench::Report report("e16_governor");
  for (const bool runaways : {false, true}) {
    for (const int threads : {2, 8, 16, 32}) {
      GovernorConfig gc;
      gc.tokens = kTokens;
      gc.admit_wait = 50ms;
      gc.serial_admit_wait = 200ms;
      gc.arm_wall_budget = 80ms;
      gc.kill_grace = 1ms;
      SpeculationGovernor gov(gc);
      const Run r = run_row(threads, runaways, &gov);
      const int blocks = threads * kBlocksPerThread;
      const std::uint64_t kills =
          r.gov.kills_wall + r.gov.kills_cpu + r.gov.kills_shed;
      char success[32];
      std::snprintf(success, sizeof success, "%d/%d", r.succeeded, blocks);
      t.add_row({runaways ? "runaway" : "fast", std::to_string(threads),
                 success, std::to_string(r.degraded),
                 Table::num(r.latency_ms.percentile(50)) + " ms",
                 Table::num(r.latency_ms.percentile(95)) + " ms",
                 Table::num(r.blocks_per_s, 1),
                 std::to_string(r.gov.max_in_flight),
                 std::to_string(kills)});
      report.row(runaways ? "runaway" : "fast")
          .param("threads", static_cast<double>(threads))
          .param("tokens", static_cast<double>(kTokens))
          .param("blocks", static_cast<double>(blocks))
          .metric("success", r.succeeded)
          .metric("degraded", r.degraded)
          .metric("blocks_per_s", r.blocks_per_s)
          .metric("max_in_flight", r.gov.max_in_flight)
          .metric("overdrafts", static_cast<double>(r.gov.overdrafts))
          .metric("kills_wall", static_cast<double>(r.gov.kills_wall))
          .metric("term_escalations",
                  static_cast<double>(r.gov.term_escalations))
          .metric("denied", static_cast<double>(r.gov.denied))
          .latency(r.latency_ms);
    }
  }
  t.print();
  report.write();
  std::printf("\nwrote %s\n", bench::report_path("e16_governor").c_str());
  return 0;
}
