// E19 — prediction-driven speculation budgeting (extension; no paper
// counterpart).
//
// Launch-everything speculation pays for N alternatives to get one answer:
// the paper's model, and the right call when nothing is known about the
// arms. Once the history store has seen a site a few times, the
// SpeculationPlanner can do better — launch the predicted leader, stage the
// arms that history says are far slower, and let a fast commit eliminate
// the staged sleepers before they have burned any CPU.
//
// This bench races one fast-reliable arm (~2 ms of spin) against two slow
// arms (~20 ms of spin) and reports the speculation overhead ratio
// (RaceReport.spec: total CPU / winner CPU, 1.0 = free speculation) under
// three policies:
//
//   baseline — prediction off. The slow arms spin until the winner's commit
//              kills them: ratio well above 1.
//   warm     — prediction on over a pre-populated store. The slow arms are
//              hedged and not yet forked at commit time: ratio near 1.
//   cold     — prediction on over an empty store (every block a fresh
//              site). The plan is inactive, so this is the control: within
//              noise of baseline, proving the planner costs nothing before
//              it has data.
//
// Rows repeat at 1 and 4 submitter threads — the savings matter most under
// load, when every wasted cycle is stolen from a sibling block.
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/history.hpp"
#include "posix/predictor.hpp"
#include "posix/race.hpp"
#include "report.hpp"

namespace {

using namespace altx;
using namespace altx::posix;
using namespace std::chrono_literals;

constexpr int kBlocksPerThread = 30;
constexpr std::uint64_t kSiteBase = 0xe19'0000;
constexpr std::uint64_t kFastNs = 2'000'000;    // arm 1
constexpr std::uint64_t kSlowNs = 20'000'000;   // arms 2 and 3

/// Busy-spin so the arm's cost shows up in the wait4 CPU bill (a sleeping
/// loser is free to kill; a spinning one is the waste we are measuring).
void spin_for(std::uint64_t ns) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(ns);
  volatile std::uint64_t sink = 0;
  while (std::chrono::steady_clock::now() < until) ++sink;
}

std::vector<AlternativeFn<int>> arms() {
  return {
      [] { spin_for(kFastNs); return std::optional<int>(1); },
      [] { spin_for(kSlowNs); return std::optional<int>(2); },
      [] { spin_for(kSlowNs); return std::optional<int>(3); },
  };
}

/// Teach the store what the bench arms actually do, as ~20 prior runs
/// would have: arm 1 fast and always winning, arms 2/3 slow and losing.
void prewarm(obs::HistoryStore* store, std::uint64_t site) {
  for (int s = 0; s < 20; ++s) {
    store->record(site, 1, kFastNs + static_cast<std::uint64_t>(s) * 20'000,
                  kFastNs, true);
    store->record(site, 2, kSlowNs + static_cast<std::uint64_t>(s) * 100'000,
                  kSlowNs, false);
    store->record(site, 3, kSlowNs + static_cast<std::uint64_t>(s) * 100'000,
                  kSlowNs, false);
  }
}

struct Run {
  Summary ratio;       // per-block speculation overhead ratio
  Summary latency_ms;  // per-block wall latency
  int succeeded = 0;
  int hedged = 0;
  int predicted_losers = 0;
};

enum class Mode { kBaseline, kWarm, kCold };

Run run_row(Mode mode, int threads) {
  // Fresh store per row so warm history never leaks into the cold control.
  obs::HistoryStore* store = obs::history_enable_for_test(1024);
  PredictorConfig pc;
  pc.enabled = true;
  // Stage far enough out that the leader's commit (spin + fork + pipe
  // round-trip) lands before the hedged arms are forked.
  pc.stage_slack = 4.0;
  SpeculationPlanner planner(pc, store);
  if (mode == Mode::kWarm) {
    for (int t = 0; t < threads; ++t) {
      prewarm(store, kSiteBase + static_cast<std::uint64_t>(t));
    }
  }

  Run out;
  std::mutex mu;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Run local;
      for (int b = 0; b < kBlocksPerThread; ++b) {
        RaceOptions opts;
        opts.timeout = 2'000ms;
        // Cold control: a fresh site every block, so the store never has a
        // usable sample and the plan stays inactive — while still paying
        // whatever the planner itself costs.
        opts.site_id = mode == Mode::kCold
                           ? kSiteBase + 0x1000 +
                                 static_cast<std::uint64_t>(
                                     t * kBlocksPerThread + b)
                           : kSiteBase + static_cast<std::uint64_t>(t);
        if (mode != Mode::kBaseline) opts.planner = &planner;
        RaceReport rep;
        opts.report = &rep;
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = race<int>(arms(), opts);
        const auto dt = std::chrono::steady_clock::now() - t0;
        local.latency_ms.add(
            std::chrono::duration_cast<
                std::chrono::duration<double, std::milli>>(dt)
                .count());
        if (r.has_value()) ++local.succeeded;
        if (rep.spec.overhead_ratio() > 0) {
          local.ratio.add(rep.spec.overhead_ratio());
        }
        local.hedged += rep.pred_hedged;
        local.predicted_losers += rep.predicted_losers;
      }
      std::lock_guard<std::mutex> lk(mu);
      out.succeeded += local.succeeded;
      out.hedged += local.hedged;
      out.predicted_losers += local.predicted_losers;
      for (double v : local.ratio.samples()) out.ratio.add(v);
      for (double v : local.latency_ms.samples()) out.latency_ms.add(v);
    });
  }
  for (std::thread& th : pool) th.join();
  obs::history_disable_for_test();
  return out;
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kBaseline: return "baseline";
    case Mode::kWarm: return "warm";
    case Mode::kCold: return "cold";
  }
  return "?";
}

}  // namespace

int main() {
  std::printf("E19: prediction-driven speculation budgeting\n\n");
  std::printf("1 fast arm (~2 ms spin) vs 2 slow arms (~20 ms spin), %d\n"
              "blocks per thread. ratio = total CPU / winner CPU; 1.0 means\n"
              "speculation was free. warm = planner over a pre-populated\n"
              "history store; cold = planner over an empty store (control).\n\n",
              kBlocksPerThread);

  Table t({"mode", "threads", "success", "hedged", "ratio p50", "ratio p95",
           "lat p50", "lat p95"});
  bench::Report report("e19_prediction");
  for (const int threads : {1, 4}) {
    for (const Mode mode : {Mode::kBaseline, Mode::kWarm, Mode::kCold}) {
      const Run r = run_row(mode, threads);
      const int blocks = threads * kBlocksPerThread;
      char success[32];
      std::snprintf(success, sizeof success, "%d/%d", r.succeeded, blocks);
      t.add_row({mode_name(mode), std::to_string(threads), success,
                 std::to_string(r.hedged),
                 Table::num(r.ratio.percentile(50)),
                 Table::num(r.ratio.percentile(95)),
                 Table::num(r.latency_ms.percentile(50)) + " ms",
                 Table::num(r.latency_ms.percentile(95)) + " ms"});
      report.row(mode_name(mode))
          .param("threads", static_cast<double>(threads))
          .param("blocks", static_cast<double>(blocks))
          .metric("success", r.succeeded)
          .metric("hedged", r.hedged)
          .metric("predicted_losers", r.predicted_losers)
          .metric("overhead_ratio_p50", r.ratio.percentile(50))
          .metric("overhead_ratio_mean", r.ratio.mean())
          .latency(r.latency_ms);
    }
  }
  t.print();
  report.write();
  std::printf("\nwrote %s\n", bench::report_path("e19_prediction").c_str());
  return 0;
}
