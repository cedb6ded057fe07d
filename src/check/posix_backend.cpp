#include <sys/mman.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <optional>

#include "check/backends.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/history.hpp"
#include "posix/alt_heap.hpp"
#include "posix/fault.hpp"
#include "posix/governor.hpp"
#include "posix/predictor.hpp"
#include "posix/race.hpp"
#include "posix/supervisor.hpp"

namespace altx::check {
namespace {

/// Cross-process scoreboard: a child that detects an invariant violation in
/// a *nested* block (it is the parent of that block) cannot return the fact
/// through its own commit pipe — it may be a loser whose result is dropped —
/// so it records it in a MAP_SHARED arena every process can see.
struct SharedScore {
  std::atomic<std::uint32_t> violations;
  char invariant[64];
};

class SharedScoreMap {
 public:
  SharedScoreMap() {
    void* p = ::mmap(nullptr, sizeof(SharedScore), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    ALTX_REQUIRE(p != MAP_FAILED, "altx-check: mmap(shared score) failed");
    score_ = new (p) SharedScore{};
  }
  ~SharedScoreMap() { ::munmap(score_, sizeof(SharedScore)); }
  SharedScoreMap(const SharedScoreMap&) = delete;
  SharedScoreMap& operator=(const SharedScoreMap&) = delete;

  SharedScore* get() const { return score_; }

  void report(const char* invariant) const {
    if (score_->violations.fetch_add(1, std::memory_order_relaxed) == 0) {
      std::strncpy(score_->invariant, invariant, sizeof(score_->invariant) - 1);
    }
  }

 private:
  SharedScore* score_ = nullptr;
};

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

void burn(std::uint32_t amount) {
  // ~100 us per unit. Real sleep, not spin: trials run many blocks and CI
  // machines are shared.
  timespec ts{0, static_cast<long>(amount) * 100'000};
  ::nanosleep(&ts, nullptr);
}

struct Ctx {
  altx::posix::AltHeap* heap;
  const SharedScoreMap* score;
  std::uint64_t schedule_seed;
  altx::posix::FaultInjector* injector;  // top-level blocks only; may be null
  bool faulty;
  altx::posix::SpeculationGovernor* governor;  // governed trials; may be null
  const altx::posix::SpeculationPlanner* planner = nullptr;  // predicted only
};

/// Stable per-block site id for the synthetic history, derived from the same
/// path numbering run_block uses (top-level block i is path i+1; a block
/// nested in alternative j of path p is p*13 + j + 1). Nonzero by
/// construction so race<T> always consults the planner.
std::uint64_t site_for(std::uint64_t path) {
  return mix64(path ^ 0xa17c'0e19'beef'cafeULL) | 1;
}

/// Seed-derived synthetic history for every block of the program: some arms
/// stay cold, warm arms get walls anywhere in 0.1–10 ms and coin-flip
/// success rates. Deliberately unrelated to what the arms really do — the
/// property under test is that plans built from *wrong* history are still
/// safe, not that they are fast.
void seed_history(altx::obs::HistoryStore& store, Rng& rng, const Block& b,
                  std::uint64_t path) {
  const std::uint64_t site = site_for(path);
  for (std::size_t j = 0; j < b.alts.size(); ++j) {
    if (rng.chance(0.35)) continue;  // cold arm: must always launch
    const std::uint64_t wall = 100'000 + rng.below(80) * 125'000;
    const int samples = 3 + static_cast<int>(rng.below(6));
    const double p_success = rng.chance(0.5) ? 0.9 : 0.1;
    for (int s = 0; s < samples; ++s) {
      store.record(site, static_cast<std::uint32_t>(j) + 1,
                   wall + static_cast<std::uint64_t>(s) * 10'000, wall / 2,
                   rng.chance(p_success));
    }
  }
  for (std::size_t j = 0; j < b.alts.size(); ++j) {
    for (const CheckOp& op : b.alts[j].ops) {
      if (const auto* nb = std::get_if<OpBlock>(&op)) {
        seed_history(store, rng, *nb->block, path * 13 + j + 1);
      }
    }
  }
}

[[nodiscard]] std::uint64_t* cell(const Ctx& c, std::uint32_t page, std::uint32_t word) {
  return c.heap->at<std::uint64_t>(page * c.heap->page_size() +
                                   word * sizeof(std::uint64_t));
}

/// Runs one block; nullopt = the block FAILed (definitively). Sets
/// *inconclusive instead when the environment never yielded a verdict.
/// `path` numbers blocks along the execution path for rotation derivation.
std::optional<std::uint64_t> run_block(const Ctx& c, const Block& b, int depth,
                                       std::uint64_t path, bool* inconclusive);

/// A block's verdict returns before its losers are reaped, so a commit that
/// landed after the one the verdict took shows only when the reap set reaps
/// its child: reaps them all, then checks whether the process-wide count
/// moved past `before`, its value when the block started (the count never
/// resets, and an earlier case's breach is not this block's).
void check_late_commits(const Ctx& c, std::uint64_t before) {
  altx::posix::reap_eliminated();
  if (altx::posix::second_commits() != before) {
    c.score->report("at-most-once-commit");
  }
}

altx::posix::AlternativeFn<std::uint64_t> make_alt(const Ctx& c, const Block& b,
                                                   std::size_t alt_index, int depth,
                                                   std::uint64_t path) {
  const Alternative* a = &b.alts[alt_index];
  return [&c, a, alt_index, depth, path]() -> std::optional<std::uint64_t> {
    for (const CheckOp& op : a->ops) {
      if (const auto* w = std::get_if<OpWork>(&op)) {
        burn(w->amount);
      } else if (const auto* wr = std::get_if<OpWrite>(&op)) {
        *cell(c, wr->page, wr->word) = wr->value;
      } else if (const auto* gc = std::get_if<OpGuardConst>(&op)) {
        if (!gc->ok) return std::nullopt;
      } else if (const auto* ge = std::get_if<OpGuardEq>(&op)) {
        if ((*cell(c, ge->page, ge->word) == ge->value) == ge->negate) {
          return std::nullopt;
        }
      } else if (const auto* nb = std::get_if<OpBlock>(&op)) {
        bool nested_inconclusive = false;
        const auto r = run_block(c, *nb->block, depth + 1,
                                 path * 13 + alt_index + 1, &nested_inconclusive);
        if (nested_inconclusive) {
          // An environmental wash inside a speculative child cannot be
          // told apart from a failed guard by the parent; surface it so
          // the whole trial is discarded rather than misjudged.
          c.score->report("posix-nested-inconclusive");
          return std::nullopt;
        }
        if (!r.has_value()) return std::nullopt;  // nested FAIL aborts us
      }
      // OpExtern / OpSend are rejected before run_posix starts.
    }
    return alt_index + 1;  // 1-based original index
  };
}

std::optional<std::uint64_t> run_block(const Ctx& c, const Block& b, int depth,
                                       std::uint64_t path, bool* inconclusive) {
  const std::size_t n = b.alts.size();
  const std::uint64_t late_before = altx::posix::second_commits();
  // Fork-order rotation: which alternative is spawned first (and so tends to
  // win ties) is a schedule decision, derived from the seed per block.
  const std::size_t rot =
      static_cast<std::size_t>(mix64(c.schedule_seed ^ mix64(path)) % n);
  std::vector<altx::posix::AlternativeFn<std::uint64_t>> alts;
  alts.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    alts.push_back(make_alt(c, b, (j + rot) % n, depth, path));
  }

  altx::posix::RaceOptions opts;
  opts.heap = c.heap;
  opts.timeout = std::chrono::milliseconds(10'000);
  opts.governor = c.governor;
  if (c.planner != nullptr) {
    opts.planner = c.planner;
    opts.site_id = site_for(path);
  }
  altx::posix::RaceReport report;
  opts.report = &report;
  // Top-level blocks consult the injector (a full fault plan in faulty mode,
  // a delay-only commit-race perturbation otherwise). Nested blocks inside
  // speculative children always run clean: a fault there would be
  // indistinguishable from a failed guard.
  if (depth == 1) opts.fault = c.injector;

  if (c.faulty && depth == 1) {
    altx::posix::RetryPolicy policy;
    policy.max_attempts = 3;
    // Short per-attempt deadline: a dropped commit eats the token, leaving
    // any other successful child blocked on the token pipe until the parent
    // gives up — the attempt can only end by deadline, so a long one just
    // stalls the trial. Child work is a few ms; 800 ms is a wide margin.
    opts.timeout = std::chrono::milliseconds(800);
    policy.initial_backoff = std::chrono::milliseconds(1);
    policy.seed = c.schedule_seed ^ path;
    altx::posix::SupervisionLog log;
    const auto r = altx::posix::supervised_race<std::uint64_t>(alts, policy, opts, &log);
    for (const altx::posix::AttemptReport& ar : log.attempts) {
      if (ar.race.committed > 1) c.score->report("at-most-once-commit");
    }
    check_late_commits(c, late_before);
    if (r.has_value()) return ((r->winner - 1 + rot) % n) + 1;
    // A FAIL whose final attempt carried predicted kills is no verdict: the
    // planner may have shot the would-be winner (a safe thing to do — the
    // trial is just a wash, like any other environmental kill).
    const bool definitive_fail =
        !log.attempts.empty() &&
        log.attempts.back().outcome == altx::posix::AttemptOutcome::kAllFailed &&
        log.attempts.back().race.predicted_losers == 0;
    if (!definitive_fail) *inconclusive = true;
    return std::nullopt;
  }

  // A governed block at any depth (a nested block inside a speculative
  // child draws from the same shared pool) runs as one group, however few
  // tokens it was granted, so this census covers every trial.
  const auto r = altx::posix::race<std::uint64_t>(alts, opts);
  if (report.committed > (r.has_value() ? 1 : 0)) {
    // Exactly-one-commit: a winner means precisely one committed child; a
    // FAIL means zero. Two commits is the paper's §3.2 invariant broken.
    c.score->report("at-most-once-commit");
  }
  check_late_commits(c, late_before);
  if (r.has_value()) return ((r->winner - 1 + rot) % n) + 1;
  if (report.verdict != altx::posix::WaitVerdict::kAllFailed ||
      report.over_budget > 0 || report.predicted_losers > 0) {
    // Timeout, a stray crash without injection, a governed budget kill (the
    // wall budget is generous, but a stalled machine can still blow it), or a
    // predicted kill (the synthetic history may have condemned the one arm
    // that would have won): the environment, not the semantics, decided
    // this trial.
    *inconclusive = true;
  }
  return std::nullopt;
}

}  // namespace

RunOutcome run_posix(const CheckProgram& p, std::uint64_t schedule_seed, bool faulty,
                     bool governed, bool predicted) {
  validate(p);
  ALTX_REQUIRE(!uses_sim_only_ops(p),
               "run_posix: program uses sim-only ops (extern/send)");
  RunOutcome out;

  altx::posix::AltHeap heap(kPages);
  SharedScoreMap score;

  // Governed trials: a deliberately tight token budget (1..3 across the
  // whole trial, nested blocks included) so narrowed grants, arms forked as
  // slots free and overdrafts actually happen, and a wall budget far above
  // any legitimate arm's runtime so it only fires on a stalled machine.
  // Built before any fork so every child shares the MAP_SHARED pool.
  std::unique_ptr<altx::posix::SpeculationGovernor> governor;
  if (governed || predicted) {
    altx::posix::GovernorConfig gc;
    if (governed) {
      gc.tokens = 1 + static_cast<int>(schedule_seed % 3);
      // Short patience for a first token: a nested block whose ancestors
      // hold every token must overdraft quickly, or the waits pile up inside
      // the enclosing arm's wall budget.
      gc.serial_admit_wait = std::chrono::milliseconds(100);
      gc.arm_wall_budget = std::chrono::milliseconds(5'000);
    }
    // Predicted trials are governed: only a governed group's cohort wait
    // enforces predicted-kill deadlines.
    governor = std::make_unique<altx::posix::SpeculationGovernor>(gc);
  }

  // Predicted trials: a planner over a synthetic history the seed invents.
  // Skips stay off (a short-circuited guard is only oracle-admissible when
  // the history is real); staging and early kills are fully on. The store
  // lives in this frame — MAP_SHARED inside — so plans computed in nested
  // (forked) blocks read the same table.
  std::unique_ptr<altx::obs::HistoryStore> synth_store;
  std::unique_ptr<altx::posix::SpeculationPlanner> planner;
  if (predicted) {
    synth_store = std::make_unique<altx::obs::HistoryStore>(256);
    Rng hrng(schedule_seed ^ 0x9e3779b97f4a7c15ULL);
    for (std::size_t i = 0; i < p.blocks.size(); ++i) {
      seed_history(*synth_store, hrng, p.blocks[i], i + 1);
    }
    altx::posix::PredictorConfig pc;
    pc.enabled = true;
    pc.skip_enabled = false;
    pc.kill_q = 0.9;
    pc.hedge_ratio = 1.5 + static_cast<double>(schedule_seed % 3);
    planner =
        std::make_unique<altx::posix::SpeculationPlanner>(pc, synth_store.get());
  }

  altx::posix::FaultProfile profile;
  std::unique_ptr<altx::posix::FaultInjector> injector;
  Rng srng(schedule_seed ^ 0x0f0e0d0c0b0a0908ULL);
  if (faulty) {
    profile.crash_segv = 0.12;
    profile.crash_kill = 0.10;
    profile.drop_commit = 0.15;
    profile.early_exit = 0.08;
    profile.delay = 0.15;
    profile.delay_for = std::chrono::milliseconds(1 + srng.below(4));
    injector = std::make_unique<altx::posix::FaultInjector>(schedule_seed, profile);
  } else if (srng.chance(0.5)) {
    // Clean mode still perturbs commit-race timing: a delay-only plan stalls
    // seeded children at their sync point and then lets them proceed.
    profile.delay = 0.4;
    profile.delay_for = std::chrono::milliseconds(1 + srng.below(3));
    injector = std::make_unique<altx::posix::FaultInjector>(schedule_seed, profile);
  }

  Ctx ctx{&heap,  &score,         schedule_seed, injector.get(),
          faulty, governor.get(), planner.get()};

  std::uint64_t fingerprint = 0;
  bool inconclusive = false;
  bool failed = false;
  for (std::size_t i = 0; i < p.blocks.size(); ++i) {
    const Block& b = p.blocks[i];
    // Loser-invisibility probe: on FAIL nothing may have been absorbed.
    std::array<std::uint64_t, kCells> before{};
    for (std::uint32_t pg = 0; pg < kPages; ++pg) {
      for (std::uint32_t wd = 0; wd < kWords; ++wd) {
        before[cell_index(pg, wd)] = *cell(ctx, pg, wd);
      }
    }
    const auto r = run_block(ctx, b, 1, i + 1, &inconclusive);
    if (inconclusive) break;
    if (!r.has_value()) {
      bool dirty = false;
      for (std::uint32_t pg = 0; pg < kPages && !dirty; ++pg) {
        for (std::uint32_t wd = 0; wd < kWords; ++wd) {
          dirty = dirty || *cell(ctx, pg, wd) != before[cell_index(pg, wd)];
        }
      }
      if (dirty) score.report("loser-effects-visible");
      failed = true;
      break;
    }
    fingerprint = fingerprint * 1315423911ULL + *r;
  }

  if (governed && governor != nullptr) {
    // The cap is a hard claim: concurrent speculative children never exceed
    // the token budget. The one sanctioned exception is the single-token
    // liveness overdraft, which the pool counts — a high-water mark above
    // budget with zero overdrafts is a governor bug. (Predicted-only trials
    // run a watch-only governor with no token budget: nothing to cap.)
    const altx::posix::GovernorStats gs = governor->stats();
    if (gs.overdrafts == 0 && gs.max_in_flight > governor->config().tokens) {
      out.violation = "governor-cap-exceeded";
      return out;
    }
  }
  if (score.get()->violations.load() != 0) {
    out.violation = score.get()->invariant;
    return out;
  }
  if (inconclusive) {
    out.inconclusive = true;
    return out;
  }

  out.obs.failed = failed;
  for (std::uint32_t pg = 0; pg < kPages; ++pg) {
    for (std::uint32_t wd = 0; wd < kWords; ++wd) {
      out.obs.cells[cell_index(pg, wd)] = *cell(ctx, pg, wd);
    }
  }
  out.interleaving = mix64(fingerprint ^ schedule_seed);
  return out;
}

}  // namespace altx::check
