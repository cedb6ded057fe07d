#include "posix/governor.hpp"

#include <linux/futex.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "posix/predictor.hpp"

namespace altx::posix {

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 0);
}

double env_double(const char* name, double fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtod(s, nullptr);
}

std::chrono::milliseconds env_ms(const char* name, long long fallback) {
  return std::chrono::milliseconds(
      static_cast<long long>(env_u64(name, static_cast<std::uint64_t>(fallback))));
}

/// "some avg10=12.34 ..." → 12.34; -1 when the stanza is absent.
double parse_psi_some_avg10(const char* buf) {
  const char* p = std::strstr(buf, "some");
  if (p == nullptr) return -1.0;
  p = std::strstr(p, "avg10=");
  if (p == nullptr) return -1.0;
  return std::strtod(p + 6, nullptr);
}

bool slurp(const char* path, char* buf, std::size_t cap) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  const std::size_t n = std::fread(buf, 1, cap - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  return n > 0;
}

/// "MemAvailable: 123 kB" / "MemTotal: 456 kB" → available/total * 100.
double meminfo_available_pct() {
  char buf[4096];
  if (!slurp("/proc/meminfo", buf, sizeof buf)) return -1.0;
  auto field = [&](const char* key) -> double {
    const char* p = std::strstr(buf, key);
    if (p == nullptr) return -1.0;
    return std::strtod(p + std::strlen(key), nullptr);
  };
  const double total = field("MemTotal:");
  const double avail = field("MemAvailable:");
  if (total <= 0 || avail < 0) return -1.0;
  return avail / total * 100.0;
}

/// Sleeps while `*word` still reads `expect`, at most `ns`. The futex is
/// shared (no FUTEX_PRIVATE_FLAG): the word lives in a MAP_SHARED pool, so
/// a wake from any process that maps it reaches the sleeper.
void futex_wait(std::atomic<int>* word, int expect, std::uint64_t ns) {
  timespec ts{static_cast<time_t>(ns / 1'000'000'000ULL),
              static_cast<long>(ns % 1'000'000'000ULL)};
  ::syscall(SYS_futex, reinterpret_cast<int*>(word), FUTEX_WAIT, expect, &ts,
            nullptr, 0);
}

void futex_wake_all(std::atomic<int>* word) {
  ::syscall(SYS_futex, reinterpret_cast<int*>(word), FUTEX_WAKE, INT_MAX,
            nullptr, nullptr, 0);
}

}  // namespace

const char* to_string(GovKillReason reason) {
  switch (reason) {
    case GovKillReason::kWall: return "wall";
    case GovKillReason::kCpu: return "cpu";
    case GovKillReason::kShed: return "shed";
    case GovKillReason::kPredicted: return "predicted";
  }
  return "?";
}

PressureSample read_pressure(const std::string& psi_override) {
  PressureSample s;
  char buf[1024];
  if (!psi_override.empty()) {
    if (slurp(psi_override.c_str(), buf, sizeof buf)) {
      const double v = parse_psi_some_avg10(buf);
      if (v >= 0) {
        s.valid = true;
        s.mem_stall_pct = v;
      }
    }
    return s;
  }
  if (slurp("/proc/pressure/memory", buf, sizeof buf)) {
    const double v = parse_psi_some_avg10(buf);
    if (v >= 0) {
      s.valid = true;
      s.mem_stall_pct = v;
    }
  }
  if (slurp("/proc/pressure/cpu", buf, sizeof buf)) {
    const double v = parse_psi_some_avg10(buf);
    if (v >= 0) {
      s.valid = true;
      s.cpu_stall_pct = v;
    }
  }
  if (!s.valid) s.mem_available_pct = meminfo_available_pct();
  return s;
}

GovernorConfig GovernorConfig::from_env() {
  GovernorConfig c;
  c.tokens = static_cast<int>(env_u64("ALTX_GOV_TOKENS", 0));
  c.serial_admit_wait =
      env_ms("ALTX_GOV_SERIAL_WAIT_MS", c.serial_admit_wait.count());
  c.arm_wall_budget = env_ms("ALTX_GOV_WALL_MS", 0);
  c.arm_cpu_budget = env_ms("ALTX_GOV_CPU_MS", 0);
  c.rlimit_cpu_s = env_u64("ALTX_GOV_RLIMIT_CPU_S", 0);
  c.rlimit_as_mb = env_u64("ALTX_GOV_RLIMIT_AS_MB", 0);
  if (const char* p = std::getenv("ALTX_PSI_PATH")) c.psi_path = p;
  c.psi_shed_pct = env_double("ALTX_GOV_PSI_SHED", c.psi_shed_pct);
  c.psi_kill_pct = env_double("ALTX_GOV_PSI_KILL", c.psi_kill_pct);
  c.mem_floor_pct = env_double("ALTX_GOV_MEM_FLOOR", c.mem_floor_pct);
  return c;
}

/// The fork-wide truth: every counter lives in one MAP_SHARED page, so a
/// nested block racing inside a forked arm draws from the same pool its
/// parent does, and a kill any process's group sends is counted once for
/// all of them. `sampled_ns` stamps the last pressure sample, so the tree
/// samples at most once per pressure_interval. `in_flight` is also the
/// futex word a waiting admission sleeps on, and `waiters` counts those
/// sleepers, so a release wakes them only when there are any, and an
/// admission leaves the sleepers their share of the free tokens. Each
/// process's sleepers are in its ledger entry too, so reconcile takes a
/// sleeper SIGKILLed in its wait off the count.
///
/// The holder ledger tracks how many tokens each *process* currently holds.
/// A process normally returns its tokens by its blocks' verdicts; one
/// SIGKILLed mid-block (altxd destroying a worker cohort) never does, so
/// reconcile_dead_holders() uses the ledger to give a dead holder's tokens
/// back. Slots are claimed on first admit and recycled only by reconcile,
/// so the ledger stays single-writer per slot; when all kMaxHolders slots
/// are taken a holding goes untracked — the pool math is still correct, the
/// holding just cannot be reclaimed on a forced kill.
struct SpeculationGovernor::SharedPool {
  static constexpr int kMaxHolders = 128;
  struct Holder {
    std::atomic<std::int32_t> pid;
    std::atomic<std::int32_t> held;
    std::atomic<std::int32_t> asleep;
  };

  std::atomic<int> in_flight;
  std::atomic<int> waiters;     // admissions asleep on in_flight
  std::atomic<int> max_in_flight;
  std::atomic<int> effective;   // budget after pressure shrink
  std::atomic<std::uint64_t> admitted;
  std::atomic<std::uint64_t> waited;
  std::atomic<std::uint64_t> narrowed;
  std::atomic<std::uint64_t> overdrafts;
  std::atomic<std::uint64_t> reclaimed;
  std::atomic<std::uint64_t> kills[4];  // indexed by GovKillReason
  std::atomic<std::uint64_t> pressure_shrinks;
  std::atomic<std::uint64_t> sampled_ns;
  std::atomic<std::uint32_t> last_stall_pct_x100;
  Holder holders[kMaxHolders];

  /// Returns n tokens and wakes every sleeping admission. Sequentially
  /// consistent with the waiter's raise of `waiters` and its re-read of
  /// in_flight: either the waiter sees these tokens back, or this sees the
  /// waiter and wakes it.
  void give_back(int n) noexcept {
    in_flight.fetch_sub(n);
    if (waiters.load() > 0) futex_wake_all(&in_flight);
  }

  /// The calling process's ledger entry, claimed on first use when
  /// `claim`; nullptr when it has none (or all slots are taken).
  Holder* self_entry(bool claim) noexcept {
    const std::int32_t self = static_cast<std::int32_t>(::getpid());
    for (Holder& h : holders) {
      if (h.pid.load(std::memory_order_acquire) == self) return &h;
    }
    if (!claim) return nullptr;  // released after it was reconciled away
    for (Holder& h : holders) {
      std::int32_t expect = 0;
      if (h.pid.compare_exchange_strong(expect, self,
                                        std::memory_order_acq_rel)) {
        return &h;
      }
    }
    return nullptr;
  }

  /// Adjusts the calling process's ledger entry by `delta` tokens.
  void note_held(int delta) noexcept {
    if (Holder* h = self_entry(delta > 0)) {
      h->held.fetch_add(delta, std::memory_order_relaxed);
    }
  }

  /// Counts the caller in (+1) or out (-1) of the sleeping admissions.
  void note_asleep(int delta) noexcept {
    waiters.fetch_add(delta);
    if (Holder* h = self_entry(delta > 0)) {
      h->asleep.fetch_add(delta, std::memory_order_relaxed);
    }
  }
};

SpeculationGovernor::SpeculationGovernor(GovernorConfig cfg) : cfg_(cfg) {
  ALTX_REQUIRE(cfg_.tokens >= 0, "governor: tokens must be >= 0");
  ALTX_REQUIRE(cfg_.psi_kill_pct >= cfg_.psi_shed_pct,
               "governor: psi_kill must be >= psi_shed");
  void* p = ::mmap(nullptr, sizeof(SharedPool), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw_errno("governor: mmap(pool)");
  pool_ = new (p) SharedPool{};
  pool_->effective.store(cfg_.tokens, std::memory_order_relaxed);
}

SpeculationGovernor::~SpeculationGovernor() {
  // Unmapping affects only this process's view; a forked sibling keeps its
  // own mapping of the pool.
  ::munmap(pool_, sizeof(SharedPool));
}

Admission SpeculationGovernor::admit(int n, int* granted) {
  if (granted != nullptr) *granted = n;
  if (!admission_enabled() || n <= 0) return Admission::kGranted;
  sample_pressure_if_due();
  const std::uint64_t t0 = obs::now_ns();
  const std::uint64_t wait_ns =
      static_cast<std::uint64_t>(cfg_.serial_admit_wait.count()) * 1'000'000ULL;
  bool waited = false;
  auto bump_max = [this](int cur) {
    int seen = pool_->max_in_flight.load(std::memory_order_relaxed);
    while (cur > seen &&
           !pool_->max_in_flight.compare_exchange_weak(seen, cur)) {
    }
  };
  // Takes k tokens (k < n: a narrowed grant) and reports k.
  auto take = [&](int k, int after) {
    bump_max(after);
    pool_->note_held(k);
    if (granted != nullptr) *granted = k;
    if (k >= n) return;
    pool_->narrowed.fetch_add(1, std::memory_order_relaxed);
    obs::emit(obs::EventKind::kGovNarrow, obs::current_race(), 0,
              static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(k));
    if (obs::enabled()) {
      obs::MetricsRegistry::global().counter("gov_narrowed").add();
    }
  };
  for (;;) {
    const int eff = pool_->effective.load(std::memory_order_relaxed);
    int cur = pool_->in_flight.load(std::memory_order_relaxed);
    while (cur < eff) {
      // While other admissions sleep, take only a fair share of the free
      // tokens, so the ones a verdict returns spread over the blocks that
      // wait for them instead of going whole to the first that runs.
      const int others = pool_->waiters.load(std::memory_order_relaxed);
      const int k = std::min(n, std::max(1, (eff - cur) / (others + 1)));
      if (pool_->in_flight.compare_exchange_weak(cur, cur + k)) {
        take(k, cur + k);
        pool_->admitted.fetch_add(1, std::memory_order_relaxed);
        if (waited) pool_->waited.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled()) {
          const std::uint64_t dt = obs::now_ns() - t0;
          obs::emit(obs::EventKind::kGovAdmit, obs::current_race(), 0,
                    static_cast<std::uint64_t>(k),
                    static_cast<std::uint64_t>(cur + k), dt);
          auto& m = obs::MetricsRegistry::global();
          m.counter("gov_admits").add();
          if (waited) m.histogram("gov_admit_wait_ns").record(dt);
        }
        return Admission::kGranted;
      }
    }
    const std::uint64_t waited_ns = obs::now_ns() - t0;
    if (waited_ns >= wait_ns) {
      // The liveness overdraft: one child is the paper's own sequential
      // semantics — refusing it would wedge the program, so one arm runs
      // and the pool goes briefly over budget.
      const int after = pool_->in_flight.fetch_add(1) + 1;
      take(1, after);
      pool_->overdrafts.fetch_add(1, std::memory_order_relaxed);
      obs::emit(obs::EventKind::kGovOverdraft, obs::current_race(), 0,
                static_cast<std::uint64_t>(after));
      if (obs::enabled()) {
        obs::MetricsRegistry::global().counter("gov_overdrafts").add();
      }
      return Admission::kOverdraft;
    }
    if (!waited) {
      waited = true;
      obs::emit(obs::EventKind::kGovAdmitWait, obs::current_race(), 0,
                static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(cur),
                static_cast<std::uint64_t>(eff));
    }
    // Asleep until a release() wakes us. `waiters` is raised before
    // in_flight is read again, so a release in between either shows here or
    // changes the word, and then the futex returns at once.
    pool_->note_asleep(1);
    const int seen = pool_->in_flight.load();
    if (seen >= pool_->effective.load(std::memory_order_relaxed)) {
      futex_wait(&pool_->in_flight, seen, wait_ns - waited_ns);
    }
    pool_->note_asleep(-1);
  }
}

void SpeculationGovernor::release(int n) {
  if (!admission_enabled() || n <= 0) return;
  pool_->note_held(-n);
  pool_->give_back(n);
}

int SpeculationGovernor::reconcile_dead_holders() {
  if (!admission_enabled()) return 0;
  const std::int32_t self = static_cast<std::int32_t>(::getpid());
  int reclaimed = 0;
  for (SharedPool::Holder& h : pool_->holders) {
    const std::int32_t pid = h.pid.load(std::memory_order_acquire);
    if (pid == 0 || pid == self) continue;
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) {
      continue;  // alive (or alive-but-unsignalable, EPERM)
    }
    // Claim the slot (pid → 0) before touching the count, so two
    // reconcilers can never both return the same holding. A freed slot is
    // claimable by the next first-time admitter.
    std::int32_t expect = pid;
    if (!h.pid.compare_exchange_strong(expect, 0,
                                       std::memory_order_acq_rel)) {
      continue;
    }
    const std::int32_t asleep =
        h.asleep.exchange(0, std::memory_order_relaxed);
    if (asleep > 0) pool_->waiters.fetch_sub(asleep);
    const std::int32_t held = h.held.exchange(0, std::memory_order_relaxed);
    if (held > 0) {
      pool_->give_back(held);
      reclaimed += held;
    }
  }
  if (reclaimed > 0) {
    pool_->reclaimed.fetch_add(static_cast<std::uint64_t>(reclaimed),
                               std::memory_order_relaxed);
    if (obs::enabled()) {
      obs::MetricsRegistry::global().counter("gov_reclaimed").add(
          static_cast<std::uint64_t>(reclaimed));
    }
  }
  return reclaimed;
}

void SpeculationGovernor::apply_child_rlimits() const {
  if (cfg_.rlimit_cpu_s > 0) {
    // Soft limit delivers SIGXCPU at the budget, hard limit SIGKILLs one
    // second later — the kernel-side backstop behind the CPU budget.
    struct rlimit rl{static_cast<rlim_t>(cfg_.rlimit_cpu_s),
                     static_cast<rlim_t>(cfg_.rlimit_cpu_s + 1)};
    ::setrlimit(RLIMIT_CPU, &rl);
  }
  if (cfg_.rlimit_as_mb > 0) {
    const rlim_t bytes = static_cast<rlim_t>(cfg_.rlimit_as_mb) << 20;
    struct rlimit rl{bytes, bytes};
    ::setrlimit(RLIMIT_AS, &rl);
  }
}

int SpeculationGovernor::effective_tokens() const {
  return pool_->effective.load(std::memory_order_relaxed);
}

GovernorStats SpeculationGovernor::stats() const {
  GovernorStats s;
  s.admitted = pool_->admitted.load(std::memory_order_relaxed);
  s.waited = pool_->waited.load(std::memory_order_relaxed);
  s.narrowed = pool_->narrowed.load(std::memory_order_relaxed);
  s.overdrafts = pool_->overdrafts.load(std::memory_order_relaxed);
  s.reclaimed = pool_->reclaimed.load(std::memory_order_relaxed);
  s.in_flight = pool_->in_flight.load(std::memory_order_relaxed);
  s.max_in_flight = pool_->max_in_flight.load(std::memory_order_relaxed);
  s.effective_tokens = pool_->effective.load(std::memory_order_relaxed);
  auto kills = [this](GovKillReason r) {
    return pool_->kills[static_cast<int>(r)].load(std::memory_order_relaxed);
  };
  s.kills_wall = kills(GovKillReason::kWall);
  s.kills_cpu = kills(GovKillReason::kCpu);
  s.kills_shed = kills(GovKillReason::kShed);
  s.kills_predicted = kills(GovKillReason::kPredicted);
  s.pressure_shrinks =
      pool_->pressure_shrinks.load(std::memory_order_relaxed);
  return s;
}

void SpeculationGovernor::apply_pressure(const PressureSample& s) {
  double stall = 0.0;
  if (s.valid) stall = std::max(s.mem_stall_pct, s.cpu_stall_pct);
  pool_->last_stall_pct_x100.store(
      static_cast<std::uint32_t>(stall * 100.0), std::memory_order_relaxed);
  if (cfg_.tokens <= 0) return;  // admission off: nothing to shrink

  int eff = cfg_.tokens;
  if (s.valid && stall >= cfg_.psi_shed_pct) {
    const double span = std::max(1e-9, cfg_.psi_kill_pct - cfg_.psi_shed_pct);
    const double frac = std::min(1.0, (stall - cfg_.psi_shed_pct) / span);
    eff = cfg_.tokens -
          static_cast<int>(frac * static_cast<double>(cfg_.tokens - 1) + 0.5);
  }
  if (s.mem_available_pct >= 0 && s.mem_available_pct < cfg_.mem_floor_pct) {
    eff = 1;  // meminfo fallback: nearly out of memory, sequential floor
  }
  eff = std::clamp(eff, 1, cfg_.tokens);
  const int old = pool_->effective.exchange(eff, std::memory_order_relaxed);
  if (eff > old && pool_->waiters.load() > 0) {
    futex_wake_all(&pool_->in_flight);  // a larger budget may admit them
  }
  if (eff != old) {
    if (eff < old) {
      pool_->pressure_shrinks.fetch_add(1, std::memory_order_relaxed);
    }
    obs::emit(obs::EventKind::kGovBudget, 0, 0,
              static_cast<std::uint64_t>(eff),
              static_cast<std::uint64_t>(cfg_.tokens),
              static_cast<std::uint64_t>(stall * 100.0));
    if (obs::enabled()) {
      obs::MetricsRegistry::global()
          .histogram("gov_effective_tokens")
          .record(static_cast<std::uint64_t>(eff));
    }
  }
}

void SpeculationGovernor::poll_pressure_now() {
  pool_->sampled_ns.store(obs::now_ns(), std::memory_order_relaxed);
  apply_pressure(read_pressure(cfg_.psi_path));
}

void SpeculationGovernor::sample_pressure_if_due() {
  const std::uint64_t now = obs::now_ns();
  const std::uint64_t interval =
      static_cast<std::uint64_t>(cfg_.pressure_interval.count()) * 1'000'000ULL;
  std::uint64_t last = pool_->sampled_ns.load(std::memory_order_relaxed);
  if (last != 0 && now - last < interval) return;
  // One sampler per interval across the tree: whoever moves the stamp reads.
  if (!pool_->sampled_ns.compare_exchange_strong(last, now)) return;
  apply_pressure(read_pressure(cfg_.psi_path));
}

bool SpeculationGovernor::shedding() {
  sample_pressure_if_due();
  const double stall =
      pool_->last_stall_pct_x100.load(std::memory_order_relaxed) / 100.0;
  return stall >= cfg_.psi_kill_pct;
}

void SpeculationGovernor::note_kill(GovKillReason reason) {
  pool_->kills[static_cast<int>(reason)].fetch_add(1,
                                                   std::memory_order_relaxed);
  if (obs::enabled()) {
    auto& m = obs::MetricsRegistry::global();
    m.counter(std::string("gov_kills_") + to_string(reason)).add();
    if (reason == GovKillReason::kPredicted) m.counter("pred_kills").add();
  }
}

SpeculationGovernor* SpeculationGovernor::global() {
  static const std::unique_ptr<SpeculationGovernor> g = [] {
    // ALTX_PRED=1 alone builds it too: only a governed group's cohort wait
    // enforces the planner's predicted-kill deadlines.
    const GovernorConfig c = GovernorConfig::from_env();
    return c.any_enabled() || SpeculationPlanner::env_enabled()
               ? std::make_unique<SpeculationGovernor>(c)
               : std::unique_ptr<SpeculationGovernor>();
  }();
  return g.get();
}

}  // namespace altx::posix
