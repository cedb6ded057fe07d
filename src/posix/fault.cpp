#include "posix/fault.hpp"

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace altx::posix {

namespace {

constexpr int kExitEarly = 77;  // kEarlyExit's status: not a protocol code

/// One independent draw per (seed, attempt, child, salt). Routing every
/// decision through a freshly derived Rng keeps decisions order-independent:
/// asking about child 3 before child 1 changes nothing.
double derived_uniform(std::uint64_t seed, std::uint64_t attempt,
                       int child_index, std::uint64_t salt) {
  std::uint64_t x = seed;
  x ^= 0x9e3779b97f4a7c15ULL + attempt;
  x ^= (static_cast<std::uint64_t>(child_index) + 0x632be59bd9b4e019ULL) *
       0xff51afd7ed558ccdULL;
  x ^= salt * 0xc4ceb9fe1a85ec53ULL;
  return Rng(x).uniform();
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kCrashSegv: return "crash_segv";
    case FaultKind::kCrashKill: return "crash_kill";
    case FaultKind::kHang: return "hang";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kEarlyExit: return "early_exit";
    case FaultKind::kDropCommit: return "drop_commit";
    case FaultKind::kCpuSpin: return "cpu_spin";
    case FaultKind::kMemHog: return "mem_hog";
  }
  return "?";
}

void FaultProfile::validate() const {
  const double probs[] = {crash_segv, crash_kill, hang,     delay,
                          early_exit, drop_commit, cpu_spin, mem_hog,
                          fork_fail,  fork_storm};
  for (double p : probs) {
    ALTX_REQUIRE(p >= 0.0 && p <= 1.0,
                 "FaultProfile: probabilities must be in [0, 1]");
  }
  ALTX_REQUIRE(child_total() <= 1.0 + 1e-9,
               "FaultProfile: child-side probabilities sum past 1");
  ALTX_REQUIRE(delay_for.count() >= 0, "FaultProfile: negative delay");
  ALTX_REQUIRE(hang_for.count() >= 0, "FaultProfile: negative hang");
  ALTX_REQUIRE(spin_for.count() >= 0, "FaultProfile: negative spin");
  ALTX_REQUIRE(storm_tries >= 0, "FaultProfile: negative storm_tries");
}

FaultProfile FaultProfile::parse(const std::string& spec) {
  FaultProfile p;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    ALTX_REQUIRE(eq != std::string::npos,
                 "FaultProfile: expected key=value in plan spec");
    const std::string key = item.substr(0, eq);
    const char* vbegin = item.c_str() + eq + 1;
    char* vend = nullptr;
    const double value = std::strtod(vbegin, &vend);
    ALTX_REQUIRE(vend != vbegin && *vend == '\0',
                 "FaultProfile: bad numeric value in '" + item + "'");
    if (key == "crash_segv") p.crash_segv = value;
    else if (key == "crash_kill") p.crash_kill = value;
    else if (key == "hang") p.hang = value;
    else if (key == "delay") p.delay = value;
    else if (key == "early_exit") p.early_exit = value;
    else if (key == "drop_commit") p.drop_commit = value;
    else if (key == "cpu_spin") p.cpu_spin = value;
    else if (key == "mem_hog") p.mem_hog = value;
    else if (key == "fork_fail") p.fork_fail = value;
    else if (key == "fork_storm") p.fork_storm = value;
    else if (key == "delay_ms") p.delay_for = std::chrono::milliseconds(
                 static_cast<long long>(value));
    else if (key == "hang_ms") p.hang_for = std::chrono::milliseconds(
                 static_cast<long long>(value));
    else if (key == "spin_ms") p.spin_for = std::chrono::milliseconds(
                 static_cast<long long>(value));
    else if (key == "hog_mb") p.hog_mb = static_cast<std::uint64_t>(value);
    else if (key == "storm_tries") p.storm_tries = static_cast<int>(value);
    else ALTX_REQUIRE(false, "FaultProfile: unknown key '" + key + "'");
  }
  p.validate();
  return p;
}

FaultInjector::FaultInjector(std::uint64_t seed, FaultProfile profile)
    : seed_(seed), profile_(profile) {
  profile_.validate();
}

std::unique_ptr<FaultInjector> FaultInjector::from_env() {
  const char* plan = std::getenv("ALTX_FAULT_PLAN");
  if (plan == nullptr || *plan == '\0') return nullptr;
  std::uint64_t seed = 0;
  if (const char* s = std::getenv("ALTX_FAULT_SEED")) {
    seed = std::strtoull(s, nullptr, 0);
  }
  return std::make_unique<FaultInjector>(seed, FaultProfile::parse(plan));
}

FaultKind FaultInjector::decide(std::uint64_t attempt, int child_index) const {
  const double u = derived_uniform(seed_, attempt, child_index, /*salt=*/1);
  double acc = profile_.crash_segv;
  if (u < acc) return FaultKind::kCrashSegv;
  acc += profile_.crash_kill;
  if (u < acc) return FaultKind::kCrashKill;
  acc += profile_.hang;
  if (u < acc) return FaultKind::kHang;
  acc += profile_.delay;
  if (u < acc) return FaultKind::kDelay;
  acc += profile_.early_exit;
  if (u < acc) return FaultKind::kEarlyExit;
  acc += profile_.drop_commit;
  if (u < acc) return FaultKind::kDropCommit;
  acc += profile_.cpu_spin;
  if (u < acc) return FaultKind::kCpuSpin;
  acc += profile_.mem_hog;
  if (u < acc) return FaultKind::kMemHog;
  return FaultKind::kNone;
}

bool FaultInjector::fork_fails(std::uint64_t attempt, int child_index,
                               int try_n) const {
  if (profile_.fork_fail > 0.0 &&
      derived_uniform(seed_, attempt, child_index, /*salt=*/2) <
          profile_.fork_fail) {
    return true;
  }
  if (profile_.fork_storm > 0.0 && try_n < profile_.storm_tries &&
      derived_uniform(seed_, attempt, child_index, /*salt=*/3) <
          profile_.fork_storm) {
    return true;
  }
  return false;
}

FaultKind FaultInjector::at_sync_point(std::uint64_t attempt,
                                       int child_index) const {
  const FaultKind kind = decide(attempt, child_index);
  switch (kind) {
    case FaultKind::kNone:
    case FaultKind::kDropCommit:
      return kind;
    case FaultKind::kCrashSegv: {
      // The program may have installed a SIGSEGV handler of its own; restore
      // the default disposition first so the raise actually kills us. No
      // core: a fault matrix kills hundreds of children per run.
      struct rlimit rl{0, 0};
      ::setrlimit(RLIMIT_CORE, &rl);
      ::signal(SIGSEGV, SIG_DFL);
      ::raise(SIGSEGV);
      _exit(kExitEarly);  // unreachable unless raise is blocked
    }
    case FaultKind::kCrashKill:
      ::raise(SIGKILL);
      _exit(kExitEarly);
    case FaultKind::kHang: {
      auto left = std::chrono::duration_cast<std::chrono::microseconds>(
          profile_.hang_for);
      while (left.count() > 0) {
        const auto slice = std::min<long long>(left.count(), 500'000);
        ::usleep(static_cast<useconds_t>(slice));
        left -= std::chrono::microseconds(slice);
      }
      _exit(kExitEarly);  // woke past the hang: die without synchronizing
    }
    case FaultKind::kDelay:
      ::usleep(static_cast<useconds_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              profile_.delay_for)
              .count()));
      return FaultKind::kNone;
    case FaultKind::kEarlyExit:
      _exit(kExitEarly);
    case FaultKind::kCpuSpin: {
      // Burn real CPU (not wall clock): the arm the governor's CPU budget /
      // RLIMIT_CPU must catch. If nothing kills us first, die unsynced.
      const auto until = std::chrono::steady_clock::now() + profile_.spin_for;
      volatile std::uint64_t sink = 0;
      while (std::chrono::steady_clock::now() < until) {
        for (int i = 0; i < 10'000; ++i) sink = sink * 6364136223846793005ULL + 1;
      }
      _exit(kExitEarly);
    }
    case FaultKind::kMemHog: {
      // Touch every page so the allocation is resident, then stall holding
      // it — the pressure source PSI shedding and RLIMIT_AS are aimed at.
      const std::size_t bytes =
          static_cast<std::size_t>(profile_.hog_mb) << 20;
      char* hog = static_cast<char*>(std::malloc(bytes));
      if (hog != nullptr) {
        for (std::size_t off = 0; off < bytes; off += 4096) hog[off] = 1;
      }
      auto left = std::chrono::duration_cast<std::chrono::microseconds>(
          profile_.hang_for);
      while (left.count() > 0) {
        const auto slice = std::min<long long>(left.count(), 500'000);
        ::usleep(static_cast<useconds_t>(slice));
        left -= std::chrono::microseconds(slice);
      }
      _exit(kExitEarly);
    }
  }
  return FaultKind::kNone;
}

}  // namespace altx::posix
