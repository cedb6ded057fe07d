// altxbench: the altx benchmark driver.
//
//   altxbench --workload W --seed N --seconds S --trace 0|1 [--sabotage C]
//
// Untraced (--trace 0): times seven set-ups and reports the median of the
// five the host disturbed least, then runs the workload's closed loop for S
// seconds of one-second slices the host did not disturb, and reports the
// end-to-end metrics. Traced (--trace 1): runs every layer probe, then the
// workload untraced and traced for a share of S each, and reports the
// per-layer metrics, the tracing overhead, and the trace's own phase
// breakdown.
//
// Prints one line "ALTXBENCH {json}" with every metric, the outcome counts
// and the first check failures; exits 3 when any outcome check failed.
#include <dirent.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"

#ifndef ALTXBENCH_BUILD_TYPE
#define ALTXBENCH_BUILD_TYPE "unknown"
#endif

namespace altxbench {

namespace {

void print_string(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', out);
    if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(out, "\\u%04x", static_cast<unsigned>(c));
      continue;
    }
    std::fputc(c, out);
  }
  std::fputc('"', out);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--sabotage") {
      o.sabotage = v;
    } else {
      throw altx::UsageError("unknown argument: " + k);
    }
  }
  if (o.workload.empty() || o.seconds <= 0) {
    throw altx::UsageError(
        "usage: altxbench --workload W --seed N --seconds S --trace 0|1 "
        "[--sabotage value|fail|heap|echo]");
  }
  return o;
}

/// Clock ticks of user+system CPU in /proc/<pid>/stat: the process's own
/// and its reaped children's (fields 14-17).
double proc_cpu_ticks(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;  // exited since it was listed
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const char* p = std::strrchr(buf, ')');  // the name may hold spaces
  double t[4] = {};
  if (p == nullptr ||
      std::sscanf(p + 1, " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %lf %lf "
                         "%lf %lf",
                  &t[0], &t[1], &t[2], &t[3]) != 4) {
    return 0;
  }
  return t[0] + t[1] + t[2] + t[3];
}

/// Live descendants of this process, from /proc/<pid>/task/<tid>/children.
std::vector<pid_t> descendants() {
  std::vector<pid_t> out;
  std::vector<pid_t> todo{::getpid()};
  while (!todo.empty()) {
    const pid_t pid = todo.back();
    todo.pop_back();
    const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
    DIR* d = ::opendir(task_dir.c_str());
    if (d == nullptr) continue;
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      const std::string path = task_dir + "/" + e->d_name + "/children";
      std::FILE* f = std::fopen(path.c_str(), "r");
      if (f == nullptr) continue;
      long child = 0;
      while (std::fscanf(f, "%ld", &child) == 1) {
        out.push_back(static_cast<pid_t>(child));
        todo.push_back(static_cast<pid_t>(child));
      }
      std::fclose(f);
    }
    ::closedir(d);
  }
  return out;
}

/// CPU, ms, of this process, of its reaped descendants (getrusage), and of
/// its live descendants with what they reaped (/proc): the daemon's workers
/// are children of its zygote, which never reaps them, so getrusage alone
/// would miss every job's CPU.
double cpu_ms() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    ::getrusage(who, &ru);
    const timeval& u = ru.ru_utime;
    const timeval& k = ru.ru_stime;
    total += static_cast<double>(u.tv_sec + k.tv_sec) * 1e3 +
             static_cast<double>(u.tv_usec + k.tv_usec) / 1e3;
  }
  double ticks = 0;
  for (const pid_t pid : descendants()) ticks += proc_cpu_ticks(pid);
  return total + ticks * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// CPU seconds the hypervisor gave to other guests while this machine's
/// CPUs wanted to run (the steal column of /proc/stat), summed over CPUs.
double steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  double v[8] = {};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] / static_cast<double>(::sysconf(_SC_CLK_TCK)) : 0;
}

/// Peak resident set of this process image, MiB: VmHWM, which starts over at
/// exec (ru_maxrss would carry the launcher's peak across it).
double vm_hwm_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// The host's own speed at the program's kind of work, measured while no
/// program process runs: `reps` times fork a child that dirties 16 pages
/// and exits, and wait for it. None of the program's code is involved, so
/// a gap in it between two sets of runs is the host's drift.
void host_ref(int reps, altx::Summary& out) {
  static char pages[16 * 4096];
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = mono_ns();
    const pid_t pid = ::fork();
    if (pid == 0) {
      for (std::size_t k = 0; k < sizeof pages; k += 4096) pages[k] = 1;
      ::_exit(0);
    }
    if (pid < 0) altx::throw_errno("fork(host reference)");
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    out.add(static_cast<double>(mono_ns() - t0) / 1e3);
  }
}

/// A slice of the window is undisturbed when the hypervisor stole at most
/// this share of the machine's CPU time during it. Other guests on the host
/// take its CPUs in bursts (the steal column of /proc/stat jumps by
/// 100-140 ms per half second, then stays near 0), and a burst slows every
/// layer at once. Slices are chosen by the host's steal, never by their
/// blocks, so a slower program is measured as slower.
constexpr double kMaxSliceSteal = 0.02;

/// Times set-up `runs` times and returns the `keep` repetitions with the
/// least steal (as for the window's slices). The count is fixed, not run
/// until enough are undisturbed: a set-up may leave memory behind (the
/// history store of race_predicted is never freed), and the peak RSS must
/// not follow the host's steal. Each repetition but the last is undone. The
/// host reference runs before each, when no program process is alive.
altx::Summary timed_setups(Workload& w, std::size_t keep, std::size_t runs,
                           altx::Summary& ref_us) {
  const double ncpu = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<std::pair<double, double>> timed;  // (steal share, seconds)
  for (std::size_t i = 0; i < runs; ++i) {
    if (i > 0) w.teardown();
    host_ref(60, ref_us);
    const double steal0 = steal_s();
    const std::uint64_t t0 = mono_ns();
    w.setup();
    const double secs = static_cast<double>(mono_ns() - t0) / 1e9;
    timed.emplace_back((steal_s() - steal0) / (secs * ncpu), secs);
  }
  std::stable_sort(
      timed.begin(), timed.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  altx::Summary out;
  for (std::size_t i = 0; i < keep; ++i) out.add(timed[i].second);
  return out;
}

void end_to_end(const Options& opt, Workload& w, Metrics& m) {
  // The window is run as one-second slices until `seconds` of slices the
  // host left alone are collected, or three times `seconds` passed; then the
  // `seconds` of slices with the least steal are kept.
  struct Slice {
    std::size_t begin, end;  // its blocks in `log`
    std::uint64_t ns;
    double cpu_ms;
    double steal_share;
  };
  const double ncpu = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  const auto want = static_cast<std::size_t>(std::ceil(opt.seconds));
  const double slice_s = opt.seconds / static_cast<double>(want);
  const std::uint64_t deadline =
      mono_ns() + static_cast<std::uint64_t>(3 * opt.seconds * 1e9);
  Window log(3 * opt.seconds + 1);
  std::vector<Slice> slices;
  slices.reserve(3 * want + 2);
  std::size_t clean = 0;
  double steal = 0, elapsed = 0;
  while (clean < want && (slices.size() < want || mono_ns() < deadline)) {
    const std::size_t begin = log.blocks.size();
    const double cpu0 = cpu_ms();
    const double steal0 = steal_s();
    w.run(log, slice_s, UINT64_MAX);
    const double cpu = cpu_ms() - cpu0;
    const double stolen = steal_s() - steal0;
    const double secs = log.elapsed_s();
    steal += stolen;
    elapsed += secs;
    const double share = stolen / (secs * ncpu);
    clean += share <= kMaxSliceSteal ? 1 : 0;
    slices.push_back({begin, log.blocks.size(), log.t1_ns - log.t0_ns, cpu,
                      share});
  }
  // The benchmark's own block log grows with throughput; the rest is the
  // program's. Read before the analysis below allocates.
  const double rss_mib =
      vm_hwm_mib() - static_cast<double>(log.log_bytes()) / (1 << 20);
  std::stable_sort(slices.begin(), slices.end(),
                   [](const Slice& x, const Slice& y) {
                     return x.steal_share < y.steal_share;
                   });
  Window kept(opt.seconds);
  kept.t0_ns = kept.t1_ns = 0;  // elapsed_s(): the kept slices' total
  double cpu = 0;
  for (std::size_t i = 0; i < want; ++i) {
    const Slice& s = slices[i];
    const auto first = log.blocks.begin();
    kept.blocks.insert(kept.blocks.end(),
                       first + static_cast<std::ptrdiff_t>(s.begin),
                       first + static_cast<std::ptrdiff_t>(s.end));
    kept.t1_ns += s.ns;
    cpu += s.cpu_ms;
  }
  w.teardown();
  const altx::Summary wins = kept.latencies(false);
  const altx::Summary fails = kept.latencies(true);
  const std::size_t blocks = kept.blocks.size();
  m.set("blocks_per_s", static_cast<double>(blocks) / kept.elapsed_s(), "1/s",
        blocks);
  m.pct("win_p50_ms", wins, 50, "ms");
  m.pct("win_p90_ms", wins, 90, "ms");
  m.pct("win_p99_ms", wins, 99, "ms");
  if (!fails.empty()) {
    m.pct("fail_p50_ms", fails, 50, "ms");
    m.pct("fail_p90_ms", fails, 90, "ms");
  }
  m.set("cpu_ms_per_block", cpu / static_cast<double>(blocks), "ms", blocks);
  m.set("peak_rss_mib", rss_mib, "MiB");
  m.set("host.steal_pct", steal / elapsed / ncpu * 100, "%");
  m.set("host.dropped_slices", static_cast<double>(slices.size() - want),
        "count", slices.size());
}

/// Mean per decided race of the parent-side phases, plus the child-side
/// page_diff, read from the program's own trace ring.
void trace_phases(const Window& traced, Metrics& m) {
  namespace obs = altx::obs;
  using obs::Phase;
  const auto breakdowns = obs::reduce_critical_path(obs::snapshot());
  double wall = 0, covered = 0;
  double sum[obs::kPhaseCount] = {};
  std::size_t decided = 0;
  for (const auto& [id, b] : breakdowns) {
    if (!b.decided) continue;
    ++decided;
    wall += static_cast<double>(b.wall_ns);
    covered += b.coverage() * static_cast<double>(b.wall_ns);
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      const bool child = p == static_cast<int>(Phase::kPageDiff);
      sum[p] += static_cast<double>(child ? b.child_ns[p] : b.phase_ns[p]);
    }
  }
  const double n = decided == 0 ? 1.0 : static_cast<double>(decided);
  for (const Phase p : {Phase::kFork, Phase::kArmRun, Phase::kResultPipe,
                        Phase::kAbsorb, Phase::kEliminate, Phase::kDecide,
                        Phase::kPageDiff, Phase::kSrvQueue}) {
    m.set(std::string("phase.") + obs::to_string(p) + "_us",
          sum[static_cast<int>(p)] / n / 1e3, "us", decided);
  }
  m.set("obs.phase_coverage_pct", wall > 0 ? covered / wall * 100 : 0, "%",
        decided);
  double bench_ms = 0;
  for (const Window::Block& b : traced.blocks) bench_ms += b.ms;
  m.set("bench.span_coverage_pct",
        bench_ms > 0 ? wall / 1e6 / bench_ms * 100 : 0, "%",
        traced.blocks.size());
  if (obs::dropped() > 0) {
    std::fprintf(stderr, "altxbench: trace ring dropped %" PRIu64 " records\n",
                 obs::dropped());
  }
}

void per_layer(const Options& opt, Workload& w, Metrics& m) {
  constexpr std::size_t kRing = 1 << 18;
  // The daemon reaps any child of this process (waitpid(-1)) while it runs,
  // so the probes that fork their own children run with it stopped.
  probe_server(opt, w, m);
  const bool daemon = w.daemon() != nullptr;
  if (daemon) w.teardown();
  probe_alt_group(opt, m, w.checker());
  probe_alt_heap(opt, w, m);
  probe_predictor(opt, w, m);
  probe_governor(m, w.checker());
  if (daemon) w.setup();

  Window off(opt.seconds * 0.35);
  w.run(off, opt.seconds * 0.35, UINT64_MAX);
  // Tracing is one-way, and forked processes must inherit the ring: the
  // daemon restarts under it.
  if (daemon) w.teardown();
  altx::obs::enable_for_test(kRing);
  if (daemon) w.setup();
  Window on(opt.seconds * 0.35);
  w.run(on, opt.seconds * 0.35, kRing / 96);
  w.teardown();
  trace_phases(on, m);
  const altx::Summary l_off = off.latencies(false);
  const altx::Summary l_on = on.latencies(false);
  const double p_off = l_off.empty() ? 0 : l_off.median();
  const double p_on = l_on.empty() ? 0 : l_on.median();
  m.set("obs.trace_overhead_pct", p_off > 0 ? (p_on / p_off - 1) * 100 : 0,
        "%", l_on.count());
}

}  // namespace

void Metrics::print_json(std::FILE* out) const {
  std::fputc('{', out);
  bool first = true;
  for (const auto& [name, row] : rows_) {
    if (!first) std::fputs(", ", out);
    first = false;
    print_string(out, name);
    std::fprintf(out, ": {\"value\": %.17g, \"unit\": ", row.value);
    print_string(out, row.unit);
    std::fprintf(out, ", \"n\": %zu}", row.samples);
  }
  std::fputc('}', out);
}

}  // namespace altxbench

int main(int argc, char** argv) {
  using namespace altxbench;
  try {
    const Options opt = parse(argc, argv);
    std::unique_ptr<Workload> w = make_workload(opt);
    Metrics m;
    altx::Summary ref_us;
    const altx::Summary setup_s =
        opt.trace ? timed_setups(*w, 1, 1, ref_us)
                  : timed_setups(*w, 5, 7, ref_us);
    m.pct("setup_s", setup_s, 50, "s");
    if (opt.trace) {
      per_layer(opt, *w, m);
    } else {
      end_to_end(opt, *w, m);
    }
    host_ref(60, ref_us);
    m.pct("host.ref_fork_us", ref_us, 50, "us");
    const Checker& c = w->checker();
    m.set("error_share",
          c.attempted() == 0 ? 0
                             : static_cast<double>(c.wrong()) /
                                   static_cast<double>(c.attempted()),
          "ratio", c.attempted());
    std::printf("ALTXBENCH {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"trace\": %d, \"build_type\": \"%s\", "
                "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"errors\": [",
                opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0,
                ALTXBENCH_BUILD_TYPE, c.attempted(), c.wrong());
    for (std::size_t i = 0; i < c.messages().size(); ++i) {
      if (i > 0) std::fputs(", ", stdout);
      print_string(stdout, c.messages()[i]);
    }
    std::fputs("], \"metrics\": ", stdout);
    m.print_json(stdout);
    std::fputs("}\n", stdout);
    return c.wrong() == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "altxbench: %s\n", e.what());
    return 2;
  }
}
