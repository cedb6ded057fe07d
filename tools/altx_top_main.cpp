// altx-top: live view of the alternative blocks of a running process.
//
// The traced process exports its ring as a file (ALTX_TRACE_RING=/tmp/r);
// altx-top maps the same pages read-only and re-renders every interval:
// which blocks are in flight, which attempt they are on, how many
// alternatives each spawned, and the fates of the children reaped so far.
// No cooperation from the writer beyond the mapping — the reader skips
// slots still being written, so it is safe to watch mid-race.
//
//   ALTX_TRACE_RING=/tmp/ring ./your_program &
//   altx-top /tmp/ring             # refresh until interrupted
//   altx-top --once /tmp/ring      # one frame (scripts, tests)
//
// Remote attach: --connect polls a running altxd's kStats counters over its
// socket instead of mapping a ring — for daemons on hosts where the ring
// file is not reachable (or was never created).
//
//   altx-top --connect /tmp/altx.sock
//   altx-top --once --connect /tmp/altx.sock
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/event.hpp"
#include "obs/phase.hpp"
#include "obs/ring.hpp"
#include "posix/alt_group.hpp"
#include "server/client.hpp"

namespace {

using altx::obs::EventKind;
using altx::obs::Record;

struct RaceRow {
  std::uint32_t id = 0;
  std::uint32_t attempt = 0;   // highest attempt ordinal seen
  std::uint64_t alts = 0;      // from kRaceBegin / kAwaitBegin
  std::uint64_t first_ns = 0;
  std::uint64_t last_ns = 0;
  bool decided = false;
  std::uint64_t verdict = 0;   // kRaceDecided a (WaitVerdict)
  std::uint64_t winner = 0;    // kRaceDecided b
  std::map<int, std::uint64_t> fates;  // child -> latest ChildFate
};

const char* fate_name(std::uint64_t fate) {
  return altx::posix::to_string(static_cast<altx::posix::ChildFate>(fate));
}

const char* verdict_name(std::uint64_t v) {
  return altx::posix::to_string(static_cast<altx::posix::WaitVerdict>(v));
}

// Governor activity folded from the kGov* event stream. The panel shows the
// most recent effective budget plus lifetime counters — enough to see live
// whether admission is queueing, narrowing grants, or shedding.
struct GovPanel {
  bool active = false;          // any kGov* record seen
  std::uint64_t effective = 0;  // latest kGovBudget a (0 = never adjusted)
  std::uint64_t base = 0;       // latest kGovBudget b
  std::uint64_t stall_x100 = 0; // latest kGovBudget c (PSI some avg10 ×100)
  std::uint64_t admits = 0;
  std::uint64_t waits = 0;
  std::uint64_t overdrafts = 0;
  std::uint64_t narrowed = 0;   // grants of fewer tokens than asked for
  std::uint64_t kills_wall = 0;
  std::uint64_t kills_cpu = 0;
  std::uint64_t kills_shed = 0;
};

GovPanel fold_governor(const std::vector<Record>& records) {
  GovPanel g;
  for (const Record& r : records) {
    switch (r.kind) {
      case EventKind::kGovAdmitWait:
        g.active = true;
        ++g.waits;
        break;
      case EventKind::kGovAdmit:
        g.active = true;
        ++g.admits;
        break;
      case EventKind::kGovOverdraft:
        g.active = true;
        ++g.overdrafts;
        break;
      case EventKind::kGovNarrow:
        g.active = true;
        ++g.narrowed;
        break;
      case EventKind::kGovBudget:
        g.active = true;
        g.effective = r.a;
        g.base = r.b;
        g.stall_x100 = r.c;
        break;
      case EventKind::kGovKill:
        g.active = true;
        if (r.b == 0) {
          ++g.kills_wall;
        } else if (r.b == 1) {
          ++g.kills_cpu;
        } else {
          ++g.kills_shed;
        }
        break;
      default:
        break;
    }
  }
  return g;
}

// Phase-latency panel: count / mean / p95 per parent-side phase, folded
// from kPhaseEnd records (self-contained — `b` is the span duration). The
// p95 is nearest-rank over the sorted samples; a live view never holds
// enough spans for the sort to matter.
struct PhasePanel {
  bool active = false;
  std::vector<std::uint64_t> ns[altx::obs::kPhaseCount];
};

PhasePanel fold_phases(const std::vector<Record>& records) {
  PhasePanel p;
  for (const Record& r : records) {
    if (r.kind != EventKind::kPhaseEnd || r.child_index != 0) continue;
    if (r.a >= static_cast<std::uint64_t>(altx::obs::kPhaseCount)) continue;
    p.active = true;
    p.ns[r.a].push_back(r.b);
  }
  return p;
}

void render_phases(PhasePanel& p) {
  if (!p.active) return;
  std::printf("phase latency (parent side)\n");
  std::printf("  %-14s %7s %10s %10s\n", "phase", "spans", "mean us",
              "p95 us");
  for (int i = 1; i < altx::obs::kPhaseCount; ++i) {
    std::vector<std::uint64_t>& v = p.ns[i];
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    std::uint64_t sum = 0;
    for (const std::uint64_t d : v) sum += d;
    const std::size_t rank =
        std::min(v.size() - 1, v.size() * 95 / 100);
    std::printf("  %-14s %7zu %10.1f %10.1f\n",
                to_string(static_cast<altx::obs::Phase>(i)), v.size(),
                static_cast<double>(sum) / static_cast<double>(v.size()) /
                    1000.0,
                static_cast<double>(v[rank]) / 1000.0);
  }
  std::printf("\n");
}

std::map<std::uint32_t, RaceRow> fold(const std::vector<Record>& records) {
  std::map<std::uint32_t, RaceRow> races;
  for (const Record& r : records) {
    RaceRow& row = races[r.race_id];
    row.id = r.race_id;
    row.attempt = std::max(row.attempt, r.attempt);
    if (row.first_ns == 0 || r.t_ns < row.first_ns) row.first_ns = r.t_ns;
    row.last_ns = std::max(row.last_ns, r.t_ns);
    switch (r.kind) {
      case EventKind::kRaceBegin:
      case EventKind::kAwaitBegin:
        row.alts = r.a;
        break;
      case EventKind::kChildFate:
        row.fates[r.child_index] = r.a;
        break;
      case EventKind::kRaceDecided:
        row.decided = true;
        row.verdict = r.a;
        row.winner = r.b;
        break;
      case EventKind::kDistDecided:
      case EventKind::kAwaitDecided:
        row.decided = true;
        row.winner = r.b;
        break;
      default:
        break;
    }
  }
  return races;
}

std::string fate_summary(const RaceRow& row) {
  std::map<std::uint64_t, int> counts;
  for (const auto& [child, fate] : row.fates) ++counts[fate];
  std::string s;
  for (const auto& [fate, n] : counts) {
    if (!s.empty()) s += ' ';
    s += std::to_string(n);
    s += ' ';
    s += fate_name(fate);
  }
  return s;
}

void render(const altx::obs::TraceRingReader& reader, bool clear) {
  const std::vector<Record> records = reader.snapshot();
  const auto races = fold(records);
  int in_flight = 0;
  for (const auto& [id, row] : races) {
    if (!row.decided) ++in_flight;
  }
  if (clear) std::printf("\033[H\033[2J");
  // Identify the attach target: with several daemons each exporting a ring,
  // the pid + uptime line is what tells the panels apart.
  if (reader.creator_pid() != 0) {
    const std::uint32_t pid = reader.creator_pid();
    const bool alive = ::kill(static_cast<pid_t>(pid), 0) == 0 ||
                       errno == EPERM;
    double up_s = 0.0;
    timespec ts{};
    if (reader.created_unix_ns() != 0 &&
        ::clock_gettime(CLOCK_REALTIME, &ts) == 0) {
      const std::uint64_t now =
          static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
          static_cast<std::uint64_t>(ts.tv_nsec);
      if (now > reader.created_unix_ns()) {
        up_s = static_cast<double>(now - reader.created_unix_ns()) / 1e9;
      }
    }
    std::printf("writer pid %u (%s)  ring up %.1fs\n", pid,
                alive ? "alive" : "gone", up_s);
  }
  std::printf("altx-top — %llu records (%zu slot capacity, %llu dropped), "
              "%zu blocks, %d in flight\n\n",
              static_cast<unsigned long long>(reader.published()),
              reader.capacity(),
              static_cast<unsigned long long>(reader.dropped()),
              races.size(), in_flight);
  const GovPanel gov = fold_governor(records);
  if (gov.active) {
    std::printf("governor  budget %llu/%llu  stall %.2f%%  admits %llu "
                "(waited %llu)  narrowed %llu  overdraft %llu\n",
                static_cast<unsigned long long>(gov.effective),
                static_cast<unsigned long long>(gov.base),
                static_cast<double>(gov.stall_x100) / 100.0,
                static_cast<unsigned long long>(gov.admits),
                static_cast<unsigned long long>(gov.waits),
                static_cast<unsigned long long>(gov.narrowed),
                static_cast<unsigned long long>(gov.overdrafts));
    std::printf("          kills: wall %llu  cpu %llu  shed %llu\n\n",
                static_cast<unsigned long long>(gov.kills_wall),
                static_cast<unsigned long long>(gov.kills_cpu),
                static_cast<unsigned long long>(gov.kills_shed));
  }
  PhasePanel phases = fold_phases(records);
  render_phases(phases);
  std::printf("%-8s %-8s %-5s %-10s %-12s %s\n", "race", "attempt", "alts",
              "age ms", "state", "children");
  // Newest blocks first; a screenful is plenty for a live view.
  std::vector<const RaceRow*> rows;
  rows.reserve(races.size());
  for (const auto& [id, row] : races) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(), [](const RaceRow* a, const RaceRow* b) {
    return a->last_ns > b->last_ns;
  });
  const std::uint64_t now_ns =
      rows.empty() ? 0 : rows.front()->last_ns;  // ring time, not wall time
  int shown = 0;
  for (const RaceRow* row : rows) {
    if (++shown > 30) {
      std::printf("  ... %zu more\n", rows.size() - 30);
      break;
    }
    std::string state = "in flight";
    if (row->decided) {
      state = row->winner != 0 ? "won #" + std::to_string(row->winner)
                               : verdict_name(row->verdict);
    }
    std::printf("%-8u %-8u %-5llu %-10.1f %-12s %s\n", row->id, row->attempt,
                static_cast<unsigned long long>(row->alts),
                static_cast<double>(now_ns - row->last_ns) / 1'000'000.0,
                state.c_str(), fate_summary(*row).c_str());
  }
}

void render_remote(altx::server::Client& client, bool clear) {
  const altx::server::WireStats s = client.stats();
  if (clear) std::printf("\033[H\033[2J");
  std::printf("altx-top (remote) — %u clients, %u queued, %u running, "
              "%u/%u workers busy\n\n",
              s.clients, s.queued, s.running, s.workers_busy,
              s.workers_idle + s.workers_busy);
  std::printf("  accepted   %-10llu completed %-10llu denied %llu\n",
              static_cast<unsigned long long>(s.accepted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.denied));
  std::printf("  canceled   %-10llu inflight-hw %-8llu tokens-reclaimed "
              "%llu\n",
              static_cast<unsigned long long>(s.canceled),
              static_cast<unsigned long long>(s.inflight_hw),
              static_cast<unsigned long long>(s.tokens_reclaimed));
  std::printf("  spawns     %-10llu respawns  %llu\n",
              static_cast<unsigned long long>(s.worker_spawns),
              static_cast<unsigned long long>(s.worker_respawns));
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false;
  bool connect = false;
  int interval_ms = 500;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
    } else if (arg == "--connect") {
      connect = true;
    } else if (arg == "--interval" && i + 1 < argc) {
      interval_ms = std::max(50, std::atoi(argv[++i]));
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: altx-top [--once] [--interval MS] <ring-file>\n"
                  "       altx-top [--once] --connect <daemon-socket>\n"
                  "       (ring mode: the traced process must run with "
                  "ALTX_TRACE_RING=<ring-file>)\n");
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr, "altx-top: unknown option %s\n", arg.c_str());
      return 1;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: altx-top [--once] [--interval MS] "
                         "[--connect] <ring-file|daemon-socket>\n");
    return 1;
  }
  if (connect) {
    try {
      altx::server::Client client =
          altx::server::Client::connect_unix(path);
      if (once) {
        render_remote(client, /*clear=*/false);
        return 0;
      }
      while (true) {
        render_remote(client, /*clear=*/true);
        ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "altx-top: %s\n", e.what());
      return 1;
    }
  }
  try {
    altx::obs::TraceRingReader reader(path);
    if (once) {
      render(reader, /*clear=*/false);
      return 0;
    }
    while (true) {
      render(reader, /*clear=*/true);
      ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "altx-top: %s\n", e.what());
    return 1;
  }
}
