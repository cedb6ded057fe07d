#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <utility>

#include "common/error.hpp"

namespace altx::obs {

namespace {

/// Every kind whose to_string name a reader must recognize.
constexpr EventKind kAllKinds[] = {
    EventKind::kNone,          EventKind::kRaceBegin,
    EventKind::kFork,          EventKind::kGuardStart,
    EventKind::kGuardResult,   EventKind::kCommitAttempt,
    EventKind::kCommitWon,     EventKind::kTooLate,
    EventKind::kGuardFail,     EventKind::kChildFate,
    EventKind::kRaceDecided,   EventKind::kEliminated,
    EventKind::kChildUsage,    EventKind::kChildPages,
    EventKind::kSpecReport,    EventKind::kRingOverflow,
    EventKind::kAttemptBegin,  EventKind::kAttemptEnd,
    EventKind::kBackoff,       EventKind::kGovAdmitWait,
    EventKind::kGovAdmit,      EventKind::kGovKill,
    EventKind::kGovBudget,     EventKind::kGovOverdraft,
    EventKind::kGovNarrow,     EventKind::kPhaseBegin,
    EventKind::kPhaseEnd,      EventKind::kProfSample,
    EventKind::kProfMap,
    EventKind::kAwaitBegin,
    EventKind::kAwaitTaskDone, EventKind::kAwaitDecided,
    EventKind::kSrvConnect,    EventKind::kSrvSubmit,
    EventKind::kSrvDeny,       EventKind::kSrvAssign,
    EventKind::kSrvResult,     EventKind::kSrvCancel,
    EventKind::kSrvClientGone, EventKind::kSrvWorkerSpawn,
    EventKind::kSrvWorkerExit, EventKind::kSrvShutdown,
    EventKind::kPredPlan,      EventKind::kPredStage,
    EventKind::kPredKill,
    EventKind::kDistSpawn,     EventKind::kDistAbort,
    EventKind::kDistResult,    EventKind::kDistKill,
    EventKind::kDistDecided,   EventKind::kVoteGrant,
    EventKind::kVoteReject,    EventKind::kSyncDecided,
    EventKind::kSimEvent,
};

void format_jsonl_line(const Record& r, char* buf, std::size_t n) {
  std::snprintf(buf, n,
                "{\"t_ns\":%" PRIu64 ",\"kind\":\"%s\",\"race\":%" PRIu32
                ",\"attempt\":%" PRIu32 ",\"pid\":%" PRId32
                ",\"node\":%" PRIu32 ",\"seq\":%" PRIu64
                ",\"child\":%d,\"a\":%" PRIu64 ",\"b\":%" PRIu64
                ",\"c\":%" PRIu64 ",\"trace\":%" PRIu64 "}",
                r.t_ns, to_string(r.kind), r.race_id, r.attempt, r.pid,
                r.node_id, r.seq, static_cast<int>(r.child_index), r.a, r.b,
                r.c, r.trace_id);
}

/// Extracts the numeric value following `"key":` on the line; nullopt when
/// the key is absent. Values are at most u64; callers narrow as needed.
std::optional<std::uint64_t> field_u64(const std::string& line,
                                       const std::string& key, bool* neg) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::size_t i = pos + needle.size();
  bool negative = false;
  if (i < line.size() && line[i] == '-') {
    negative = true;
    ++i;
  }
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  std::uint64_t v = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
    ++i;
  }
  if (neg != nullptr) *neg = negative;
  return v;
}

std::optional<std::string> field_string(const std::string& line,
                                        const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const std::size_t start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(start, end - start);
}

}  // namespace

void write_jsonl(const std::vector<Record>& records, std::ostream& out) {
  char buf[320];
  for (const Record& r : records) {
    format_jsonl_line(r, buf, sizeof buf);
    out << buf << '\n';
  }
}

namespace {

/// Perfetto "thread" row for a record: participants of the same block on
/// different nodes must not collapse onto one row, so the node id selects a
/// per-node band. Node 0 keeps the bare child index (single-node traces
/// render exactly as before).
int chrome_tid(const Record& r) {
  return static_cast<int>(r.node_id) * 1000 + static_cast<int>(r.child_index);
}

}  // namespace

void write_chrome(const std::vector<Record>& records, std::ostream& out) {
  out << "{\"traceEvents\":[";
  char buf[448];
  bool first = true;
  // A cross-process job's records share a trace_id but *not* a race_id (the
  // client's race counter and the daemon's are unrelated), so traced records
  // group under a compact per-trace "process" instead of their race id.
  // Offset past the race-id band so the two keyspaces cannot collide.
  constexpr std::uint32_t kTracePidBase = 1u << 30;
  std::map<std::uint64_t, std::uint32_t> trace_pids;
  for (const Record& r : records) {
    if (r.trace_id != 0) {
      trace_pids.try_emplace(
          r.trace_id, kTracePidBase +
                          static_cast<std::uint32_t>(trace_pids.size()));
    }
  }
  const auto chrome_pid = [&](const Record& r) {
    if (r.trace_id == 0) return r.race_id;
    return trace_pids.at(r.trace_id);
  };
  // Name each trace's process row by the full 64-bit id so the Perfetto
  // track is greppable back to the jsonl.
  for (const auto& [tid64, pid] : trace_pids) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%" PRIu32
                  ",\"args\":{\"name\":\"trace %016" PRIx64 "\"}}",
                  first ? "" : ",", pid, tid64);
    out << buf;
    first = false;
  }
  // Name the per-node thread rows once, so a stitched multi-node timeline
  // reads "node 3 #2" instead of a bare synthetic tid.
  std::map<std::pair<std::uint32_t, int>, const Record*> rows;
  for (const Record& r : records) {
    if (r.node_id != 0) rows.try_emplace({chrome_pid(r), chrome_tid(r)}, &r);
  }
  for (const auto& [key, r] : rows) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%" PRIu32
                  ",\"tid\":%d,\"args\":{\"name\":\"node %" PRIu32 " #%d\"}}",
                  first ? "" : ",", key.first, key.second, r->node_id,
                  static_cast<int>(r->child_index));
    out << buf;
    first = false;
  }
  for (const Record& r : records) {
    // Supervisor attempts become duration spans; everything else instants.
    const char* ph = "i";
    const char* name = to_string(r.kind);
    if (r.kind == EventKind::kAttemptBegin) {
      ph = "B";
      name = "attempt";
    } else if (r.kind == EventKind::kAttemptEnd) {
      ph = "E";
      name = "attempt";
    }
    // Perfetto groups rows by (pid, tid): one "process" per alternative
    // block (pid = the race id, or the compact trace id when the block
    // crossed the altxd hop), one "thread" per (node, participant).
    std::snprintf(
        buf, sizeof buf,
        "%s\n{\"name\":\"%s\",\"ph\":\"%s\",%s\"ts\":%.3f,\"pid\":%" PRIu32
        ",\"tid\":%d,\"args\":{\"os_pid\":%" PRId32 ",\"node\":%" PRIu32
        ",\"attempt\":%" PRIu32 ",\"race\":%" PRIu32 ",\"trace\":%" PRIu64
        ",\"a\":%" PRIu64 ",\"b\":%" PRIu64 ",\"c\":%" PRIu64 "}}",
        first ? "" : ",", name, ph,
        ph[0] == 'i' ? "\"s\":\"t\"," : "",  // instant scope: per thread
        static_cast<double>(r.t_ns) / 1000.0, chrome_pid(r), chrome_tid(r),
        r.pid, r.node_id, r.attempt, r.race_id, r.trace_id, r.a, r.b, r.c);
    out << buf;
    first = false;
  }
  out << "\n]}\n";
}

std::vector<Record> stitch_records(
    const std::vector<std::vector<Record>>& traces) {
  std::vector<Record> all;
  std::size_t total = 0;
  for (const auto& t : traces) total += t.size();
  all.reserve(total);
  for (const auto& t : traces) all.insert(all.end(), t.begin(), t.end());
  // Causal order: the shared clock first (sim time is one clock across
  // nodes; CLOCK_MONOTONIC is one clock across processes of one machine),
  // then each node's own program order as the tie-breaker.
  std::stable_sort(all.begin(), all.end(),
                   [](const Record& x, const Record& y) {
                     if (x.t_ns != y.t_ns) return x.t_ns < y.t_ns;
                     if (x.node_id != y.node_id) return x.node_id < y.node_id;
                     return x.seq < y.seq;
                   });
  return all;
}

void write_trace(const std::vector<Record>& records, std::ostream& out,
                 const std::string& format) {
  if (format == "jsonl" || format.empty()) {
    write_jsonl(records, out);
  } else if (format == "chrome") {
    write_chrome(records, out);
  } else {
    throw UsageError("unknown trace format '" + format +
                     "' (expected jsonl or chrome)");
  }
}

std::optional<EventKind> event_kind_from_string(const std::string& name) {
  static const std::map<std::string, EventKind> table = [] {
    std::map<std::string, EventKind> t;
    for (EventKind k : kAllKinds) t.emplace(to_string(k), k);
    return t;
  }();
  const auto it = table.find(name);
  if (it == table.end()) return std::nullopt;
  return it->second;
}

std::vector<Record> parse_jsonl(std::istream& in) {
  return parse_jsonl(in, nullptr);
}

std::vector<Record> parse_jsonl(std::istream& in, JsonlStats* stats) {
  std::vector<Record> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    Record r;
    const auto t = field_u64(line, "t_ns", nullptr);
    const auto kind = field_string(line, "kind");
    const auto race = field_u64(line, "race", nullptr);
    if (!t.has_value() || !kind.has_value() || !race.has_value()) {
      throw UsageError("trace line " + std::to_string(lineno) +
                       ": not an altx jsonl record");
    }
    r.t_ns = *t;
    r.kind = event_kind_from_string(*kind).value_or(EventKind::kNone);
    r.race_id = static_cast<std::uint32_t>(*race);
    r.attempt = static_cast<std::uint32_t>(
        field_u64(line, "attempt", nullptr).value_or(0));
    // node/seq are absent from pre-stitching traces; 0 is their old meaning.
    const auto node = field_u64(line, "node", nullptr);
    const auto seq = field_u64(line, "seq", nullptr);
    if (stats != nullptr) {
      ++stats->records;
      if (!node.has_value() && !seq.has_value()) ++stats->missing_node_seq;
    }
    r.node_id = static_cast<std::uint32_t>(node.value_or(0));
    r.seq = seq.value_or(0);
    bool pid_neg = false;
    const std::uint64_t pid = field_u64(line, "pid", &pid_neg).value_or(0);
    r.pid = static_cast<std::int32_t>(pid) * (pid_neg ? -1 : 1);
    bool child_neg = false;
    const std::uint64_t child =
        field_u64(line, "child", &child_neg).value_or(0);
    r.child_index = static_cast<std::int16_t>(child) * (child_neg ? -1 : 1);
    r.a = field_u64(line, "a", nullptr).value_or(0);
    r.b = field_u64(line, "b", nullptr).value_or(0);
    r.c = field_u64(line, "c", nullptr).value_or(0);
    // Absent from pre-v3 traces; 0 ("untraced") is exactly their meaning.
    r.trace_id = field_u64(line, "trace", nullptr).value_or(0);
    out.push_back(r);
  }
  return out;
}

}  // namespace altx::obs
