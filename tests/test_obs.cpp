// Unit tests for the observability layer: the fork-shared trace ring, the
// metrics registry, both exporters and the jsonl reader, and the sim-kernel
// bridge. (Whole-construct trace guarantees live in
// test_trace_completeness.cpp.)
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "obs/sim_bridge.hpp"
#include "obs/trace.hpp"
#include "sim/kernel.hpp"

namespace altx::obs {
namespace {

Record make_record(std::uint32_t race, EventKind kind, std::int16_t child = 0) {
  Record r{};
  r.t_ns = 1000 + race;
  r.race_id = race;
  r.attempt = 2;
  r.pid = 4321;
  r.child_index = child;
  r.kind = kind;
  r.a = 7;
  r.b = 8;
  r.c = 9;
  return r;
}

// Must run before anything calls enable_for_test (gtest preserves
// definition order): without ALTX_TRACE in the environment the facade is
// off, emit() is a no-op, and race ids are the "untraced" 0.
TEST(ObsDisabled, FacadeIsInertWithoutSinks) {
  ASSERT_FALSE(enabled());
  EXPECT_EQ(ring(), nullptr);
  EXPECT_EQ(next_race_id(), 0u);
  emit(EventKind::kRaceBegin, 1, 0);  // must not crash with no ring
  EXPECT_TRUE(snapshot().empty());
  EXPECT_EQ(dropped(), 0u);
}

TEST(TraceRing, PublishesInClaimOrder) {
  TraceRing r(16);
  for (std::uint32_t i = 1; i <= 5; ++i) {
    r.push(make_record(i, EventKind::kRaceBegin));
  }
  EXPECT_EQ(r.published(), 5u);
  const auto recs = r.snapshot();
  ASSERT_EQ(recs.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(recs[i].race_id, i + 1);
    EXPECT_EQ(recs[i].kind, EventKind::kRaceBegin);
    EXPECT_EQ(recs[i].a, 7u);
  }
}

TEST(TraceRing, FullArenaDropsNewestAndCounts) {
  TraceRing r(4);
  for (std::uint32_t i = 1; i <= 7; ++i) {
    r.push(make_record(i, EventKind::kFork));
  }
  EXPECT_EQ(r.snapshot().size(), 4u);
  EXPECT_EQ(r.dropped(), 3u);
  // Oldest-first retention: the first four records survive.
  EXPECT_EQ(r.snapshot().front().race_id, 1u);
  EXPECT_EQ(r.snapshot().back().race_id, 4u);
  r.reset();
  EXPECT_EQ(r.snapshot().size(), 0u);
  EXPECT_EQ(r.dropped(), 0u);
  r.push(make_record(9, EventKind::kFork));
  EXPECT_EQ(r.snapshot().size(), 1u);
}

TEST(TraceRing, RaceIdsAreUniqueAndNonZero) {
  TraceRing r(4);
  const auto a = r.next_race_id();
  const auto b = r.next_race_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceRing, SurvivesFork) {
  // The whole point of the MAP_SHARED design: a child's records are visible
  // to the parent after the child is gone.
  enable_for_test(64);
  reset();
  const std::uint32_t id = next_race_id();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    emit(EventKind::kGuardStart, id, 1);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  const auto recs = snapshot();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].kind, EventKind::kGuardStart);
  EXPECT_EQ(recs[0].race_id, id);
  EXPECT_EQ(recs[0].pid, pid);          // stamped by the child
  EXPECT_NE(recs[0].pid, ::getpid());
  EXPECT_GT(recs[0].t_ns, 0u);
  reset();
}

TEST(Metrics, CounterAndHistogram) {
  MetricsRegistry reg;
  reg.counter("x").add();
  reg.counter("x").add(4);
  EXPECT_EQ(reg.counter("x").value(), 5u);

  Histogram& h = reg.histogram("lat");
  for (const std::uint64_t v : {1u, 2u, 4u, 100u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 107u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 107.0 / 4.0);
  // Power-of-two buckets with linear interpolation inside the winning
  // bucket, clamped to the observed [min, max]: the estimate stays within
  // the bucket that holds the true value instead of over-reporting its
  // upper bound. 100 lands in [64, 128), a lone sample interpolates to the
  // bucket midpoint (96), and clamping keeps every estimate <= max.
  EXPECT_GE(h.percentile(100), 64u);
  EXPECT_LE(h.percentile(100), 100u);
  EXPECT_GE(h.percentile(0), 1u);   // clamped up to min
  EXPECT_LE(h.percentile(0), 2u);   // 1 lands in [0, 2)
  EXPECT_LE(h.percentile(50), 4u);  // rank 1 of {1,2,4,100} -> the 2 bucket

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"x\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  reg.reset();
  EXPECT_EQ(reg.counter("x").value(), 0u);
}

TEST(Metrics, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("jobs").add(7);
  Histogram& h = reg.histogram("wait_ns");
  for (const std::uint64_t v : {1u, 2u, 4u, 100u}) h.record(v);

  const std::string text = reg.to_prometheus("altx_");

  // Counters get the _total suffix and a TYPE line.
  EXPECT_NE(text.find("# TYPE altx_jobs_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("altx_jobs_total 7\n"), std::string::npos);

  // Histogram buckets are cumulative with inclusive power-of-two upper
  // bounds: bucket i holds [2^i, 2^(i+1)), so le = 2^(i+1)-1.
  EXPECT_NE(text.find("# TYPE altx_wait_ns histogram\n"), std::string::npos);
  EXPECT_NE(text.find("altx_wait_ns_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("altx_wait_ns_bucket{le=\"3\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("altx_wait_ns_bucket{le=\"7\"} 3\n"), std::string::npos);
  // Empty interior buckets still emit rows (cumulative count is flat)...
  EXPECT_NE(text.find("altx_wait_ns_bucket{le=\"63\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("altx_wait_ns_bucket{le=\"127\"} 4\n"), std::string::npos);
  // ...but the empty tail past the last occupied bucket is elided.
  EXPECT_EQ(text.find("le=\"255\""), std::string::npos);
  EXPECT_NE(text.find("altx_wait_ns_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("altx_wait_ns_sum 107\n"), std::string::npos);
  EXPECT_NE(text.find("altx_wait_ns_count 4\n"), std::string::npos);
}

TEST(Metrics, PrometheusEmptyHistogramHasNoBuckets) {
  MetricsRegistry reg;
  reg.histogram("idle");
  const std::string text = reg.to_prometheus("altx_");
  EXPECT_NE(text.find("# TYPE altx_idle histogram\n"), std::string::npos);
  EXPECT_EQ(text.find("altx_idle_bucket{le=\"1\""), std::string::npos);
  EXPECT_NE(text.find("altx_idle_bucket{le=\"+Inf\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("altx_idle_count 0\n"), std::string::npos);
}

TEST(Metrics, EmptyHistogramIsDefined) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(95), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Export, JsonlRoundTrips) {
  std::vector<Record> in = {
      make_record(1, EventKind::kRaceBegin),
      make_record(1, EventKind::kCommitWon, 2),
      make_record(3, EventKind::kChildFate, 1),
  };
  std::stringstream s;
  write_jsonl(in, s);
  const auto out = parse_jsonl(s);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].t_ns, in[i].t_ns);
    EXPECT_EQ(out[i].race_id, in[i].race_id);
    EXPECT_EQ(out[i].attempt, in[i].attempt);
    EXPECT_EQ(out[i].pid, in[i].pid);
    EXPECT_EQ(out[i].child_index, in[i].child_index);
    EXPECT_EQ(out[i].kind, in[i].kind);
    EXPECT_EQ(out[i].a, in[i].a);
    EXPECT_EQ(out[i].b, in[i].b);
    EXPECT_EQ(out[i].c, in[i].c);
  }
}

TEST(Export, EventKindNamesRoundTrip) {
  for (const EventKind k :
       {EventKind::kRaceBegin, EventKind::kFork, EventKind::kGuardStart,
        EventKind::kGuardResult, EventKind::kCommitAttempt,
        EventKind::kCommitWon, EventKind::kTooLate, EventKind::kGuardFail,
        EventKind::kChildFate, EventKind::kRaceDecided, EventKind::kEliminated,
        EventKind::kAttemptBegin, EventKind::kAttemptEnd, EventKind::kBackoff,
        EventKind::kGovNarrow,
        EventKind::kAwaitBegin, EventKind::kAwaitTaskDone,
        EventKind::kAwaitDecided, EventKind::kDistSpawn, EventKind::kDistAbort,
        EventKind::kDistResult, EventKind::kDistKill, EventKind::kDistDecided,
        EventKind::kVoteGrant, EventKind::kVoteReject, EventKind::kSyncDecided,
        EventKind::kSimEvent}) {
    const auto back = event_kind_from_string(to_string(k));
    ASSERT_TRUE(back.has_value()) << to_string(k);
    EXPECT_EQ(*back, k);
  }
}

TEST(Export, UnknownKindDegradesToNone) {
  std::stringstream s;
  s << R"({"t_ns":5,"kind":"from_the_future","race":1,"attempt":0,"pid":1,)"
    << R"("child":0,"a":0,"b":0,"c":0})" << "\n";
  const auto out = parse_jsonl(s);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, EventKind::kNone);
}

TEST(Export, MalformedLineThrowsWithLineNumber) {
  std::stringstream s;
  s << R"({"t_ns":5,"kind":"fork","race":1,"attempt":0,"pid":1,"child":0,)"
    << R"("a":0,"b":0,"c":0})" << "\n"
    << "not json\n";
  try {
    (void)parse_jsonl(s);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
}

TEST(Export, UnknownFormatThrows) {
  std::stringstream s;
  EXPECT_THROW(write_trace({}, s, "xml"), UsageError);
}

TEST(Export, ChromeEmitsTraceEvents) {
  std::vector<Record> in = {
      make_record(1, EventKind::kRaceBegin),
      make_record(1, EventKind::kAttemptBegin),
      make_record(1, EventKind::kAttemptEnd),
  };
  std::stringstream s;
  write_chrome(in, s);
  const std::string out = s.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  // Attempts become duration spans, everything else instants.
  EXPECT_NE(out.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  // Braces/brackets balance — cheap structural sanity; real JSON validity
  // is exercised by loading the export in tools (see docs).
  long depth = 0;
  for (const char c : out) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(SimBridge, KernelEventsLandInTheSharedTrace) {
  enable_for_test(1024);
  reset();
  const std::uint32_t id = next_race_id();

  sim::Kernel::Config cfg;
  cfg.machine = sim::MachineModel::shared_memory_mp(4);
  cfg.address_space_pages = 8;
  cfg.trace = sim_trace_sink(id);
  sim::Kernel k(cfg);
  auto fast = sim::ProgramBuilder().compute(10 * kMsec).build();
  auto slow = sim::ProgramBuilder().compute(90 * kMsec).build();
  k.spawn_root(sim::ProgramBuilder().alt({fast, slow}).build());
  k.run();

  const auto recs = snapshot();
  ASSERT_FALSE(recs.empty());
  std::size_t forks = 0;
  std::size_t commits = 0;
  std::size_t eliminations = 0;
  for (const Record& r : recs) {
    EXPECT_EQ(r.race_id, id);  // everything grouped under the bridged id
    if (r.kind == EventKind::kFork) ++forks;
    if (r.kind == EventKind::kCommitWon) ++commits;
    if (r.kind == EventKind::kEliminated) ++eliminations;
  }
  EXPECT_EQ(forks, 3u);  // root + two alternates
  EXPECT_EQ(commits, 1u);
  EXPECT_EQ(eliminations, 1u);
  // Sim time is microseconds; bridged stamps are that value in ns.
  for (const Record& r : recs) EXPECT_EQ(r.t_ns % 1000, 0u);
  reset();
}

TEST(Export, NodeAndSeqRoundTrip) {
  Record r = make_record(5, EventKind::kCommitWon, 2);
  r.node_id = 7;
  r.seq = 42;
  std::ostringstream out;
  write_jsonl({r}, out);
  EXPECT_NE(out.str().find("\"node\":7"), std::string::npos);
  EXPECT_NE(out.str().find("\"seq\":42"), std::string::npos);
  std::istringstream in(out.str());
  const auto back = parse_jsonl(in);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].node_id, 7u);
  EXPECT_EQ(back[0].seq, 42u);
  // Pre-stitching traces carry neither key; both default to 0.
  std::istringstream old(
      "{\"t_ns\":1,\"kind\":\"fork\",\"race\":1,\"attempt\":0,\"pid\":1,"
      "\"child\":0,\"a\":0,\"b\":0,\"c\":0}\n");
  const auto legacy = parse_jsonl(old);
  ASSERT_EQ(legacy.size(), 1u);
  EXPECT_EQ(legacy[0].node_id, 0u);
  EXPECT_EQ(legacy[0].seq, 0u);
}

TEST(Export, JsonlStatsCountRecordsAndSchemaV1Lines) {
  // Empty input: parses to nothing, and the stats say so — this is what
  // lets altx-trace --stitch refuse an empty file instead of "stitching"
  // zero records successfully.
  std::istringstream empty("");
  JsonlStats es;
  EXPECT_TRUE(parse_jsonl(empty, &es).empty());
  EXPECT_EQ(es.records, 0u);
  EXPECT_EQ(es.missing_node_seq, 0u);

  // A schema-v1 line (no node/seq keys) parses but is flagged: its records
  // all collapse onto (node 0, seq 0) and cannot be causally merged.
  std::istringstream old(
      "{\"t_ns\":1,\"kind\":\"fork\",\"race\":1,\"attempt\":0,\"pid\":1,"
      "\"child\":0,\"a\":0,\"b\":0,\"c\":0}\n");
  JsonlStats vs;
  ASSERT_EQ(parse_jsonl(old, &vs).size(), 1u);
  EXPECT_EQ(vs.records, 1u);
  EXPECT_EQ(vs.missing_node_seq, 1u);

  // A current trace is not flagged.
  std::ostringstream out;
  write_jsonl({make_record(3, EventKind::kFork, 1)}, out);
  std::istringstream in(out.str());
  JsonlStats cs;
  ASSERT_EQ(parse_jsonl(in, &cs).size(), 1u);
  EXPECT_EQ(cs.records, 1u);
  EXPECT_EQ(cs.missing_node_seq, 0u);
}

TEST(Export, TruncatedRecordThrowsWithItsLineNumber) {
  // First line intact, second cut mid-record — the shape a trace takes when
  // its writer dies while flushing.
  std::ostringstream out;
  write_jsonl({make_record(3, EventKind::kFork, 1)}, out);
  std::istringstream s(out.str() + "{\"t_ns\":12,\"ki");
  try {
    (void)parse_jsonl(s);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Export, RingStampsMonotonicSeq) {
  TraceRing r(16);
  for (std::uint32_t i = 1; i <= 4; ++i) {
    r.push(make_record(i, EventKind::kFork));
  }
  const auto recs = r.snapshot();
  ASSERT_EQ(recs.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(recs[i].seq, i);
}

TEST(Export, StitchOrdersByTimeThenNodeThenSeq) {
  auto rec = [](std::uint64_t t, std::uint32_t node, std::uint64_t seq,
                std::uint32_t race) {
    Record r = make_record(race, EventKind::kSimEvent);
    r.t_ns = t;
    r.node_id = node;
    r.seq = seq;
    return r;
  };
  // Node 2's trace and node 1's trace, each internally in seq order.
  const std::vector<Record> a = {rec(100, 2, 0, 1), rec(300, 2, 1, 1)};
  const std::vector<Record> b = {rec(100, 1, 5, 1), rec(200, 1, 6, 1)};
  const auto merged = stitch_records({a, b});
  ASSERT_EQ(merged.size(), 4u);
  // t=100 ties break by node id; then t=200 (node 1), t=300 (node 2).
  EXPECT_EQ(merged[0].node_id, 1u);
  EXPECT_EQ(merged[1].node_id, 2u);
  EXPECT_EQ(merged[2].t_ns, 200u);
  EXPECT_EQ(merged[3].t_ns, 300u);
  // race_id grouping is untouched: every record still carries its trace id.
  for (const Record& r : merged) EXPECT_EQ(r.race_id, 1u);
}

TEST(Export, OverflowSynthesizesMarkerRecord) {
  // enable_for_test only creates the ring once per process, so overflow by
  // pushing past whatever capacity the suite's ring actually has.
  enable_for_test(256);
  reset();
  const std::uint32_t id = next_race_id();
  const std::size_t cap = ring()->capacity();
  for (std::size_t i = 0; i < cap + 5; ++i) emit(EventKind::kFork, id, 0);
  EXPECT_GT(dropped(), 0u);
  const std::string path = "/tmp/altx_test_obs_overflow.jsonl";
  export_to(path, "jsonl");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const auto recs = parse_jsonl(in);
  ::unlink(path.c_str());
  ASSERT_FALSE(recs.empty());
  const Record& last = recs.back();
  EXPECT_EQ(last.kind, EventKind::kRingOverflow);
  EXPECT_EQ(last.a, dropped());
  // The marker extends the stream: its seq follows the last real record.
  EXPECT_EQ(last.seq, recs[recs.size() - 2].seq + 1);
  reset();
}

TEST(RingFile, ReaderAttachesAndSeesLiveWrites) {
  const std::string path = "/tmp/altx_test_obs_ringfile.bin";
  {
    TraceRing writer(path, 64);
    writer.push(make_record(1, EventKind::kRaceBegin));
    writer.push(make_record(1, EventKind::kCommitWon, 1));

    TraceRingReader reader(path);
    EXPECT_EQ(reader.capacity(), 64u);
    EXPECT_EQ(reader.published(), 2u);
    const auto recs = reader.snapshot();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].kind, EventKind::kRaceBegin);
    EXPECT_EQ(recs[1].kind, EventKind::kCommitWon);

    // Writes after the attach are visible to the same reader: it is a
    // window onto the shared pages, not a copy.
    writer.push(make_record(1, EventKind::kRaceDecided));
    EXPECT_EQ(reader.snapshot().size(), 3u);
  }
  ::unlink(path.c_str());
}

TEST(RingFile, ReaderRejectsNonRingFiles) {
  const std::string path = "/tmp/altx_test_obs_notaring.bin";
  {
    std::ofstream out(path);
    out << "this is not an altx trace ring, not even close, but it is long "
           "enough that the header mapping itself succeeds cleanly";
  }
  EXPECT_THROW(TraceRingReader reader(path), UsageError);
  ::unlink(path.c_str());
  EXPECT_THROW(TraceRingReader missing("/tmp/altx_no_such_ring.bin"),
               SystemError);
}

TEST(ObsExportToFile, WritesAndRejectsBadPaths) {
  enable_for_test(64);
  reset();
  emit(EventKind::kRaceBegin, next_race_id(), 0, 2);
  const std::string path = "/tmp/altx_test_obs_export.jsonl";
  export_to(path, "jsonl");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const auto recs = parse_jsonl(in);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].kind, EventKind::kRaceBegin);
  ::unlink(path.c_str());
  EXPECT_THROW(export_to("/nonexistent-dir/x.jsonl", "jsonl"), SystemError);
  reset();
}

}  // namespace
}  // namespace altx::obs
