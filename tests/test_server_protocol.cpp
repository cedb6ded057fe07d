// Protocol hardening for the altxd wire layer (server/protocol.hpp): a
// daemon that accepts bytes from arbitrary clients must shrug off malformed
// frames, truncation, oversized payloads, random garbage, and clients that
// vanish mid-job — dropping the offender, never crashing, never leaking the
// cohort or its governor tokens.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <random>
#include <thread>

#include "constrained.hpp"
#include "obs/event.hpp"
#include "obs/trace.hpp"
#include "posix/alt_group.hpp"
#include "posix/governor.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"

namespace {

using namespace altx;
using namespace altx::server;
using namespace std::chrono_literals;

Frame mk(FrameType type, std::uint64_t job_id, Bytes payload = {}) {
  Frame f;
  f.type = type;
  f.job_id = job_id;
  f.payload = std::move(payload);
  return f;
}

// ---- frame + payload round trips ---------------------------------------

TEST(ServerProtocol, FrameRoundTrip) {
  Frame f;
  f.type = FrameType::kSubmit;
  f.flags = 0xbeef;
  f.job_id = 0x1122334455667788ULL;
  f.trace_id = 0xfeedfacecafef00dULL;
  f.span_id = 0x0123456789abcdefULL;
  f.payload = {1, 2, 3, 4, 5};
  const Bytes raw = encode_frame(f);
  ASSERT_EQ(raw.size(), kFrameHeaderBytes + 5);

  FrameDecoder dec;
  dec.feed(raw.data(), raw.size());
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, FrameType::kSubmit);
  EXPECT_EQ(out->flags, 0xbeef);
  EXPECT_EQ(out->job_id, f.job_id);
  EXPECT_EQ(out->trace_id, 0xfeedfacecafef00dULL);
  EXPECT_EQ(out->span_id, 0x0123456789abcdefULL);
  EXPECT_EQ(out->payload, f.payload);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(ServerProtocol, UntracedFrameCarriesZeroIds) {
  const Bytes raw = encode_frame(mk(FrameType::kPing, 7));
  FrameDecoder dec;
  dec.feed(raw.data(), raw.size());
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->trace_id, 0u);
  EXPECT_EQ(out->span_id, 0u);
}

TEST(ServerProtocol, V1FramesAreRejectedAtTheVersionByte) {
  // The v2 header grew from 20 to 36 bytes, but the first 20 bytes kept the
  // v1 layout — so a v1 writer's frame deterministically fails here, at the
  // version check, instead of being misparsed.
  Bytes raw = encode_frame(mk(FrameType::kPing, 0));
  raw[4] = 1;  // the v1 version byte
  FrameDecoder dec;
  dec.feed(raw.data(), raw.size());
  EXPECT_THROW((void)dec.next(), ProtocolError);
}

TEST(ServerProtocol, JobSpecRoundTrip) {
  JobSpec spec;
  spec.timeout_ms = 1234;
  spec.site_id = 0xdeadbeef;
  spec.heap_pages = 7;
  spec.queue_ns = 55'555;
  spec.claim = 0x2'0000'0000'0007;
  spec.arms.push_back({"echo", {9, 8, 7}});
  spec.arms.push_back({"fail", {}});
  const JobSpec out = decode_job(encode_job(spec));
  EXPECT_EQ(out.timeout_ms, 1234u);
  EXPECT_EQ(out.site_id, 0xdeadbeefu);
  EXPECT_EQ(out.heap_pages, 7u);
  EXPECT_EQ(out.queue_ns, 55'555u);
  EXPECT_EQ(out.claim, 0x2'0000'0000'0007u);
  ASSERT_EQ(out.arms.size(), 2u);
  EXPECT_EQ(out.arms[0].handler, "echo");
  EXPECT_EQ(out.arms[0].args, (Bytes{9, 8, 7}));
  EXPECT_EQ(out.arms[1].handler, "fail");
}

TEST(ServerProtocol, OutcomeAndStatsRoundTrip) {
  JobOutcome o;
  o.status = JobStatus::kWon;
  o.winner = 2;
  o.value = {42};
  o.queue_ns = 11;
  o.exec_ns = 22;
  o.retry_after_ms = 33;
  o.error = "why";
  const JobOutcome oo = decode_outcome(encode_outcome(o));
  EXPECT_EQ(oo.status, JobStatus::kWon);
  EXPECT_EQ(oo.winner, 2u);
  EXPECT_EQ(oo.value, (Bytes{42}));
  EXPECT_EQ(oo.queue_ns, 11u);
  EXPECT_EQ(oo.exec_ns, 22u);
  EXPECT_EQ(oo.retry_after_ms, 33u);
  EXPECT_EQ(oo.error, "why");

  WireStats s;
  s.accepted = 1;
  s.completed = 2;
  s.denied = 3;
  s.canceled = 4;
  s.worker_spawns = 5;
  s.worker_respawns = 6;
  s.tokens_reclaimed = 7;
  s.inflight_hw = 8;
  s.queued = 9;
  s.running = 10;
  s.clients = 11;
  s.workers_idle = 12;
  s.workers_busy = 13;
  const WireStats ss = decode_stats(encode_stats(s));
  EXPECT_EQ(ss.accepted, 1u);
  EXPECT_EQ(ss.tokens_reclaimed, 7u);
  EXPECT_EQ(ss.inflight_hw, 8u);
  EXPECT_EQ(ss.workers_busy, 13u);
}

// ---- incremental / truncated input -------------------------------------

TEST(ServerProtocol, DecoderAcceptsByteAtATime) {
  Frame f;
  f.type = FrameType::kResult;
  f.job_id = 99;
  f.payload = Bytes(300, 0xab);
  const Bytes raw = encode_frame(f);
  FrameDecoder dec;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_FALSE(dec.next().has_value()) << "frame complete early at " << i;
    dec.feed(&raw[i], 1);
  }
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, f.payload);
}

TEST(ServerProtocol, TruncatedFrameIsJustIncomplete) {
  // A prefix of a valid frame is not an error — the rest may still arrive.
  const Bytes raw = encode_frame(mk(FrameType::kSubmit, 1, Bytes(64, 1)));
  for (const std::size_t cut : {1ul, 19ul, 20ul, 35ul, 40ul, raw.size() - 1}) {
    FrameDecoder dec;
    dec.feed(raw.data(), cut);
    EXPECT_FALSE(dec.next().has_value()) << "cut at " << cut;
  }
}

TEST(ServerProtocol, BadMagicThrows) {
  Bytes raw = encode_frame(mk(FrameType::kPing, 0));
  raw[0] ^= 0xff;
  FrameDecoder dec;
  dec.feed(raw.data(), raw.size());
  EXPECT_THROW((void)dec.next(), ProtocolError);
}

TEST(ServerProtocol, BadVersionThrows) {
  Bytes raw = encode_frame(mk(FrameType::kPing, 0));
  raw[4] = kProtoVersion + 1;
  FrameDecoder dec;
  dec.feed(raw.data(), raw.size());
  EXPECT_THROW((void)dec.next(), ProtocolError);
}

TEST(ServerProtocol, BadTypeThrows) {
  Bytes raw = encode_frame(mk(FrameType::kPing, 0));
  raw[5] = 0;  // below the FrameType range
  FrameDecoder dec;
  dec.feed(raw.data(), raw.size());
  EXPECT_THROW((void)dec.next(), ProtocolError);
  raw[5] = 200;  // above it
  FrameDecoder dec2;
  dec2.feed(raw.data(), raw.size());
  EXPECT_THROW((void)dec2.next(), ProtocolError);
}

TEST(ServerProtocol, OversizedPayloadRejectedFromHeaderAlone) {
  // The header claims 17 MiB; the decoder must throw on the header, before
  // any payload is buffered — a hostile client cannot make us allocate.
  Bytes raw = encode_frame(mk(FrameType::kSubmit, 1));
  const std::uint32_t huge = (16u << 20) + 1;
  std::memcpy(raw.data() + 16, &huge, 4);
  FrameDecoder dec;
  dec.feed(raw.data(), kFrameHeaderBytes);  // header only, no payload
  EXPECT_THROW((void)dec.next(), ProtocolError);
}

TEST(ServerProtocol, MalformedJobPayloads) {
  // Truncated payload.
  const Bytes good = encode_job([] {
    JobSpec s;
    s.arms.push_back({"echo", {1}});
    return s;
  }());
  Bytes cut(good.begin(), good.begin() + static_cast<long>(good.size() / 2));
  EXPECT_THROW((void)decode_job(cut), ProtocolError);

  // Trailing garbage after a valid spec.
  Bytes padded = good;
  padded.push_back(0);
  EXPECT_THROW((void)decode_job(padded), ProtocolError);

  // Zero arms.
  EXPECT_THROW((void)decode_job(encode_job(JobSpec{})), ProtocolError);

  // Too many arms.
  JobSpec wide;
  for (std::size_t i = 0; i <= kMaxArms; ++i) wide.arms.push_back({"e", {}});
  EXPECT_THROW((void)decode_job(encode_job(wide)), ProtocolError);

  // Handler name over the cap.
  JobSpec longname;
  longname.arms.push_back({std::string(kMaxHandlerName + 1, 'x'), {}});
  EXPECT_THROW((void)decode_job(encode_job(longname)), ProtocolError);
}

// ---- fuzz-ish: the decoder survives random bytes ------------------------

TEST(ServerProtocol, FuzzRandomBytes) {
  // Seeded, so a failure reproduces. Random chunks either parse (rarely —
  // the magic gates almost everything) or throw ProtocolError; anything
  // else (crash, unbounded buffering) is the bug this test exists for.
  std::mt19937 rng(20250808);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(1, 257);
  int poisoned = 0;
  FrameDecoder dec;
  for (int round = 0; round < 2'000; ++round) {
    Bytes chunk(static_cast<std::size_t>(len(rng)));
    for (auto& b : chunk) b = static_cast<std::uint8_t>(byte(rng));
    // Make some chunks *almost* valid so deeper paths get exercised.
    if (round % 7 == 0 && chunk.size() >= 6) {
      std::memcpy(chunk.data(), &kFrameMagic, 4);
      chunk[4] = kProtoVersion;
    }
    dec.feed(chunk.data(), chunk.size());
    try {
      while (dec.next().has_value()) {
      }
    } catch (const ProtocolError&) {
      ++poisoned;
      dec = FrameDecoder();  // stream is poisoned by contract; start over
    }
    ASSERT_LT(dec.buffered(), kMaxFramePayload + kFrameHeaderBytes + 512);
  }
  EXPECT_GT(poisoned, 0) << "fuzz never hit a reject path; seed too tame";
}

TEST(ServerProtocol, FuzzRandomJobPayloads) {
  std::mt19937 rng(424242);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 200);
  for (int round = 0; round < 2'000; ++round) {
    Bytes payload(static_cast<std::size_t>(len(rng)));
    for (auto& b : payload) b = static_cast<std::uint8_t>(byte(rng));
    try {
      (void)decode_job(payload);
    } catch (const ProtocolError&) {
    }
    try {
      (void)decode_outcome(payload);
    } catch (const ProtocolError&) {
    }
    try {
      (void)decode_stats(payload);
    } catch (const ProtocolError&) {
    }
  }
}

// ---- a live daemon vs. hostile or vanishing clients ---------------------

class ServerHardening : public ::testing::Test {
 protected:
  void SetUp() override {
    register_builtin_handlers(HandlerRegistry::global());
    sock_ = "/tmp/altx_proto_test_" + std::to_string(::getpid()) + ".sock";
  }

  void start(ServerConfig cfg) {
    cfg.socket_path = sock_;
    server_ = std::make_unique<Server>(std::move(cfg));
    server_->start();
    runner_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->request_stop();
      if (runner_.joinable()) runner_.join();
      server_.reset();
    }
    ::unlink(sock_.c_str());
  }

  std::string sock_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
};

TEST_F(ServerHardening, GarbageBytesDropTheClientNotTheDaemon) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  ServerConfig cfg;
  cfg.workers = 1;
  start(cfg);

  {
    // A client that speaks garbage gets dropped.
    Client bad = Client::connect_unix(sock_);
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_EQ(::write(bad.fd(), junk, sizeof junk), (ssize_t)sizeof junk);
    EXPECT_THROW(bad.ping(2'000ms), SystemError);
  }

  // The daemon is unharmed: a well-behaved client still gets service.
  Client good = Client::connect_unix(sock_);
  good.ping(5'000ms);
  const std::uint64_t id = good.submit([] {
    JobSpec s;
    s.arms.push_back({"echo", {7}});
    return s;
  }());
  const JobOutcome out = good.wait(id, 10'000ms);
  EXPECT_EQ(out.status, JobStatus::kWon);
  EXPECT_EQ(out.value, (Bytes{7}));
}

TEST_F(ServerHardening, MidJobDisconnectReapsCohortAndReleasesTokens) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.gov_tokens = 8;
  start(cfg);

  posix::SpeculationGovernor* gov = server_->governor();
  ASSERT_NE(gov, nullptr);

  {
    Client c = Client::connect_unix(sock_);
    JobSpec s;
    s.timeout_ms = 60'000;
    s.arms.push_back({"hang", {}});
    s.arms.push_back({"hang", {}});
    c.submit(s);
    c.submit(s);
    // Wait until both jobs are racing (tokens held by worker cohorts).
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (server_->stats().running < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    ASSERT_EQ(server_->stats().running, 2u);
    // Client vanishes here — ~Client closes the socket mid-job.
  }

  // The daemon must tear down both cohorts and reconcile the governor:
  // no running jobs, no in-flight tokens, workers respawned.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (;;) {
    const ServerStats st = server_->stats();
    const posix::GovernorStats gs = gov->stats();
    if (st.running == 0 && st.clients == 0 && gs.in_flight == 0 &&
        st.workers_idle == 2) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "running=" << st.running << " clients=" << st.clients
        << " gov_in_flight=" << gs.in_flight
        << " workers_idle=" << st.workers_idle;
    std::this_thread::sleep_for(10ms);
  }
  const ServerStats st = server_->stats();
  EXPECT_EQ(st.canceled, 2u);
  EXPECT_GE(st.worker_respawns, 2u);
}

TEST_F(ServerHardening, TraceIdSurvivesSigkilledLoserAndWorkerTeardown) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  obs::enable_for_test(1 << 14);
  ServerConfig cfg;
  cfg.workers = 1;
  start(cfg);

  // Job A: a hanging arm from a client that vanishes mid-job. The daemon
  // SIGKILLs the worker cohort on disconnect — every record the dying side
  // already emitted must carry A's trace id.
  const std::uint64_t trace_a = 0x1111222233334444ULL;
  {
    Client a = Client::connect_unix(sock_);
    JobSpec s;
    s.timeout_ms = 60'000;
    s.arms.push_back({"hang", {}});
    a.submit(s, trace_a, /*span_id=*/1);
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (server_->stats().running < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    ASSERT_EQ(server_->stats().running, 1u);
  }  // ~Client: disconnect mid-job → cohort teardown, worker respawn

  const auto drain = std::chrono::steady_clock::now() + 10s;
  while ((server_->stats().clients != 0 || server_->stats().workers_idle < 1) &&
         std::chrono::steady_clock::now() < drain) {
    std::this_thread::sleep_for(5ms);
  }

  // Job B on the replacement worker: one eliminated (SIGKILLed) loser, and
  // the fresh worker must stamp B's id — not a recycled trace_a, not zero.
  const std::uint64_t trace_b = 0x5555666677778888ULL;
  Client b = Client::connect_unix(sock_);
  Bytes fast;
  ByteWriter w(fast);
  w.u32(10);
  JobSpec s;
  s.timeout_ms = 30'000;
  s.arms.push_back({"hang", {}});       // the SIGKILLed loser
  s.arms.push_back({"sleep_ms", fast});  // the winner
  const std::uint64_t id = b.submit(s, trace_b, /*span_id=*/2);
  const JobOutcome out = b.wait(id, 30'000ms);
  ASSERT_EQ(out.status, JobStatus::kWon);
  EXPECT_EQ(out.winner, 2u);

  // The worker reaps the job's eliminated loser once its reply is out, so
  // the loser's fate record may land just after the reply.
  const auto told_by = std::chrono::steady_clock::now() + 10s;
  auto loser_told = [trace_b] {
    for (const obs::Record& r : obs::snapshot()) {
      if (r.trace_id == trace_b && r.kind == obs::EventKind::kChildFate &&
          static_cast<posix::ChildFate>(r.a) == posix::ChildFate::kEliminated) {
        return true;
      }
    }
    return false;
  };
  while (!loser_told() && std::chrono::steady_clock::now() < told_by) {
    std::this_thread::sleep_for(5ms);
  }

  std::uint64_t gone_ns = 0;
  const auto recs = obs::snapshot();
  for (const obs::Record& r : recs) {
    if (r.kind == obs::EventKind::kSrvClientGone) {
      gone_ns = std::max(gone_ns, r.t_ns);
    }
  }
  ASSERT_NE(gone_ns, 0u) << "no kSrvClientGone for the vanished client";

  bool a_daemon = false, a_worker = false;
  bool b_daemon = false, b_worker = false, b_eliminated = false;
  for (const obs::Record& r : recs) {
    if (r.trace_id == trace_a) {
      if (r.kind == obs::EventKind::kSrvSubmit ||
          r.kind == obs::EventKind::kSrvAssign) {
        a_daemon = true;
      }
      if (r.kind == obs::EventKind::kRaceBegin) a_worker = true;
      // No recycled ids: nothing after the teardown may carry A's trace.
      EXPECT_LE(r.t_ns, gone_ns)
          << to_string(r.kind) << " carries the dead client's trace id";
    } else if (r.trace_id == trace_b) {
      if (r.kind == obs::EventKind::kSrvSubmit) b_daemon = true;
      if (r.kind == obs::EventKind::kRaceDecided && r.child_index == 0) {
        b_worker = true;
      }
      if (r.kind == obs::EventKind::kChildFate &&
          static_cast<posix::ChildFate>(r.a) ==
              posix::ChildFate::kEliminated) {
        b_eliminated = true;  // the SIGKILLed loser, attributed to B
      }
    }
    // The replacement worker's race records must never be untraced.
    if (r.kind == obs::EventKind::kRaceBegin && r.t_ns > gone_ns) {
      EXPECT_EQ(r.trace_id, trace_b);
    }
  }
  EXPECT_TRUE(a_daemon) << "job A's daemon records lost the trace id";
  EXPECT_TRUE(a_worker) << "job A's worker records lost the trace id";
  EXPECT_TRUE(b_daemon);
  EXPECT_TRUE(b_worker);
  EXPECT_TRUE(b_eliminated)
      << "the eliminated loser's fate record lost job B's trace id";
  server_->request_stop();
  if (runner_.joinable()) runner_.join();
  server_.reset();
  obs::reset();
}

}  // namespace
