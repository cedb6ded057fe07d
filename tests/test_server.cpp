// altxd end-to-end: multi-client admission, fair draining, jobs queued
// ahead in a running worker, cancellation without token leaks, denial
// visibility, and graceful shutdown that reaps every in-flight cohort.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "constrained.hpp"
#include "obs/event.hpp"
#include "obs/trace.hpp"
#include "posix/alt_heap.hpp"
#include "posix/governor.hpp"
#include "posix/predictor.hpp"
#include "server/client.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"
#include "server/worker.hpp"

namespace {

using namespace altx;
using namespace altx::server;
using namespace std::chrono_literals;

JobSpec echo_job(std::uint8_t tag) {
  JobSpec s;
  s.arms.push_back({"echo", {tag}});
  return s;
}

JobSpec sleep_job(std::uint32_t ms, std::uint32_t timeout_ms = 30'000) {
  Bytes args;
  ByteWriter w(args);
  w.u32(ms);
  JobSpec s;
  s.timeout_ms = timeout_ms;
  s.arms.push_back({"sleep_ms", args});
  return s;
}

/// A job whose one arm waits until the file `mark` exists and then either
/// wins with {1} ("await_mark") or SIGKILLs its worker ("kill_worker"), or
/// that appends one byte to the file and wins with {1} ("touch_mark"), so
/// the file's size counts its runs. A test creates an awaited file once
/// the daemon holds the jobs it needs, so no assertion depends on how long
/// anything takes.
JobSpec gated_job(const char* handler, const std::string& mark) {
  JobSpec s;
  s.arms.push_back({handler, Bytes(mark.begin(), mark.end())});
  return s;
}

/// Registers the gated_job handlers; call before start(), so the workers
/// forked then have them.
void register_gated_handlers() {
  auto await = [](const JobContext& ctx) {
    const std::string path(ctx.args.begin(), ctx.args.end());
    while (::access(path.c_str(), F_OK) != 0) ::usleep(1'000);
  };
  HandlerRegistry::global().add(
      "await_mark", [await](const JobContext& ctx) -> std::optional<Bytes> {
        await(ctx);
        return Bytes{1};
      });
  HandlerRegistry::global().add(
      "kill_worker", [await](const JobContext& ctx) -> std::optional<Bytes> {
        await(ctx);
        ::kill(::getppid(), SIGKILL);
        return std::nullopt;
      });
  HandlerRegistry::global().add(
      "touch_mark", [](const JobContext& ctx) -> std::optional<Bytes> {
        const std::string path(ctx.args.begin(), ctx.args.end());
        if (std::FILE* f = std::fopen(path.c_str(), "a")) {
          std::fputc('x', f);
          std::fclose(f);
        }
        return Bytes{1};
      });
}

void touch(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  std::fclose(f);
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    register_builtin_handlers(HandlerRegistry::global());
    sock_ = "/tmp/altx_server_test_" + std::to_string(::getpid()) + ".sock";
  }

  void start(ServerConfig cfg) {
    cfg.socket_path = sock_;
    server_ = std::make_unique<Server>(std::move(cfg));
    server_->start();
    runner_ = std::thread([this] { server_->run(); });
  }

  void stop() {
    if (server_ != nullptr) {
      server_->request_stop();
      if (runner_.joinable()) runner_.join();
      server_.reset();
    }
  }

  void TearDown() override {
    stop();
    ::unlink(sock_.c_str());
  }

  std::string sock_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
};

TEST_F(ServerTest, EchoRoundTripAndRaceSemantics) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  ServerConfig cfg;
  cfg.workers = 2;
  start(cfg);

  Client c = Client::connect_unix(sock_);

  // Plain echo.
  const JobOutcome out = c.wait(c.submit(echo_job(42)), 15'000ms);
  ASSERT_EQ(out.status, JobStatus::kWon);
  EXPECT_EQ(out.value, (Bytes{42}));
  EXPECT_EQ(out.winner, 1u);

  // Fastest-first: the 1 ms arm beats the 300 ms arm.
  Bytes slow, fast;
  {
    ByteWriter w(slow);
    w.u32(300);
  }
  {
    ByteWriter w(fast);
    w.u32(1);
  }
  JobSpec race2;
  race2.arms.push_back({"sleep_ms", slow});
  race2.arms.push_back({"sleep_ms", fast});
  const JobOutcome r2 = c.wait(c.submit(race2), 15'000ms);
  ASSERT_EQ(r2.status, JobStatus::kWon);
  EXPECT_EQ(r2.winner, 2u);

  // All guards fail.
  JobSpec failing;
  failing.arms.push_back({"fail", {}});
  failing.arms.push_back({"fail", {}});
  const JobOutcome all_failed = c.wait(c.submit(failing), 15'000ms);
  EXPECT_EQ(all_failed.status, JobStatus::kAllFailed);
  // A job that did not win carries its fate census.
  EXPECT_NE(all_failed.error.find("forked 2:"), std::string::npos)
      << all_failed.error;
  EXPECT_NE(all_failed.error.find("aborted 2,"), std::string::npos)
      << all_failed.error;

  // Timeout in the worker.
  JobSpec hung;
  hung.timeout_ms = 100;
  hung.arms.push_back({"hang", {}});
  const JobOutcome timed_out = c.wait(c.submit(hung), 15'000ms);
  EXPECT_EQ(timed_out.status, JobStatus::kTimeout);
  EXPECT_NE(timed_out.error.find("hung 1,"), std::string::npos)
      << timed_out.error;

  // Unknown handler is a daemon-side error, not a FAIL.
  JobSpec unknown;
  unknown.arms.push_back({"no_such_handler", {}});
  EXPECT_EQ(c.wait(c.submit(unknown), 15'000ms).status, JobStatus::kError);
}

TEST_F(ServerTest, ServerRaceWrapperMirrorsPosixRace) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  ServerConfig cfg;
  cfg.workers = 2;
  start(cfg);

  // The RaceOptions::daemon_socket redirect: same call shape as
  // posix::race, remote execution.
  posix::RaceOptions o;
  o.timeout = 10'000ms;
  o.daemon_socket = sock_;
  posix::RaceReport report;
  o.report = &report;
  RemoteRaceInfo info;
  const auto r = server::race<Bytes>(
      {{"fail", {}}, {"echo", {5}}}, o, &info);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner, 2);
  EXPECT_EQ(r->value, (Bytes{5}));
  EXPECT_EQ(report.verdict, posix::WaitVerdict::kWinner);
  EXPECT_EQ(info.status, JobStatus::kWon);
  EXPECT_GT(info.exec_ns, 0u);
}

TEST_F(ServerTest, PipelinedJobsAndStats) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.per_client_running = 2;
  cfg.per_client_queue = 64;
  start(cfg);

  Client c = Client::connect_unix(sock_);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(c.submit(echo_job(static_cast<std::uint8_t>(i))));
  }
  for (int i = 0; i < 20; ++i) {
    const JobOutcome out = c.wait(ids[static_cast<std::size_t>(i)], 30'000ms);
    ASSERT_EQ(out.status, JobStatus::kWon) << "job " << i;
    EXPECT_EQ(out.value, (Bytes{static_cast<std::uint8_t>(i)}));
  }
  const WireStats s = c.stats();
  EXPECT_GE(s.accepted, 20u);
  EXPECT_GE(s.completed, 20u);
  EXPECT_EQ(s.clients, 1u);
}

TEST_F(ServerTest, PerClientQueueCapDeniesWithRetryAfter) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  obs::enable_for_test();
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.per_client_running = 1;
  cfg.per_client_queue = 2;
  cfg.retry_after_ms = 77;
  start(cfg);

  Client c = Client::connect_unix(sock_);
  // One running + two queued saturate this client; further submits must be
  // denied with the configured backoff hint, not buffered.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(c.submit(sleep_job(150)));
  int denied = 0, won = 0;
  for (const std::uint64_t id : ids) {
    const JobOutcome out = c.wait(id, 60'000ms);
    if (out.status == JobStatus::kDenied) {
      ++denied;
      EXPECT_EQ(out.retry_after_ms, 77u);
      EXPECT_FALSE(out.error.empty());
    } else {
      EXPECT_EQ(out.status, JobStatus::kWon);
      ++won;
    }
  }
  EXPECT_GT(denied, 0);
  EXPECT_GT(won, 0);
  EXPECT_GE(server_->stats().denied, static_cast<std::uint64_t>(denied));

  // The denials are visible in the trace ring.
  bool saw_deny = false;
  for (const obs::Record& r : obs::snapshot()) {
    if (static_cast<obs::EventKind>(r.kind) == obs::EventKind::kSrvDeny) {
      saw_deny = true;
      EXPECT_EQ(r.c, 77u);  // retry-after rides in the event
    }
  }
  EXPECT_TRUE(saw_deny);
  stop();
  obs::reset();
}

TEST_F(ServerTest, FairDrainingAcrossClients) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  ServerConfig cfg;
  cfg.workers = 1;  // one worker: assignment order IS completion order
  cfg.per_client_running = 1;
  cfg.per_client_queue = 64;
  start(cfg);

  Client a = Client::connect_unix(sock_);
  Client b = Client::connect_unix(sock_);

  // A floods first; B arrives with two jobs. Round-robin draining must
  // interleave B's jobs instead of making them wait out A's whole queue.
  std::vector<std::uint64_t> a_ids;
  for (int i = 0; i < 8; ++i) a_ids.push_back(a.submit(sleep_job(30)));
  std::vector<std::uint64_t> b_ids;
  for (int i = 0; i < 2; ++i) b_ids.push_back(b.submit(sleep_job(30)));

  std::atomic<std::uint64_t> b_done_ns{0};
  std::thread bt([&] {
    for (const std::uint64_t id : b_ids) {
      ASSERT_EQ(b.wait(id, 60'000ms).status, JobStatus::kWon);
    }
    b_done_ns.store(obs::now_ns());
  });
  // By the time A's 6th job completes, B (2 jobs) must already be done —
  // under FIFO-across-all it would have waited for all 8 of A's.
  for (std::size_t i = 0; i < a_ids.size(); ++i) {
    ASSERT_EQ(a.wait(a_ids[i], 60'000ms).status, JobStatus::kWon);
    if (i == 5) {
      const auto deadline = std::chrono::steady_clock::now() + 5s;
      while (b_done_ns.load() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
      }
      EXPECT_NE(b_done_ns.load(), 0u)
          << "client B starved behind client A's queue";
    }
  }
  bt.join();
}

TEST_F(ServerTest, ConcurrentClientsSmallQuotaNoTokenLeaks) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/64, /*address_mb=*/1024);
  ServerConfig cfg;
  cfg.workers = 4;
  cfg.per_client_running = 2;  // small quota vs N client threads
  cfg.per_client_queue = 32;
  cfg.gov_tokens = 16;
  start(cfg);

  constexpr int kClients = 6;
  constexpr int kJobs = 25;
  std::atomic<int> won{0}, denied{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client c = Client::connect_unix(sock_);
      for (int j = 0; j < kJobs; ++j) {
        const std::uint64_t id =
            c.submit(sleep_job(1 + (t + j) % 3));
        const JobOutcome out = c.wait(id, 60'000ms);
        if (out.status == JobStatus::kWon) {
          ++won;
        } else if (out.status == JobStatus::kDenied) {
          ++denied;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(won.load() + denied.load(), kClients * kJobs);
  EXPECT_GT(won.load(), 0);

  // After the storm: nothing queued, nothing running, and the shared
  // governor pool holds zero in-flight tokens — cancellations and quota
  // churn leaked nothing.
  posix::SpeculationGovernor* gov = server_->governor();
  ASSERT_NE(gov, nullptr);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (;;) {
    const ServerStats st = server_->stats();
    if (st.queued == 0 && st.running == 0 && gov->stats().in_flight == 0) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "queued=" << st.queued << " running=" << st.running
        << " gov_in_flight=" << gov->stats().in_flight;
    std::this_thread::sleep_for(10ms);
  }
}

TEST_F(ServerTest, CancelQueuedAndRunningReleasesEverything) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.per_client_running = 1;
  cfg.gov_tokens = 8;
  start(cfg);

  Client c = Client::connect_unix(sock_);
  JobSpec hang;
  hang.timeout_ms = 60'000;
  hang.arms.push_back({"hang", {}});
  const std::uint64_t running = c.submit(hang);
  const std::uint64_t queued = c.submit(hang);  // quota 1: this one queues

  // Give the first job time to start racing.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server_->stats().running < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }

  c.cancel(queued);
  c.cancel(running);
  EXPECT_EQ(c.wait(queued, 15'000ms).status, JobStatus::kCanceled);
  EXPECT_EQ(c.wait(running, 15'000ms).status, JobStatus::kCanceled);

  posix::SpeculationGovernor* gov = server_->governor();
  ASSERT_NE(gov, nullptr);
  const auto drain = std::chrono::steady_clock::now() + 10s;
  while (gov->stats().in_flight != 0 &&
         std::chrono::steady_clock::now() < drain) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(gov->stats().in_flight, 0);
  EXPECT_GE(server_->stats().canceled, 2u);

  // The replacement worker serves the next job normally.
  EXPECT_EQ(c.wait(c.submit(echo_job(9)), 15'000ms).status, JobStatus::kWon);
}

TEST_F(ServerTest, GracefulShutdownReapsEveryCohort) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  ServerConfig cfg;
  cfg.workers = 3;
  start(cfg);

  Client c = Client::connect_unix(sock_);
  JobSpec hang;
  hang.timeout_ms = 60'000;
  hang.arms.push_back({"hang", {}});
  hang.arms.push_back({"hang", {}});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(c.submit(hang));
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server_->stats().running < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(server_->stats().running, 3u);

  stop();  // request_stop + join: shutdown reaps all three cohorts

  // The no-orphans guarantee: this process (the daemon's embedder and
  // subreaper) has no children left at all.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);

  // The canceled jobs were answered before the socket closed.
  int canceled = 0;
  for (const std::uint64_t id : ids) {
    try {
      if (c.wait(id, 2'000ms).status == JobStatus::kCanceled) ++canceled;
    } catch (const SystemError&) {
      // Connection may break before every goodbye frame is read; the
      // cohort-reaping guarantee above is the hard requirement.
    }
  }
  EXPECT_GE(canceled, 0);
}

TEST_F(ServerTest, HeapJobsUseTheWorkerArena) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.heap_pages = 16;
  start(cfg);

  Client c = Client::connect_unix(sock_);
  Bytes args;
  ByteWriter w(args);
  w.u32(8);  // dirty 8 arena pages
  JobSpec s;
  s.heap_pages = 8;
  s.arms.push_back({"heap_fill", args});
  // Twice through the same worker: the arena reset between jobs means the
  // second run sees the same zeroed pages as the first.
  for (int round = 0; round < 2; ++round) {
    const JobOutcome out = c.wait(c.submit(s), 15'000ms);
    ASSERT_EQ(out.status, JobStatus::kWon) << out.error;
    ASSERT_EQ(out.value.size(), 4u);
    std::uint32_t pages = 0;
    std::memcpy(&pages, out.value.data(), 4);
    EXPECT_EQ(pages, 8u);
  }

  // Asking for more pages than the worker arena holds is a clean error.
  JobSpec too_big;
  too_big.heap_pages = 64;
  too_big.arms.push_back({"heap_fill", args});
  const JobOutcome out = c.wait(c.submit(too_big), 15'000ms);
  EXPECT_EQ(out.status, JobStatus::kError);
}

TEST_F(ServerTest, HeapJobsOnTwoWorkersDoNotShareAnArena) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  // args: u32 pages, u32 hold ms. The arm writes its pid into that many
  // arena pages, each of which must read zero first, holds, and fails its
  // guard if any arena page then holds what it did not write. It returns
  // its worker's pid. Workers are forked after start(), so they have it.
  HandlerRegistry::global().add(
      "heap_own", [](const JobContext& ctx) -> std::optional<Bytes> {
        ByteReader r(ctx.args);
        const std::uint32_t pages = r.u32();
        const std::uint32_t hold_ms = r.u32();
        const auto me = static_cast<std::uint32_t>(::getpid());
        const std::size_t psz = ctx.heap->page_size();
        for (std::size_t p = 0; p < pages; ++p) {
          std::uint32_t* word = ctx.heap->at<std::uint32_t>(p * psz);
          if (*word != 0) return std::nullopt;
          *word = me;
        }
        ::usleep(hold_ms * 1000);
        for (std::size_t p = 0; p < ctx.heap->pages(); ++p) {
          const std::uint32_t want = p < pages ? me : 0;
          if (*ctx.heap->at<std::uint32_t>(p * psz) != want) {
            return std::nullopt;
          }
        }
        Bytes out;
        ByteWriter w(out);
        w.u32(static_cast<std::uint32_t>(::getppid()));
        return out;
      });
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.heap_pages = 16;
  start(cfg);

  auto own = [](std::uint32_t pages, std::uint32_t hold_ms) {
    Bytes args;
    ByteWriter w(args);
    w.u32(pages);
    w.u32(hold_ms);
    JobSpec s;
    s.heap_pages = 16;
    s.arms.push_back({"heap_own", args});
    return s;
  };
  auto worker_of = [](const JobOutcome& out) {
    return out.value.size() == 4 ? ByteReader(out.value).u32() : 0u;
  };
  Client c = Client::connect_unix(sock_);
  for (int round = 0; round < 2; ++round) {
    // Job A fills 4 pages and holds them while job B, on the other worker,
    // fills 8 and is absorbed. Had the workers one arena, A's arm would read
    // B's pages 4..7 through its private map, and B would not start zeroed;
    // round 2 starts from the arenas round 1 left behind.
    const std::uint64_t a = c.submit(own(4, 300));
    ::usleep(100'000);
    const JobOutcome b = c.wait(c.submit(own(8, 1)), 15'000ms);
    const JobOutcome out = c.wait(a, 15'000ms);
    ASSERT_EQ(b.status, JobStatus::kWon) << b.error;
    ASSERT_EQ(out.status, JobStatus::kWon) << out.error;
    EXPECT_NE(worker_of(out), 0u);
    EXPECT_NE(worker_of(b), 0u);
    EXPECT_NE(worker_of(out), worker_of(b));
  }
}

TEST_F(ServerTest, UnmappableArenaFailsOnlyHeapJobs) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  // An arena larger than any address space: the worker makes it on the
  // first job that asks for one, and that job, not the worker, fails.
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.heap_pages = std::size_t{1} << 36;
  start(cfg);
  Client c = Client::connect_unix(sock_);
  JobSpec heap_job = echo_job(2);
  heap_job.heap_pages = 1;
  for (int round = 0; round < 2; ++round) {
    const JobOutcome echo = c.wait(c.submit(echo_job(1)), 15'000ms);
    EXPECT_EQ(echo.status, JobStatus::kWon) << echo.error;
    const JobOutcome heap = c.wait(c.submit(heap_job), 15'000ms);
    EXPECT_EQ(heap.status, JobStatus::kError);
  }
  EXPECT_EQ(server_->stats().worker_respawns, 0u);  // no worker died
}

// One plain HTTP GET against the daemon's metrics listener; returns the full
// response (status line + headers + body) or "" on any socket failure.
std::string http_get_metrics(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)!::write(fd, req, sizeof req - 1);
  std::string resp;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof buf)) > 0)
    resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return resp;
}

/// The value of one series line (`name` up to the space) of a scrape; 0 when
/// the scrape has no such line. Histograms are process-global, so a test
/// reads them as deltas from a scrape taken at its start.
std::uint64_t series(const std::string& scrape, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t at = scrape.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(scrape.substr(at + key.size()));
}

TEST_F(ServerTest, JobLostWithItsWorkerIsCountedOnce) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  // The arm of the running job kills its worker while a second job waits
  // queued ahead in the worker's socket. The running job is lost with it
  // and replies kError once; the one queued ahead, which the worker never
  // took, goes back to the queue and runs on the replacement.
  register_gated_handlers();
  const std::string mark =
      "/tmp/altx_lost_job_" + std::to_string(::getpid()) + ".mark";
  ::unlink(mark.c_str());
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.per_client_running = 2;
  cfg.metrics_addr = "0";
  start(cfg);
  const int port = server_->metrics_port();
  ASSERT_GT(port, 0);

  Client c = Client::connect_unix(sock_);
  const std::uint64_t running = c.submit(gated_job("kill_worker", mark));
  const std::uint64_t ahead = c.submit(echo_job(2));
  // A stats frame is answered in the pass that reads it, before that pass
  // schedules; the second round trip reads what the first one's pass sent.
  c.stats();
  WireStats st = c.stats();
  ASSERT_EQ(st.running, 1u);
  ASSERT_EQ(st.queued, 1u);  // the echo job waits ahead in the worker
  touch(mark);
  const JobOutcome out = c.wait(running, 15'000ms);
  EXPECT_EQ(out.status, JobStatus::kError) << out.error;
  const JobOutcome moved = c.wait(ahead, 15'000ms);
  EXPECT_EQ(moved.status, JobStatus::kWon) << moved.error;
  EXPECT_EQ(moved.value, (Bytes{2}));
  // The replacement worker serves the next job.
  ASSERT_EQ(c.wait(c.submit(echo_job(3)), 15'000ms).status, JobStatus::kWon);
  ::unlink(mark.c_str());

  st = c.stats();
  EXPECT_EQ(st.running, 0u);
  EXPECT_EQ(st.queued, 0u);
  EXPECT_EQ(st.accepted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.accepted, st.completed + st.canceled);

  // The global completed count and the per-client ones agree.
  const std::string resp = http_get_metrics(port);
  std::uint64_t per_client = 0;
  const std::string key = "outcome=\"completed\"} ";
  for (std::size_t at = resp.find(key); at != std::string::npos;
       at = resp.find(key, at + 1)) {
    per_client += std::stoull(resp.substr(at + key.size()));
  }
  EXPECT_EQ(series(resp, "altx_jobs_completed_total"), st.completed);
  EXPECT_EQ(per_client, st.completed);
}

/// Exit status of a forked child that runs `f` (0 = true).
template <typename F>
int in_child(F f) {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(f() ? 0 : 1);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ClaimBoard, OnlyTheFirstTakerAcrossAForkGetsAClaim) {
  ClaimBoard board(2);
  const std::uint64_t a = board.offer(1);
  const std::uint64_t b = board.offer(1);  // behind a claim not yet taken
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_THROW((void)board.offer(1), UsageError);  // both words hold one
  const std::uint64_t other = board.offer(0);      // another slot's own

  // A forked process (the worker) takes `a`: the daemon cannot take it back.
  EXPECT_EQ(in_child([&] { return board.take(a); }), 0);
  EXPECT_FALSE(board.take(a));
  // The daemon takes `b` back first: the worker cannot take it.
  EXPECT_TRUE(board.take(b));
  EXPECT_EQ(in_child([&] { return board.take(b); }), 1);
  EXPECT_TRUE(board.take(other));

  // Resolved claims free their words; clear() drops untaken ones.
  (void)board.offer(1);
  (void)board.offer(1);
  board.clear(1);
  EXPECT_NE(board.offer(1), 0u);
  EXPECT_NE(board.offer(1), 0u);
}

TEST_F(ServerTest, CanceledJobQueuedAheadIsAnsweredAtOnceAndNeverRuns) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  register_gated_handlers();
  const std::string tag = std::to_string(::getpid());
  const std::string mark = "/tmp/altx_cancel_ahead_" + tag + ".mark";
  const std::string ran = "/tmp/altx_cancel_ahead_" + tag + ".ran";
  ::unlink(mark.c_str());
  ::unlink(ran.c_str());
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.per_client_running = 2;
  start(cfg);

  Client c = Client::connect_unix(sock_);
  const std::uint64_t a = c.submit(gated_job("await_mark", mark));
  const std::uint64_t b = c.submit(gated_job("touch_mark", ran));
  c.stats();  // the pass that answers this one schedules both jobs
  WireStats st = c.stats();
  ASSERT_EQ(st.running, 1u);  // A runs, B waits ahead in the worker
  ASSERT_EQ(st.queued, 1u);

  // Answered while A still runs: A cannot finish before the mark exists.
  c.cancel(b);
  EXPECT_EQ(c.wait(b, 15'000ms).status, JobStatus::kCanceled);
  st = c.stats();
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.canceled, 1u);
  EXPECT_EQ(st.running, 1u);
  EXPECT_EQ(st.queued, 0u);

  touch(mark);
  const JobOutcome out = c.wait(a, 15'000ms);
  EXPECT_EQ(out.status, JobStatus::kWon) << out.error;
  EXPECT_EQ(out.value, (Bytes{1}));

  // The same worker reads B's frame before the next job's: it skips B,
  // whose claim the daemon withdrew, and runs the next one. B never ran,
  // no result for it came, and no worker was torn down for it.
  EXPECT_EQ(c.wait(c.submit(echo_job(3)), 15'000ms).status, JobStatus::kWon);
  EXPECT_NE(::access(ran.c_str(), F_OK), 0);
  EXPECT_THROW(c.wait(b, 0ms), SystemError);
  ::unlink(mark.c_str());
  ::unlink(ran.c_str());

  st = c.stats();
  EXPECT_EQ(st.worker_respawns, 0u);
  EXPECT_EQ(st.accepted, 3u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.accepted, st.completed + st.canceled);
}

/// Size of the file at `path`, -1 when there is none.
long file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size) : -1;
}

Server* g_forked_daemon = nullptr;

TEST(ServerRace, CancelReadWithTheRepliesBeforeItRunsNothingTwice) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  // A cancel of running job A reaches the daemon in the same poll pass as
  // A's reply, while the worker already runs job B, which was queued ahead.
  // The daemon runs in a forked process so the test can stop it with
  // SIGSTOP while the worker finishes A and takes B: then the cancel and
  // both replies wait on its sockets, and the pass reads clients first.
  register_builtin_handlers(HandlerRegistry::global());
  register_gated_handlers();
  const std::string tag = std::to_string(::getpid());
  const std::string sock = "/tmp/altx_cancel_race_" + tag + ".sock";
  const std::string mark = "/tmp/altx_cancel_race_" + tag + ".mark";
  const std::string ran = "/tmp/altx_cancel_race_" + tag + ".ran";
  ::unlink(mark.c_str());
  ::unlink(ran.c_str());
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t daemon = ::fork();
  ASSERT_GE(daemon, 0);
  if (daemon == 0) {
    ::close(ready[0]);
    ServerConfig cfg;
    cfg.socket_path = sock;
    cfg.workers = 1;
    cfg.per_client_running = 2;
    Server srv(cfg);
    srv.start();
    g_forked_daemon = &srv;
    ::signal(SIGTERM, [](int) { g_forked_daemon->request_stop(); });
    const char one = 1;
    (void)!::write(ready[1], &one, 1);
    srv.run();
    ::_exit(0);
  }
  ::close(ready[1]);
  char one = 0;
  ASSERT_EQ(::read(ready[0], &one, 1), 1);  // listening
  ::close(ready[0]);

  {
    Client c = Client::connect_unix(sock);
    const std::uint64_t a = c.submit(gated_job("await_mark", mark));
    const std::uint64_t b = c.submit(gated_job("touch_mark", ran));
    c.stats();
    WireStats st = c.stats();
    ASSERT_EQ(st.running, 1u);
    ASSERT_EQ(st.queued, 1u);  // B waits ahead in the worker's socket

    ASSERT_EQ(::kill(daemon, SIGSTOP), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(daemon, &status, WUNTRACED), daemon);
    ASSERT_TRUE(WIFSTOPPED(status));
    touch(mark);  // the worker replies to A, takes B and runs it
    while (file_size(ran) < 1) ::usleep(1'000);
    c.cancel(a);
    ASSERT_EQ(::kill(daemon, SIGCONT), 0);

    // A had finished: its result stands. B was the worker's to run: it
    // ran once and is answered once, and no worker was torn down.
    const JobOutcome out_a = c.wait(a, 15'000ms);
    EXPECT_EQ(out_a.status, JobStatus::kWon) << out_a.error;
    const JobOutcome out_b = c.wait(b, 15'000ms);
    EXPECT_EQ(out_b.status, JobStatus::kWon) << out_b.error;
    EXPECT_EQ(c.wait(c.submit(echo_job(3)), 15'000ms).status, JobStatus::kWon);
    EXPECT_EQ(file_size(ran), 1);
    st = c.stats();
    EXPECT_EQ(st.worker_respawns, 0u);
    EXPECT_EQ(st.accepted, 3u);
    EXPECT_EQ(st.completed, 3u);
    EXPECT_EQ(st.canceled, 0u);
  }
  ::kill(daemon, SIGTERM);
  int status = 0;
  EXPECT_EQ(::waitpid(daemon, &status, 0), daemon);
  ::unlink(mark.c_str());
  ::unlink(ran.c_str());
  ::unlink(sock.c_str());
}

TEST_F(ServerTest, JobQueuedAheadGoesToAWorkerThatFallsIdle) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  // A job queued ahead behind a long one does not wait for it when another
  // worker falls idle: the daemon withdraws it and sends it there.
  register_gated_handlers();
  const std::string tag = std::to_string(::getpid());
  const std::string long_mark = "/tmp/altx_steal_long_" + tag + ".mark";
  const std::string short_mark = "/tmp/altx_steal_short_" + tag + ".mark";
  ::unlink(long_mark.c_str());
  ::unlink(short_mark.c_str());
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.per_client_running = 3;
  start(cfg);

  Client c = Client::connect_unix(sock_);
  // The long job goes to the first worker, the short one to the second,
  // and the echo job queued ahead behind the long one, the first worker
  // with room.
  const std::uint64_t slow = c.submit(gated_job("await_mark", long_mark));
  const std::uint64_t quick = c.submit(gated_job("await_mark", short_mark));
  const std::uint64_t behind = c.submit(echo_job(4));
  c.stats();
  WireStats st = c.stats();
  ASSERT_EQ(st.running, 2u);
  ASSERT_EQ(st.queued, 1u);

  touch(short_mark);
  EXPECT_EQ(c.wait(quick, 15'000ms).status, JobStatus::kWon);
  // The long job cannot end before its mark exists.
  const JobOutcome moved = c.wait(behind, 15'000ms);
  EXPECT_EQ(moved.status, JobStatus::kWon) << moved.error;
  EXPECT_EQ(moved.value, (Bytes{4}));
  st = c.stats();
  EXPECT_EQ(st.running, 1u);
  EXPECT_EQ(st.completed, 2u);

  touch(long_mark);
  EXPECT_EQ(c.wait(slow, 15'000ms).status, JobStatus::kWon);
  // The first worker skips the withdrawn frame and serves the next job;
  // the echo job ran once.
  EXPECT_EQ(c.wait(c.submit(echo_job(5)), 15'000ms).status, JobStatus::kWon);
  EXPECT_THROW(c.wait(behind, 0ms), SystemError);
  ::unlink(long_mark.c_str());
  ::unlink(short_mark.c_str());
  st = c.stats();
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.worker_respawns, 0u);
  EXPECT_EQ(st.accepted, st.completed + st.canceled);
}

TEST_F(ServerTest, JobsRunningNeverExceedsWorkers) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  // Six jobs in flight on two workers: each worker runs one and holds one
  // queued ahead, and the gauge counts only the jobs started.
  register_gated_handlers();
  const std::string mark =
      "/tmp/altx_running_cap_" + std::to_string(::getpid()) + ".mark";
  ::unlink(mark.c_str());
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.per_client_running = 8;
  start(cfg);

  Client c = Client::connect_unix(sock_);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(c.submit(gated_job("await_mark", mark)));
  }
  c.stats();
  WireStats st = c.stats();
  EXPECT_EQ(st.running, 2u);
  EXPECT_EQ(st.queued, 4u);  // two queued ahead, two in the client's queue
  EXPECT_EQ(st.workers_busy, 2u);
  EXPECT_EQ(st.workers_idle, 0u);

  touch(mark);
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (st.completed < ids.size()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    st = c.stats();
    EXPECT_LE(st.running, 2u);
  }
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(c.wait(id, 15'000ms).status, JobStatus::kWon);
  }
  ::unlink(mark.c_str());
  st = c.stats();
  EXPECT_EQ(st.running, 0u);
  EXPECT_EQ(st.queued, 0u);
  EXPECT_EQ(st.completed, 6u);
}

TEST_F(ServerTest, WorkerDeathTakesItsArmsWithIt) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  // The arm kills its worker, then outlives it long enough for the daemon
  // to tear the worker down, then leaves a mark. The teardown must take the
  // arm with its worker: the mark must never appear.
  const std::string mark =
      "/tmp/altx_orphan_arm_" + std::to_string(::getpid()) + ".mark";
  ::unlink(mark.c_str());
  HandlerRegistry::global().add(
      "kill_worker_then_mark",
      [](const JobContext& ctx) -> std::optional<Bytes> {
        ::kill(::getppid(), SIGKILL);
        ::usleep(1'000'000);
        const std::string path(ctx.args.begin(), ctx.args.end());
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f != nullptr) std::fclose(f);
        return std::nullopt;
      });
  ServerConfig cfg;
  cfg.workers = 1;
  start(cfg);

  Client c = Client::connect_unix(sock_);
  JobSpec job;
  job.arms.push_back(
      {"kill_worker_then_mark", Bytes(mark.begin(), mark.end())});
  const JobOutcome out = c.wait(c.submit(job), 15'000ms);
  EXPECT_EQ(out.status, JobStatus::kError) << out.error;
  std::this_thread::sleep_for(2'000ms);  // twice the arm's sleep
  EXPECT_NE(::access(mark.c_str(), F_OK), 0)
      << "an arm of a dead worker ran on after its teardown";
  ::unlink(mark.c_str());
}

TEST_F(ServerTest, MetricsEndpointServesPrometheusExposition) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.metrics_addr = "0";  // ephemeral port, recovered via metrics_port()
  start(cfg);
  const int port = server_->metrics_port();
  ASSERT_GT(port, 0);
  const std::string start_scrape = http_get_metrics(port);
  ASSERT_FALSE(start_scrape.empty());

  Client c = Client::connect_unix(sock_);
  for (int i = 0; i < 3; ++i) {
    const JobOutcome out = c.wait(c.submit(echo_job(7)), 10'000ms);
    ASSERT_EQ(out.status, JobStatus::kWon);
  }
  const WireStats stats = c.stats();

  const std::string resp = http_get_metrics(port);
  ASSERT_FALSE(resp.empty());
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << resp;
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);

  // Server counters/gauges derive from the same make_stats() the kStats
  // frame reads, so the two surfaces agree on what the daemon has done.
  const std::string want_accepted =
      "altx_jobs_accepted_total " + std::to_string(stats.accepted) + "\n";
  EXPECT_NE(resp.find(want_accepted), std::string::npos) << resp;
  EXPECT_NE(resp.find("altx_jobs_completed_total 3\n"), std::string::npos);
  EXPECT_NE(resp.find("altx_queue_depth 0\n"), std::string::npos);
  EXPECT_NE(resp.find("altx_zygote_pool_size"), std::string::npos);

  // Per-client labeled counters survive the jobs that produced them.
  EXPECT_NE(resp.find("altx_client_jobs_total{client="), std::string::npos);
  EXPECT_NE(resp.find("outcome=\"completed\"} 3"), std::string::npos);

  // The queue-wait histogram is exposed with cumulative buckets: three
  // completed jobs means three samples.
  for (const char* name : {"altx_srv_queue_wait_ns_count",
                           "altx_srv_queue_wait_ns_bucket{le=\"+Inf\"}"}) {
    EXPECT_EQ(series(resp, name) - series(start_scrape, name), 3u) << name;
  }

  // Non-GET requests are refused, and the refusal doesn't wedge the poll
  // loop: a follow-up scrape still works.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    const char req[] = "POST /metrics HTTP/1.0\r\n\r\n";
    (void)!::write(fd, req, sizeof req - 1);
    std::string resp2;
    char buf[1024];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof buf)) > 0)
      resp2.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    EXPECT_EQ(resp2.rfind("HTTP/1.0 405 ", 0), 0u) << resp2;
  }
  const std::string again = http_get_metrics(port);
  EXPECT_NE(again.find("altx_jobs_completed_total"), std::string::npos);
}

TEST_F(ServerTest, MetricsEndpointScrapesTrueOnDarkDaemon) {
  // Even with obs disabled (no ring), the wire-stats-backed exposition and
  // the srv_* registry recordings must still be live.
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.metrics_addr = "127.0.0.1:0";
  start(cfg);
  const int port = server_->metrics_port();
  ASSERT_GT(port, 0);
  const std::string start_scrape = http_get_metrics(port);
  ASSERT_FALSE(start_scrape.empty());

  Client c = Client::connect_unix(sock_);
  const JobOutcome out = c.wait(c.submit(echo_job(1)), 10'000ms);
  ASSERT_EQ(out.status, JobStatus::kWon);

  const std::string resp = http_get_metrics(port);
  EXPECT_NE(resp.find("altx_jobs_completed_total 1\n"), std::string::npos)
      << resp;
  EXPECT_EQ(series(resp, "altx_srv_exec_ns_count") -
                series(start_scrape, "altx_srv_exec_ns_count"),
            1u);
}

TEST_F(ServerTest, EnvPredictionPlansJobsThatCarryASiteId) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/512);
  // Workers are forked from this process and inherit its reading of
  // ALTX_PRED, which is taken once per process and then holds for every
  // later race, so this runs only as the one test of its process, as under
  // ctest.
  if (::testing::UnitTest::GetInstance()->test_to_run_count() != 1) {
    GTEST_SKIP() << "needs a process of its own";
  }
  ::setenv("ALTX_PRED", "1", 1);
  ASSERT_TRUE(posix::SpeculationPlanner::env_enabled());
  obs::enable_for_test(1 << 14);
  ServerConfig cfg;
  cfg.workers = 1;
  start(cfg);

  Client c = Client::connect_unix(sock_);
  const std::uint64_t planned = 0x0123456789abcdefULL;
  const std::uint64_t unplanned = 0x0fedcba987654321ULL;
  JobSpec with_site = echo_job(1);
  with_site.site_id = 0x5173;
  const std::uint64_t id1 = c.submit(with_site, planned, /*span_id=*/1);
  ASSERT_EQ(c.wait(id1, 15'000ms).status, JobStatus::kWon);
  const std::uint64_t id2 = c.submit(echo_job(2), unplanned, /*span_id=*/2);
  ASSERT_EQ(c.wait(id2, 15'000ms).status, JobStatus::kWon);

  int plans_planned = 0;
  int plans_unplanned = 0;
  for (const obs::Record& r : obs::snapshot()) {
    if (r.kind != obs::EventKind::kPredPlan) continue;
    if (r.trace_id == planned) ++plans_planned;
    if (r.trace_id == unplanned) ++plans_unplanned;
  }
  EXPECT_EQ(plans_planned, 1) << "the job with a site_id was not planned once";
  EXPECT_EQ(plans_unplanned, 0) << "a job without a site_id was planned";
  stop();
  obs::reset();
  ::unsetenv("ALTX_PRED");
}

}  // namespace
