#include "server/worker.hpp"

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "posix/alt_heap.hpp"
#include "posix/race.hpp"
#include "posix/reap.hpp"
#include "server/protocol.hpp"
#include "server/registry.hpp"

namespace altx::server {

namespace {

/// SCM_RIGHTS plumbing: the daemon hands the template one end of each
/// worker's job socketpair, because an fd created after the zygote fork
/// exists in the daemon only — descriptor passing is the one way to give
/// the template something it was not born holding.
void send_fd(int sock, int fd) {
  char cmd = 'S';
  iovec iov{&cmd, 1};
  union {
    cmsghdr align;
    char buf[CMSG_SPACE(sizeof(int))];
  } u{};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = u.buf;
  msg.msg_controllen = sizeof u.buf;
  cmsghdr* c = CMSG_FIRSTHDR(&msg);
  c->cmsg_level = SOL_SOCKET;
  c->cmsg_type = SCM_RIGHTS;
  c->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(c), &fd, sizeof(int));
  ssize_t n;
  do {
    n = ::sendmsg(sock, &msg, 0);
  } while (n < 0 && errno == EINTR);
  if (n != 1) throw_errno("zygote: sendmsg(job fd)");
}

int recv_fd(int sock) {
  char cmd = 0;
  iovec iov{&cmd, 1};
  union {
    cmsghdr align;
    char buf[CMSG_SPACE(sizeof(int))];
  } u{};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = u.buf;
  msg.msg_controllen = sizeof u.buf;
  ssize_t n;
  do {
    n = ::recvmsg(sock, &msg, 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return -1;  // EOF: the daemon is gone — template exits
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
       c = CMSG_NXTHDR(&msg, c)) {
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_RIGHTS) {
      int fd = -1;
      std::memcpy(&fd, CMSG_DATA(c), sizeof(int));
      return fd;
    }
  }
  return -1;
}

/// A worker's end: the arms its jobs' verdicts eliminated are reaped first,
/// so each one's fate, bill and token are delivered.
[[noreturn]] void retire(int code) {
  posix::reap_eliminated();
  ::_exit(code);
}

JobOutcome run_job(const JobSpec& spec, const ZygoteConfig& cfg,
                   posix::AltHeap* heap) {
  JobOutcome out;
  out.queue_ns = spec.queue_ns;

  const HandlerRegistry& registry = HandlerRegistry::global();
  std::vector<const Handler*> handlers;
  handlers.reserve(spec.arms.size());
  int resolved = 0;
  for (const JobArm& arm : spec.arms) {
    const Handler* h = registry.find(arm.handler);
    handlers.push_back(h);
    if (h != nullptr) ++resolved;
  }
  if (resolved == 0) {
    out.status = JobStatus::kError;
    out.error = "no arm names a registered handler";
    return out;
  }

  posix::AltHeap* job_heap = nullptr;
  if (spec.heap_pages > 0) {
    if (heap == nullptr || spec.heap_pages > heap->pages()) {
      out.status = JobStatus::kError;
      out.error = "job wants " + std::to_string(spec.heap_pages) +
                  " arena pages, worker has " +
                  std::to_string(heap == nullptr ? 0 : heap->pages());
      return out;
    }
    job_heap = heap;
  }

  std::vector<posix::AlternativeFn<Bytes>> alts;
  alts.reserve(spec.arms.size());
  for (std::size_t i = 0; i < spec.arms.size(); ++i) {
    const Handler* h = handlers[i];
    const Bytes& args = spec.arms[i].args;
    const int arm_index = static_cast<int>(i) + 1;
    alts.push_back([h, &args, job_heap, arm_index]() -> std::optional<Bytes> {
      if (h == nullptr) return std::nullopt;  // unknown handler = failed guard
      JobContext ctx{args, job_heap, arm_index};
      return (*h)(ctx);
    });
  }

  posix::RaceReport report;
  posix::RaceOptions o;
  o.timeout = std::chrono::milliseconds(spec.timeout_ms);
  o.heap = job_heap;
  o.governor = cfg.governor;
  o.site_id = spec.site_id;  // ALTX_PRED=1 plans the job here
  o.report = &report;

  const std::uint64_t t0 = obs::now_ns();
  std::optional<posix::RaceResult<Bytes>> r;
  try {
    r = posix::race<Bytes>(alts, o);
  } catch (const std::exception& e) {
    out.status = JobStatus::kError;
    out.error = e.what();
    return out;
  }
  out.exec_ns = obs::now_ns() - t0;

  // Attribute the daemon-side queue wait to the race the job became: a
  // self-contained span pair (ends carry their duration), emitted after
  // the fact because the race id does not exist until the block runs.
  if (spec.queue_ns > 0 && report.race_id != 0 && obs::enabled()) {
    obs::emit(obs::EventKind::kPhaseBegin, report.race_id, 0,
              static_cast<std::uint64_t>(obs::Phase::kSrvQueue));
    obs::emit(obs::EventKind::kPhaseEnd, report.race_id, 0,
              static_cast<std::uint64_t>(obs::Phase::kSrvQueue),
              spec.queue_ns);
  }

  // Reset the arena for the next job — the warm-worker equivalent of a
  // fresh fork's zero pages.
  if (job_heap != nullptr) job_heap->clear();

  if (r.has_value()) {
    out.status = JobStatus::kWon;
    out.winner = static_cast<std::uint32_t>(r->winner);
    out.value = std::move(r->value);
    return out;
  }
  out.status = report.verdict == posix::WaitVerdict::kTimeout
                   ? JobStatus::kTimeout
                   : JobStatus::kAllFailed;
  // A block that did not win says why: how many arms ran, and their fates.
  char why[192];
  std::snprintf(why, sizeof why,
                "forked %d: committed %d, aborted %d, too_late %d, crashed %d, "
                "hung %d, eliminated %d, over_budget %d, predicted_losers %d",
                report.forked, report.committed, report.aborted,
                report.too_late, report.crashed, report.hung,
                report.eliminated, report.over_budget,
                report.predicted_losers);
  out.error = why;
  return out;
}

/// The worker's end of its job socket. Arms forked from the worker close
/// their copy, so the daemon reads EOF the moment the worker dies, however
/// long its arms live on.
int g_job_fd = -1;

[[noreturn]] void worker_main(int job_fd, const ZygoteConfig& cfg) {
  // The template ignores SIGCHLD so exited siblings self-reap; AltGroup
  // needs real waitpid semantics back before it can reap arms.
  ::signal(SIGCHLD, SIG_DFL);
  ::signal(SIGPIPE, SIG_IGN);
  // Own process group: the daemon tears down the whole cohort — worker
  // plus any live arms — with one kill(-pid).
  (void)::setpgid(0, 0);
  g_job_fd = job_fd;
  ::pthread_atfork(nullptr, nullptr, [] {
    if (g_job_fd >= 0) ::close(g_job_fd);
    g_job_fd = -1;
  });
  // The worker's own arena: an arena made in the template would be one
  // memfd that every worker maps.
  const std::unique_ptr<posix::AltHeap> heap =
      cfg.heap_pages > 0 ? std::make_unique<posix::AltHeap>(cfg.heap_pages)
                         : nullptr;

  FrameDecoder dec;
  std::uint8_t buf[64 << 10];
  for (;;) {
    const ssize_t n = ::read(job_fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      retire(0);
    }
    if (n == 0) retire(0);  // daemon closed the job fd: clean retirement
    dec.feed(buf, static_cast<std::size_t>(n));
    try {
      while (std::optional<Frame> f = dec.next()) {
        if (f->type == FrameType::kPing) {
          Frame pong_frame;
          pong_frame.type = FrameType::kPong;
          pong_frame.job_id = f->job_id;
          const Bytes pong = encode_frame(pong_frame);
          posix::write_all(job_fd, pong.data(), pong.size());
          continue;
        }
        if (f->type != FrameType::kSubmit) retire(2);
        // Adopt the client's trace id for the job's whole lifetime in this
        // process: the race's own records, the after-the-fact srv_queue
        // span, and — because the ambient id is inherited through fork —
        // every record the speculative arms emit, including the last gasp
        // of a loser that dies by SIGKILL. Cleared after the reply so a
        // recycled worker cannot leak one job's id into the next.
        obs::set_current_trace(f->trace_id);
        JobOutcome out;
        try {
          out = run_job(decode_job(f->payload), cfg, heap.get());
        } catch (const std::exception& e) {
          out.status = JobStatus::kError;
          out.error = e.what();
        }
        Frame reply_frame;
        reply_frame.type = FrameType::kResult;
        reply_frame.job_id = f->job_id;
        reply_frame.trace_id = f->trace_id;
        reply_frame.span_id = f->span_id;
        reply_frame.payload = encode_outcome(out);
        const Bytes reply = encode_frame(reply_frame);
        obs::set_current_trace(0);
        posix::write_all(job_fd, reply.data(), reply.size());
        // The reply is out; the job's eliminated arms are reaped now, off
        // its latency, and their tokens go back before the next job.
        posix::reap_eliminated();
      }
    } catch (const ProtocolError&) {
      retire(2);  // the daemon never sends garbage; treat as fatal
    } catch (const std::exception&) {
      retire(2);
    }
  }
}

[[noreturn]] void zygote_main(int control_fd, ZygoteConfig cfg) {
  // Exited workers self-reap: the template never waits on them, and a
  // zombie pile-up in the template would defeat its whole quiescent point.
  ::signal(SIGCHLD, SIG_IGN);
  ::signal(SIGPIPE, SIG_IGN);

  for (;;) {
    const int job_fd = recv_fd(control_fd);
    if (job_fd < 0) ::_exit(0);  // daemon hung up
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(control_fd);
      worker_main(job_fd, cfg);
    }
    ::close(job_fd);
    std::int64_t reply = pid > 0 ? pid : -1;
    posix::write_all(control_fd, &reply, sizeof reply);
  }
}

}  // namespace

Zygote Zygote::spawn(const ZygoteConfig& cfg) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw_errno("zygote: socketpair(control)");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw_errno("zygote: fork(template)");
  }
  if (pid == 0) {
    ::close(sv[0]);
    zygote_main(sv[1], cfg);
  }
  ::close(sv[1]);
  Zygote z;
  z.control_ = posix::Fd(sv[0]);
  z.pid_ = pid;
  return z;
}

Zygote::Zygote(Zygote&& other) noexcept
    : control_(std::move(other.control_)), pid_(other.pid_) {
  other.pid_ = -1;
}

Zygote& Zygote::operator=(Zygote&& other) noexcept {
  if (this != &other) {
    shutdown_nothrow();
    control_ = std::move(other.control_);
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

Zygote::~Zygote() { shutdown_nothrow(); }

void Zygote::shutdown_nothrow() noexcept {
  if (pid_ <= 0) {
    control_.reset();
    return;
  }
  try {
    shutdown();
  } catch (...) {
    pid_ = -1;
  }
}

void Zygote::shutdown() {
  if (pid_ <= 0) return;
  control_.reset();  // EOF: the template's recv_fd returns -1 and it exits
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &status, 0);
  } while (r < 0 && errno == EINTR);
  pid_ = -1;
}

Zygote::WorkerHandle Zygote::spawn_worker() {
  ALTX_REQUIRE(control_.valid(), "zygote: not running");
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw_errno("zygote: socketpair(worker)");
  }
  posix::Fd ours(sv[0]);
  posix::Fd theirs(sv[1]);
  send_fd(control_.get(), theirs.get());
  theirs.reset();
  std::int64_t pid = 0;
  if (!posix::read_exact(control_.get(), &pid, sizeof pid) || pid <= 0) {
    throw SystemError("zygote: template failed to deliver a worker", EPIPE);
  }
  WorkerHandle h;
  h.pid = static_cast<pid_t>(pid);
  h.job_fd = std::move(ours);
  return h;
}

}  // namespace altx::server
