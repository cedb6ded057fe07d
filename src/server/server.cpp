#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "posix/fd.hpp"
#include "posix/governor.hpp"
#include "server/worker.hpp"

namespace altx::server {

namespace {

/// How long a clean retirement waits for an idle worker to exit on EOF
/// before it is torn down by force.
constexpr std::chrono::milliseconds kRetireWait{50};

/// Jobs a worker holds at once: the one it runs, and one queued ahead in
/// its socket so that it starts the next the moment it replies.
constexpr std::size_t kJobsPerWorker = 2;

void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("altxd: fcntl(O_NONBLOCK)");
  }
}

/// True once `pid` no longer exists. Workers are the zygote's children and
/// the zygote ignores SIGCHLD, so the kernel auto-reaps them — no zombie
/// keeps the pid probe-able after death.
bool pid_gone(pid_t pid) {
  return ::kill(pid, 0) != 0 && errno == ESRCH;
}

bool wait_pid_gone(pid_t pid, std::chrono::milliseconds grace) {
  const auto deadline = std::chrono::steady_clock::now() + grace;
  while (!pid_gone(pid)) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    timespec ts{0, 1'000'000};  // 1 ms
    ::nanosleep(&ts, nullptr);
  }
  return true;
}

/// A nonblocking framed connection: incoming bytes feed the decoder,
/// outgoing frames buffer until the fd drains (POLLOUT).
struct Conn {
  posix::Fd fd;
  FrameDecoder dec;
  Bytes out;
  std::size_t out_off = 0;
  bool dead = false;

  [[nodiscard]] bool wants_write() const { return out_off < out.size(); }

  void queue(const Frame& frame) {
    if (dead) return;
    const Bytes raw = encode_frame(frame);
    out.insert(out.end(), raw.begin(), raw.end());
    flush();
  }

  void flush() {
    while (out_off < out.size()) {
      const ssize_t n =
          ::write(fd.get(), out.data() + out_off, out.size() - out_off);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      dead = true;  // EPIPE and friends: the poll loop sweeps us
      return;
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
  }
};

Frame make_frame(FrameType type, std::uint64_t job_id, Bytes payload,
                 std::uint64_t trace_id = 0, std::uint64_t span_id = 0) {
  Frame f;
  f.type = type;
  f.job_id = job_id;
  f.trace_id = trace_id;
  f.span_id = span_id;
  f.payload = std::move(payload);
  return f;
}

struct QueuedJob {
  std::uint64_t job_id = 0;
  JobSpec spec;
  std::uint64_t submit_ns = 0;
  std::uint64_t trace_id = 0;  // client-minted correlation id (frame header)
  std::uint64_t span_id = 0;
};

/// One HTTP/1.0 metrics-scrape connection: read whatever request arrives,
/// answer one exposition document, flush, close. The daemon is not a web
/// server — no keep-alive, no routing beyond "any GET gets the metrics".
struct HttpConn {
  posix::Fd fd;
  std::string in;
  std::string out;
  std::size_t out_off = 0;
  bool responded = false;
  bool dead = false;

  [[nodiscard]] bool wants_write() const { return out_off < out.size(); }

  void flush() {
    while (out_off < out.size()) {
      const ssize_t n =
          ::write(fd.get(), out.data() + out_off, out.size() - out_off);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      dead = true;
      return;
    }
    if (responded && out_off == out.size()) dead = true;  // done: close
  }
};

/// Per-client lifetime job counters for the exposition endpoint. Kept in a
/// map that outlives the connection — a scraper polling every few seconds
/// must still see the totals of a client that finished in between.
struct ClientCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t denied = 0;
  std::uint64_t canceled = 0;
};

struct ClientState {
  std::uint64_t id = 0;
  bool tcp = false;
  Conn conn;
  int assigned = 0;  // jobs on workers, running or queued ahead
  std::deque<QueuedJob> queue;
};

/// A job sent to a worker. Kept whole, so a job sent ahead that the daemon
/// withdraws can go to another worker or back to its client's queue.
struct Dispatched {
  std::uint64_t client_id = 0;
  QueuedJob job;  // job.spec.claim: nonzero when it was sent ahead
};

struct WorkerState {
  pid_t pid = -1;
  std::size_t slot = 0;  // its word on the claim board
  Conn conn;
  /// In the order the worker runs them: the front one is running, a second
  /// is queued ahead. The worker is idle when this is empty.
  std::deque<Dispatched> jobs;
};

}  // namespace

struct Server::Impl {
  ServerConfig cfg;

  posix::Fd listen_unix;
  posix::Fd listen_tcp;
  posix::Fd listen_metrics;
  int bound_tcp_port = 0;
  int bound_metrics_port = 0;
  posix::Fd stop_fd;
  std::vector<std::unique_ptr<HttpConn>> http_conns;
  std::map<std::uint64_t, ClientCounters> client_counters;
  std::atomic<int> stop_fd_raw{-1};  // for the signal-safe request_stop

  std::unique_ptr<posix::SpeculationGovernor> owned_gov;
  posix::SpeculationGovernor* gov = nullptr;
  std::unique_ptr<ClaimBoard> claims;  // one slot per worker
  std::optional<Zygote> zygote;

  std::map<std::uint64_t, std::unique_ptr<ClientState>> clients;
  std::vector<std::unique_ptr<WorkerState>> workers;
  std::uint64_t next_client_id = 1;
  std::uint64_t rr_last = 0;  // last client id served, for fair draining
  bool started = false;
  bool stopping = false;

  // Lifetime counters and live gauges; atomics because stats() may be read
  // from another thread (tests poll it while run() owns the loop).
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> denied{0};
  std::atomic<std::uint64_t> canceled{0};
  std::atomic<std::uint64_t> worker_spawns{0};
  std::atomic<std::uint64_t> worker_respawns{0};
  std::atomic<std::uint64_t> inflight{0};
  std::atomic<std::uint64_t> inflight_hw{0};
  std::atomic<std::uint32_t> queued_g{0};
  std::atomic<std::uint32_t> running_g{0};
  std::atomic<std::uint32_t> clients_g{0};
  std::atomic<std::uint32_t> workers_g{0};

  // ---- lifecycle -------------------------------------------------------

  void bind_unix() {
    ALTX_REQUIRE(!cfg.socket_path.empty(), "altxd: socket_path is required");
    ALTX_REQUIRE(cfg.socket_path.size() < sizeof(sockaddr_un{}.sun_path),
                 "altxd: socket path too long");
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("altxd: socket(AF_UNIX)");
    listen_unix = posix::Fd(fd);
    ::unlink(cfg.socket_path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw_errno("altxd: bind(" + cfg.socket_path + ")");
    }
    if (::listen(fd, 64) != 0) throw_errno("altxd: listen(unix)");
    set_nonblock(fd);
  }

  void bind_tcp() {
    if (cfg.tcp_port == 0) return;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("altxd: socket(AF_INET)");
    listen_tcp = posix::Fd(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
    addr.sin_port =
        ::htons(cfg.tcp_port > 0 ? static_cast<std::uint16_t>(cfg.tcp_port)
                                 : 0);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw_errno("altxd: bind(tcp)");
    }
    if (::listen(fd, 64) != 0) throw_errno("altxd: listen(tcp)");
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      throw_errno("altxd: getsockname");
    }
    bound_tcp_port = ::ntohs(addr.sin_port);
    set_nonblock(fd);
  }

  void bind_metrics() {
    if (cfg.metrics_addr.empty()) return;
    // "PORT" or "HOST:PORT"; host defaults to loopback — the exposition
    // carries operational detail and has no auth, so binding wide must be
    // an explicit choice.
    std::string host = "127.0.0.1";
    std::string port_str = cfg.metrics_addr;
    const auto colon = cfg.metrics_addr.rfind(':');
    if (colon != std::string::npos) {
      if (colon > 0) host = cfg.metrics_addr.substr(0, colon);
      port_str = cfg.metrics_addr.substr(colon + 1);
    }
    const int port = std::atoi(port_str.c_str());
    ALTX_REQUIRE(port >= 0 && port <= 65535 &&
                     (!port_str.empty() && port_str != "0") == (port != 0),
                 "altxd: bad metrics_addr port");
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("altxd: socket(metrics)");
    listen_metrics = posix::Fd(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    if (host == "0.0.0.0") {
      addr.sin_addr.s_addr = ::htonl(INADDR_ANY);
    } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      throw SystemError("altxd: bad metrics_addr host " + host, EINVAL);
    }
    addr.sin_port = ::htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw_errno("altxd: bind(metrics " + cfg.metrics_addr + ")");
    }
    if (::listen(fd, 16) != 0) throw_errno("altxd: listen(metrics)");
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      throw_errno("altxd: getsockname(metrics)");
    }
    bound_metrics_port = ::ntohs(addr.sin_port);
    set_nonblock(fd);
  }

  /// The exposition document: server counters/gauges (the same atomics
  /// kStatsReply serializes, so the two surfaces can never disagree),
  /// per-client labeled job counters, and the registry's histograms as
  /// cumulative buckets.
  std::string render_prometheus() const {
    const WireStats s = make_stats();
    std::string out;
    char buf[192];
    const auto counter = [&](const char* name, const char* help,
                             std::uint64_t v) {
      std::snprintf(buf, sizeof buf,
                    "# HELP altx_%s %s\n# TYPE altx_%s counter\naltx_%s %llu\n",
                    name, help, name, name,
                    static_cast<unsigned long long>(v));
      out += buf;
    };
    const auto gauge = [&](const char* name, const char* help,
                           std::uint64_t v) {
      std::snprintf(buf, sizeof buf,
                    "# HELP altx_%s %s\n# TYPE altx_%s gauge\naltx_%s %llu\n",
                    name, help, name, name,
                    static_cast<unsigned long long>(v));
      out += buf;
    };
    counter("jobs_accepted_total", "submits admitted to a queue", s.accepted);
    counter("jobs_completed_total", "results streamed back", s.completed);
    counter("jobs_denied_total", "RETRY-AFTER denials", s.denied);
    counter("jobs_canceled_total", "cancels and disconnect teardowns",
            s.canceled);
    counter("worker_spawns_total", "workers forked from the zygote",
            s.worker_spawns);
    counter("worker_respawns_total", "replacements after forced teardown",
            s.worker_respawns);
    counter("gov_tokens_reclaimed_total", "governor reconcile total",
            s.tokens_reclaimed);
    gauge("queue_depth", "jobs queued across all clients", s.queued);
    gauge("jobs_running", "jobs currently racing in workers", s.running);
    gauge("jobs_inflight_hw", "submitted-not-replied high water",
          s.inflight_hw);
    gauge("clients_connected", "live client connections", s.clients);
    gauge("zygote_pool_size", "workers in the pool",
          static_cast<std::uint64_t>(s.workers_idle) + s.workers_busy);
    gauge("workers_idle", "pool workers awaiting a job", s.workers_idle);
    gauge("workers_busy", "pool workers racing a job", s.workers_busy);
    out +=
        "# HELP altx_client_jobs_total per-client lifetime job counts\n"
        "# TYPE altx_client_jobs_total counter\n";
    for (const auto& [id, cc] : client_counters) {
      std::snprintf(buf, sizeof buf,
                    "altx_client_jobs_total{client=\"%llu\","
                    "outcome=\"submitted\"} %llu\n",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(cc.submitted));
      out += buf;
      std::snprintf(buf, sizeof buf,
                    "altx_client_jobs_total{client=\"%llu\","
                    "outcome=\"completed\"} %llu\n",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(cc.completed));
      out += buf;
      std::snprintf(buf, sizeof buf,
                    "altx_client_jobs_total{client=\"%llu\","
                    "outcome=\"denied\"} %llu\n",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(cc.denied));
      out += buf;
      std::snprintf(buf, sizeof buf,
                    "altx_client_jobs_total{client=\"%llu\","
                    "outcome=\"canceled\"} %llu\n",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(cc.canceled));
      out += buf;
    }
    out += obs::MetricsRegistry::global().to_prometheus();
    return out;
  }

  void accept_metrics() {
    for (;;) {
      const int fd = ::accept4(listen_metrics.get(), nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if (http_conns.size() >= 32) {  // scrapers, not traffic: a tiny cap
        ::close(fd);
        continue;
      }
      auto h = std::make_unique<HttpConn>();
      h->fd = posix::Fd(fd);
      http_conns.push_back(std::move(h));
    }
  }

  void read_http(HttpConn& h) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(h.fd.get(), buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        h.dead = true;
        return;
      }
      if (n == 0) {
        if (!h.responded) h.dead = true;
        return;
      }
      h.in.append(buf, static_cast<std::size_t>(n));
      if (h.in.size() > (64u << 10)) {  // nobody's GET is this long
        h.dead = true;
        return;
      }
      if (n < static_cast<ssize_t>(sizeof buf)) break;
    }
    if (h.responded || h.in.find("\r\n\r\n") == std::string::npos) return;
    const bool ok = h.in.rfind("GET ", 0) == 0;
    const std::string body = ok ? render_prometheus() : std::string();
    char head[160];
    std::snprintf(head, sizeof head,
                  "HTTP/1.0 %s\r\n"
                  "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                  "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                  ok ? "200 OK" : "405 Method Not Allowed", body.size());
    h.out = head;
    h.out += body;
    h.responded = true;
    h.flush();
  }

  void add_worker(bool respawn) {
    const std::uint64_t t0 = obs::now_ns();
    Zygote::WorkerHandle h = zygote->spawn_worker();
    set_nonblock(h.job_fd.get());
    auto w = std::make_unique<WorkerState>();
    w->pid = h.pid;
    // The lowest slot no live worker holds: the pool never exceeds
    // cfg.workers, the board's size.
    while (std::any_of(workers.begin(), workers.end(),
                       [&](const auto& o) { return o->slot == w->slot; })) {
      ++w->slot;
    }
    w->conn.fd = std::move(h.job_fd);
    const std::uint64_t spawn_ns = obs::now_ns() - t0;
    obs::emit(obs::EventKind::kSrvWorkerSpawn, 0, 0,
              static_cast<std::uint64_t>(w->pid), spawn_ns, respawn ? 1 : 0);
    // Unconditional: the metrics endpoint must read true even when the
    // trace ring is dark (registry writes are cheap relaxed atomics).
    obs::MetricsRegistry::global()
        .histogram("srv_worker_spawn_ns")
        .record(spawn_ns);
    if (respawn) {
      worker_respawns.fetch_add(1);
    }
    worker_spawns.fetch_add(1);
    workers.push_back(std::move(w));
    workers_g.store(static_cast<std::uint32_t>(workers.size()));
  }

  // ---- bookkeeping -----------------------------------------------------

  void reap_orphans() {
    // As a child subreaper we inherit arms orphaned by a killed worker;
    // drain whatever has exited. May also reap the zygote if it died —
    // Zygote::shutdown tolerates that.
    int status = 0;
    while (::waitpid(-1, &status, WNOHANG) > 0) {
    }
  }

  void note_submitted() {
    accepted.fetch_add(1);
    std::uint64_t cur = inflight.fetch_add(1) + 1;
    std::uint64_t hw = inflight_hw.load();
    while (cur > hw && !inflight_hw.compare_exchange_weak(hw, cur)) {
    }
  }

  void note_replied() {
    inflight.fetch_sub(1);
  }

  ClientState* find_client(std::uint64_t id) {
    const auto it = clients.find(id);
    return it == clients.end() ? nullptr : it->second.get();
  }

  /// The worker holding a client's job not yet answered.
  WorkerState* find_dispatched(std::uint64_t client_id, std::uint64_t job_id) {
    for (auto& w : workers) {
      for (const Dispatched& d : w->jobs) {
        if (d.client_id == client_id && d.job.job_id == job_id) return w.get();
      }
    }
    return nullptr;
  }

  /// Takes job k of `w`, about to be answered, off the gauges — running
  /// when it is the front one, queued when it waits ahead — and off its
  /// client's count.
  void settle(const WorkerState& w, std::size_t k) {
    (k == 0 ? running_g : queued_g).fetch_sub(1);
    if (ClientState* c = find_client(w.jobs[k].client_id)) c->assigned -= 1;
  }

  /// Makes the daemon's view of `w` exact before it acts on it. A job
  /// queued ahead is withdrawn — it can then never start — and returned,
  /// off its client's count but still counted as queued. If the worker has
  /// taken it already, it wrote its reply to the job before first, and that
  /// reply is read now. Either way `w` then holds the one job it runs, if
  /// any.
  std::optional<Dispatched> take_back(WorkerState& w) {
    if (w.jobs.size() < kJobsPerWorker) return std::nullopt;
    if (!claims->take(w.jobs.back().job.spec.claim)) {
      read_worker(w);
      return std::nullopt;
    }
    Dispatched d = std::move(w.jobs.back());
    w.jobs.pop_back();
    if (ClientState* c = find_client(d.client_id)) c->assigned -= 1;
    return d;
  }

  /// A job taken back goes to the head of its client's queue: it never
  /// started, and was submitted before anything queued there.
  void requeue(Dispatched d) {
    if (ClientState* c = find_client(d.client_id)) {
      c->queue.push_front(std::move(d.job));
    }
  }

  // ---- worker teardown -------------------------------------------------

  /// Takes one worker out of the pool. forced = SIGKILL the whole cohort
  /// (worker plus live arms, by process group) at once, whether or not the
  /// worker is still there; !forced = close the job fd and let it retire
  /// after EOF, forcing it after kRetireWait. Either way the governor
  /// ledger is reconciled so a killed cohort cannot leak tokens. A job the
  /// worker still holds is lost with it: its owner is answered kError.
  void teardown_worker(std::size_t idx, bool forced) {
    std::unique_ptr<WorkerState> w = std::move(workers[idx]);
    workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(idx));
    for (std::size_t k = 0; k < w->jobs.size(); ++k) {
      const Dispatched& d = w->jobs[k];
      settle(*w, k);
      completed.fetch_add(1);
      client_counters[d.client_id].completed += 1;
      note_replied();
      if (ClientState* c = find_client(d.client_id)) {
        JobOutcome out;
        out.status = JobStatus::kError;
        out.error = "worker died while running the job";
        reply_outcome(*c, d.job.job_id, out, d.job.trace_id, d.job.span_id);
      }
    }
    workers_g.store(static_cast<std::uint32_t>(workers.size()));
    const pid_t pid = w->pid;
    w->conn.fd.reset();
    bool was_forced = forced;
    if (!forced) {
      // Clean retirement: EOF makes the worker _exit(0) after its current
      // read. It should be idle, so this is fast; escalate if it is not.
      if (!wait_pid_gone(pid, kRetireWait)) was_forced = true;
    }
    if (was_forced) {
      // kill(-pid) takes the worker's process group — the worker put itself
      // there with setpgid — so live arms die with it. The direct kill
      // covers the window before setpgid has run. The group is killed even
      // when the worker is already gone: a worker that died on its own (a
      // crash, an OOM kill) leaves its arms running in it, and arms its
      // verdicts eliminated may not have been reaped yet.
      ::kill(-pid, SIGKILL);
      ::kill(pid, SIGKILL);
      wait_pid_gone(pid, std::chrono::milliseconds(2000));
    }
    reap_orphans();
    claims->clear(w->slot);  // a claim the dead worker left untaken
    if (gov != nullptr) {
      gov->reconcile_dead_holders();
    }
    obs::emit(obs::EventKind::kSrvWorkerExit, 0, 0,
              static_cast<std::uint64_t>(pid), was_forced ? 1 : 0);
    if (!stopping) add_worker(/*respawn=*/true);
  }

  std::optional<std::size_t> worker_index(const WorkerState* w) const {
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (workers[i].get() == w) return i;
    }
    return std::nullopt;
  }

  // ---- scheduling ------------------------------------------------------

  /// An idle worker, else a running one with no job queued ahead yet.
  WorkerState* free_worker() {
    WorkerState* ahead = nullptr;
    for (auto& w : workers) {
      if (w->conn.dead) continue;
      if (w->jobs.empty()) return w.get();
      if (ahead == nullptr && w->jobs.size() < kJobsPerWorker) ahead = w.get();
    }
    return ahead;
  }

  /// Round-robin over client ids: resume after the last client served so a
  /// greedy client cannot starve the rest of the pool.
  ClientState* next_eligible_client() {
    auto eligible = [&](ClientState& c) {
      return !c.conn.dead && !c.queue.empty() &&
             c.assigned < cfg.per_client_running;
    };
    auto it = clients.upper_bound(rr_last);
    for (std::size_t seen = 0; seen < clients.size(); ++seen) {
      if (it == clients.end()) it = clients.begin();
      if (eligible(*it->second)) return it->second.get();
      ++it;
    }
    return nullptr;
  }

  /// Sends a job to `w`: to run now when `w` is idle, else queued ahead
  /// behind the job it runs, on a claim the daemon can withdraw until the
  /// worker takes it. The job counts as queued until it starts, and its
  /// worker measures its queue wait from the submit stamp it carries
  /// (JobSpec::queue_ns) to that start.
  void dispatch(WorkerState& w, Dispatched d) {
    QueuedJob& job = d.job;
    const std::uint64_t now = obs::now_ns();
    job.spec.queue_ns = job.submit_ns;
    job.spec.claim = w.jobs.empty() ? 0 : claims->offer(w.slot);
    w.conn.queue(make_frame(FrameType::kSubmit, job.job_id,
                            encode_job(job.spec), job.trace_id, job.span_id));
    if (ClientState* c = find_client(d.client_id)) c->assigned += 1;
    obs::emit_trace(job.trace_id, obs::EventKind::kSrvAssign, 0, 0, job.job_id,
                    static_cast<std::uint64_t>(w.pid),
                    now > job.submit_ns ? now - job.submit_ns : 0);
    w.jobs.push_back(std::move(d));
    if (w.jobs.size() == 1) note_started();
  }

  /// An idle worker takes the job queued ahead behind another worker's
  /// running one, submitted before anything still in a client's queue, so
  /// a long job holds up no job queued behind it while a worker is free.
  bool steal_for(WorkerState& idle) {
    for (auto& v : workers) {
      if (v->conn.dead) continue;
      if (std::optional<Dispatched> d = take_back(*v)) {
        dispatch(idle, std::move(*d));
        return true;
      }
    }
    return false;
  }

  /// A worker's front job has started: it leaves the queued gauge for the
  /// running one.
  void note_started() {
    queued_g.fetch_sub(1);
    running_g.fetch_add(1);
  }

  void schedule() {
    for (;;) {
      WorkerState* w = free_worker();
      if (w == nullptr) return;
      if (w->jobs.empty() && steal_for(*w)) continue;
      ClientState* c = next_eligible_client();
      if (c == nullptr) return;
      rr_last = c->id;
      Dispatched d{c->id, std::move(c->queue.front())};
      c->queue.pop_front();
      dispatch(*w, std::move(d));
    }
  }

  // ---- client protocol -------------------------------------------------

  void reply_outcome(ClientState& c, std::uint64_t job_id,
                     const JobOutcome& out, std::uint64_t trace_id = 0,
                     std::uint64_t span_id = 0) {
    c.conn.queue(make_frame(FrameType::kResult, job_id, encode_outcome(out),
                            trace_id, span_id));
  }

  void handle_submit(ClientState& c, const Frame& f) {
    JobSpec spec = decode_job(f.payload);  // ProtocolError drops the client
    if (static_cast<int>(c.queue.size()) >= cfg.per_client_queue) {
      denied.fetch_add(1);
      client_counters[c.id].denied += 1;
      obs::emit_trace(f.trace_id, obs::EventKind::kSrvDeny, 0, 0, c.id,
                      f.job_id, cfg.retry_after_ms);
      obs::MetricsRegistry::global().counter("srv_denials").add();
      Bytes deny;
      ByteWriter bw(deny);
      bw.u32(cfg.retry_after_ms);
      bw.str("client queue full");
      c.conn.queue(make_frame(FrameType::kDeny, f.job_id, std::move(deny),
                              f.trace_id, f.span_id));
      return;
    }
    QueuedJob q;
    q.job_id = f.job_id;
    q.spec = std::move(spec);
    q.submit_ns = obs::now_ns();
    q.trace_id = f.trace_id;
    q.span_id = f.span_id;
    obs::emit_trace(f.trace_id, obs::EventKind::kSrvSubmit, 0, 0, c.id,
                    f.job_id, q.spec.arms.size());
    c.queue.push_back(std::move(q));
    queued_g.fetch_add(1);
    client_counters[c.id].submitted += 1;
    note_submitted();
  }

  void handle_cancel(ClientState& c, std::uint64_t job_id) {
    // Queued: just drop it and answer.
    for (auto it = c.queue.begin(); it != c.queue.end(); ++it) {
      if (it->job_id == job_id) {
        const std::uint64_t trace = it->trace_id;
        const std::uint64_t span = it->span_id;
        c.queue.erase(it);
        queued_g.fetch_sub(1);
        canceled.fetch_add(1);
        client_counters[c.id].canceled += 1;
        note_replied();
        obs::emit_trace(trace, obs::EventKind::kSrvCancel, 0, 0, job_id, 0);
        JobOutcome out;
        out.status = JobStatus::kCanceled;
        reply_outcome(c, job_id, out, trace, span);
        return;
      }
    }
    // On a worker. A job queued ahead that the worker has not taken is
    // withdrawn and answered like a queued one: it never runs. Any other
    // job the worker holds it has taken back too, back to its client's
    // queue. A running job's worker has no cancel channel of its own, so
    // its cohort is torn down and the worker replaced.
    if (WorkerState* w = find_dispatched(c.id, job_id)) {
      if (std::optional<Dispatched> back = take_back(*w)) {
        if (back->client_id != c.id || back->job.job_id != job_id) {
          requeue(std::move(*back));
        } else {
          c.queue.push_front(std::move(back->job));
          handle_cancel(c, job_id);
          return;
        }
      }
      if (!w->jobs.empty() && w->jobs.front().client_id == c.id &&
          w->jobs.front().job.job_id == job_id) {
        const std::uint64_t trace = w->jobs.front().job.trace_id;
        const std::uint64_t span = w->jobs.front().job.span_id;
        settle(*w, 0);
        w->jobs.pop_front();
        canceled.fetch_add(1);
        client_counters[c.id].canceled += 1;
        note_replied();
        obs::emit_trace(trace, obs::EventKind::kSrvCancel, 0, 0, job_id, 1);
        if (const auto idx = worker_index(w)) {
          teardown_worker(*idx, /*forced=*/true);
        }
        JobOutcome out;
        out.status = JobStatus::kCanceled;
        reply_outcome(c, job_id, out, trace, span);
        return;
      }
      // It finished: take_back read its result, which is on its way.
      return;
    }
    // Unknown id (already completed, or never existed): idempotent no-op.
    obs::emit(obs::EventKind::kSrvCancel, 0, 0, job_id, 0);
  }

  WireStats make_stats() const {
    WireStats s;
    s.accepted = accepted.load();
    s.completed = completed.load();
    s.denied = denied.load();
    s.canceled = canceled.load();
    s.worker_spawns = worker_spawns.load();
    s.worker_respawns = worker_respawns.load();
    s.tokens_reclaimed =
        gov != nullptr ? gov->stats().reclaimed : 0;
    s.inflight_hw = inflight_hw.load();
    s.queued = queued_g.load();
    s.running = running_g.load();
    s.clients = clients_g.load();
    const std::uint32_t total = workers_g.load();
    const std::uint32_t busy = running_g.load();
    s.workers_busy = busy;
    s.workers_idle = total > busy ? total - busy : 0;
    return s;
  }

  /// Dispatches one decoded client frame. Returns false when the client
  /// must be dropped (protocol violation).
  bool on_client_frame(ClientState& c, const Frame& f) {
    switch (f.type) {
      case FrameType::kHello:
        return true;
      case FrameType::kSubmit:
        handle_submit(c, f);
        return true;
      case FrameType::kCancel:
        handle_cancel(c, f.job_id);
        return true;
      case FrameType::kStats:
        c.conn.queue(make_frame(FrameType::kStatsReply, f.job_id,
                                encode_stats(make_stats())));
        return true;
      case FrameType::kPing:
        c.conn.queue(make_frame(FrameType::kPong, f.job_id, {}));
        return true;
      default:
        return false;  // server-to-client types from a client: violation
    }
  }

  void read_client(ClientState& c) {
    std::uint8_t buf[64 << 10];
    for (;;) {
      const ssize_t n = ::read(c.conn.fd.get(), buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        c.conn.dead = true;
        return;
      }
      if (n == 0) {
        c.conn.dead = true;
        return;
      }
      c.conn.dec.feed(buf, static_cast<std::size_t>(n));
      try {
        while (std::optional<Frame> f = c.conn.dec.next()) {
          if (!on_client_frame(c, *f)) {
            c.conn.dead = true;
            return;
          }
        }
      } catch (const ProtocolError&) {
        c.conn.dead = true;  // malformed stream: swept after this pass
        return;
      }
      if (n < static_cast<ssize_t>(sizeof buf)) break;
    }
  }

  void read_worker(WorkerState& w) {
    std::uint8_t buf[64 << 10];
    for (;;) {
      const ssize_t n = ::read(w.conn.fd.get(), buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        w.conn.dead = true;
        return;
      }
      if (n == 0) {
        w.conn.dead = true;
        return;
      }
      w.conn.dec.feed(buf, static_cast<std::size_t>(n));
      try {
        while (std::optional<Frame> f = w.conn.dec.next()) {
          if (f->type == FrameType::kResult) {
            on_worker_result(w, *f);
          }
          // kPong and anything else: ignore.
        }
      } catch (const ProtocolError&) {
        w.conn.dead = true;  // swept as a worker death
        return;
      }
      if (n < static_cast<ssize_t>(sizeof buf)) break;
    }
  }

  void on_worker_result(WorkerState& w, const Frame& f) {
    // A worker runs its jobs in the order it was sent them.
    if (w.jobs.empty() || f.job_id != w.jobs.front().job.job_id) {
      return;  // stale/unknown: drop
    }
    const std::uint64_t job_id = f.job_id;
    const std::uint64_t client_id = w.jobs.front().client_id;
    settle(w, 0);
    w.jobs.pop_front();
    completed.fetch_add(1);
    client_counters[client_id].completed += 1;
    note_replied();
    if (ClientState* c = find_client(client_id)) {
      // Echo the worker's header ids so the client-side frame carries the
      // same trace the records do.
      c->conn.queue(make_frame(FrameType::kResult, job_id, f.payload,
                               f.trace_id, f.span_id));
    }
    std::uint64_t exec_ns = 0;
    std::uint8_t status = 255;
    try {
      const JobOutcome out = decode_outcome(f.payload);
      exec_ns = out.exec_ns;
      status = static_cast<std::uint8_t>(out.status);
      auto& m = obs::MetricsRegistry::global();
      m.histogram("srv_exec_ns").record(out.exec_ns);
      m.histogram("srv_queue_wait_ns").record(out.queue_ns);
    } catch (const ProtocolError&) {
      // Forwarded verbatim anyway; the client will see the same error.
    }
    obs::emit_trace(f.trace_id, obs::EventKind::kSrvResult, 0, 0, job_id,
                    status, exec_ns);
    // The worker has taken its job queued ahead, if any, as it replied.
    if (!w.jobs.empty()) note_started();
  }

  /// A worker's fd died (crash, kill, protocol garbage): the job it ran is
  /// lost with it — tell the owner once, then replace the worker. A job it
  /// held queued ahead and had not taken goes back to its client's queue.
  void sweep_dead_workers() {
    for (std::size_t i = workers.size(); i-- > 0;) {
      WorkerState& w = *workers[i];
      if (!w.conn.dead) continue;
      if (std::optional<Dispatched> back = take_back(w)) {
        requeue(std::move(*back));  // it never started: it runs elsewhere
      }
      teardown_worker(i, /*forced=*/true);
    }
  }

  void drop_client(std::uint64_t id) {
    const auto it = clients.find(id);
    if (it == clients.end()) return;
    ClientState& c = *it->second;
    std::uint64_t reaped_running = 0;
    // Kill every cohort still racing for this client: the results have no
    // recipient, and speculative children must not outlive their reason. A
    // job queued ahead that its worker has not taken goes back to its
    // client's queue instead — this one's is dropped with the rest below.
    for (std::size_t i = workers.size(); i-- > 0;) {
      WorkerState& w = *workers[i];
      const auto ours = [&](const Dispatched& d) { return d.client_id == id; };
      if (std::none_of(w.jobs.begin(), w.jobs.end(), ours)) continue;
      if (std::optional<Dispatched> back = take_back(w)) {
        requeue(std::move(*back));
      }
      if (!w.jobs.empty() && w.jobs.front().client_id == id) {
        settle(w, 0);
        canceled.fetch_add(1);
        client_counters[id].canceled += 1;
        note_replied();
        ++reaped_running;
        w.jobs.pop_front();
        teardown_worker(i, /*forced=*/true);
      }
    }
    const std::uint64_t dropped_queued = c.queue.size();
    for (std::size_t n = c.queue.size(); n > 0; --n) {
      queued_g.fetch_sub(1);
      canceled.fetch_add(1);
      note_replied();
    }
    client_counters[id].canceled += dropped_queued;
    c.queue.clear();
    obs::emit(obs::EventKind::kSrvClientGone, 0, 0, id, dropped_queued,
              reaped_running);
    clients.erase(it);
    clients_g.store(static_cast<std::uint32_t>(clients.size()));
  }

  void accept_from(int lfd, bool tcp) {
    for (;;) {
      const int fd = ::accept4(lfd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient accept error: back to poll
      }
      if (clients.size() >= cfg.max_clients) {
        ::close(fd);
        continue;
      }
      auto c = std::make_unique<ClientState>();
      c->id = next_client_id++;
      c->tcp = tcp;
      c->conn.fd = posix::Fd(fd);
      obs::emit(obs::EventKind::kSrvConnect, 0, 0, c->id, tcp ? 1 : 0);
      clients.emplace(c->id, std::move(c));
      clients_g.store(static_cast<std::uint32_t>(clients.size()));
    }
  }

  // ---- shutdown --------------------------------------------------------

  void shutdown_all() {
    stopping = true;
    std::uint64_t reaped_jobs = 0;

    // Cancel everything queued, with an answer while the socket still works.
    for (auto& [id, c] : clients) {
      for (const QueuedJob& q : c->queue) {
        JobOutcome out;
        out.status = JobStatus::kCanceled;
        out.error = "daemon shutting down";
        reply_outcome(*c, q.job_id, out, q.trace_id, q.span_id);
        canceled.fetch_add(1);
        client_counters[id].canceled += 1;
        note_replied();
        ++reaped_jobs;
      }
      queued_g.fetch_sub(static_cast<std::uint32_t>(c->queue.size()));
      c->queue.clear();
    }

    // Tear down every in-flight cohort and answer the owner of every job
    // a worker holds.
    for (std::size_t i = workers.size(); i-- > 0;) {
      WorkerState& w = *workers[i];
      const bool busy = !w.jobs.empty();
      for (std::size_t k = 0; k < w.jobs.size(); ++k) {
        const Dispatched& d = w.jobs[k];
        if (ClientState* c = find_client(d.client_id)) {
          JobOutcome out;
          out.status = JobStatus::kCanceled;
          out.error = "daemon shutting down";
          reply_outcome(*c, d.job.job_id, out, d.job.trace_id, d.job.span_id);
        }
        settle(w, k);
        canceled.fetch_add(1);
        client_counters[d.client_id].canceled += 1;
        note_replied();
        ++reaped_jobs;
      }
      w.jobs.clear();
      teardown_worker(i, /*forced=*/busy);
    }

    obs::emit(obs::EventKind::kSrvShutdown, 0, 0, reaped_jobs,
              static_cast<std::uint64_t>(workers.size()));

    // Best-effort flush of the goodbye frames, then hang up.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    for (;;) {
      bool pending = false;
      for (auto& [id, c] : clients) {
        if (!c->conn.dead && c->conn.wants_write()) {
          c->conn.flush();
          pending = pending || c->conn.wants_write();
        }
      }
      if (!pending || std::chrono::steady_clock::now() >= deadline) break;
      timespec ts{0, 1'000'000};
      ::nanosleep(&ts, nullptr);
    }
    clients.clear();
    clients_g.store(0);

    if (zygote.has_value()) {
      zygote->shutdown();
      zygote.reset();
    }

    // Final orphan drain: everything left reparents to us (subreaper) and
    // must be gone before we return — the no-orphans guarantee.
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
    for (;;) {
      const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
      if (r < 0 && errno == ECHILD) break;
      if (r > 0) continue;
      if (std::chrono::steady_clock::now() >= drain_deadline) break;
      timespec ts{0, 1'000'000};
      ::nanosleep(&ts, nullptr);
    }
    if (gov != nullptr) gov->reconcile_dead_holders();

    listen_unix.reset();
    listen_tcp.reset();
    listen_metrics.reset();
    http_conns.clear();
    if (!cfg.socket_path.empty()) ::unlink(cfg.socket_path.c_str());
  }
};

Server::Server(ServerConfig cfg) : impl_(std::make_unique<Impl>()) {
  impl_->cfg = std::move(cfg);
}

Server::~Server() {
  if (impl_ != nullptr && impl_->started && !impl_->stopping) {
    try {
      impl_->shutdown_all();
    } catch (...) {
    }
  }
}

void Server::start() {
  Impl& s = *impl_;
  ALTX_REQUIRE(!s.started, "altxd: start() called twice");
  ALTX_REQUIRE(s.cfg.workers > 0, "altxd: need at least one worker");

  // Arms orphaned by a killed worker must reparent *here*, not to init,
  // or the zero-leaked-children guarantee is unenforceable.
#ifdef PR_SET_CHILD_SUBREAPER
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
#endif
  ::signal(SIGPIPE, SIG_IGN);

  if (s.cfg.gov_tokens > 0) {
    posix::GovernorConfig gc;
    gc.tokens = s.cfg.gov_tokens;
    s.owned_gov = std::make_unique<posix::SpeculationGovernor>(gc);
    s.gov = s.owned_gov.get();
  } else {
    // Resolve the env governor now, before the zygote fork, so its
    // MAP_SHARED pool is inherited by every worker.
    s.gov = posix::SpeculationGovernor::global();
  }

  // Zygote first, while the process is quiescent — no listeners, no client
  // buffers. Every worker forked later inherits this small image.
  ZygoteConfig zc;
  zc.heap_pages = s.cfg.heap_pages;
  zc.governor = s.gov;
  s.claims =
      std::make_unique<ClaimBoard>(static_cast<std::size_t>(s.cfg.workers));
  zc.claims = s.claims.get();
  s.zygote.emplace(Zygote::spawn(zc));

  const int efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (efd < 0) throw_errno("altxd: eventfd");
  s.stop_fd = posix::Fd(efd);
  s.stop_fd_raw.store(efd);

  s.bind_unix();
  s.bind_tcp();
  s.bind_metrics();

  for (int i = 0; i < s.cfg.workers; ++i) s.add_worker(/*respawn=*/false);
  s.started = true;
}

void Server::run() {
  Impl& s = *impl_;
  ALTX_REQUIRE(s.started, "altxd: run() before start()");

  enum class Tag : std::uint8_t {
    kStop,
    kUnix,
    kTcp,
    kMetrics,
    kClient,
    kWorker,
    kHttp
  };
  struct Slot {
    Tag tag;
    std::uint64_t id;  // client id or worker index
  };
  std::vector<pollfd> pfds;
  std::vector<Slot> slots;

  bool stop = false;
  while (!stop) {
    pfds.clear();
    slots.clear();
    pfds.push_back({s.stop_fd.get(), POLLIN, 0});
    slots.push_back({Tag::kStop, 0});
    if (s.listen_unix.valid()) {
      pfds.push_back({s.listen_unix.get(), POLLIN, 0});
      slots.push_back({Tag::kUnix, 0});
    }
    if (s.listen_tcp.valid()) {
      pfds.push_back({s.listen_tcp.get(), POLLIN, 0});
      slots.push_back({Tag::kTcp, 0});
    }
    if (s.listen_metrics.valid()) {
      pfds.push_back({s.listen_metrics.get(), POLLIN, 0});
      slots.push_back({Tag::kMetrics, 0});
    }
    for (auto& h : s.http_conns) {
      short ev = POLLIN;
      if (h->wants_write()) ev |= POLLOUT;
      pfds.push_back({h->fd.get(), ev, 0});
      slots.push_back({Tag::kHttp, 0});
    }
    for (auto& [id, c] : s.clients) {
      short ev = POLLIN;
      if (c->conn.wants_write()) ev |= POLLOUT;
      pfds.push_back({c->conn.fd.get(), ev, 0});
      slots.push_back({Tag::kClient, id});
    }
    for (std::size_t i = 0; i < s.workers.size(); ++i) {
      short ev = POLLIN;
      if (s.workers[i]->conn.wants_write()) ev |= POLLOUT;
      pfds.push_back({s.workers[i]->conn.fd.get(), ev, 0});
      slots.push_back({Tag::kWorker, i});
    }

    const int rc = ::poll(pfds.data(), pfds.size(), 100);
    if (rc < 0 && errno != EINTR) throw_errno("altxd: poll");

    if (rc <= 0) {
      // Housekeeping tick: reap stray exits, return dead holders' tokens.
      s.reap_orphans();
      if (s.gov != nullptr) s.gov->reconcile_dead_holders();
      s.schedule();
      continue;
    }

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const short re = pfds[i].revents;
      if (re == 0) continue;
      switch (slots[i].tag) {
        case Tag::kStop:
          stop = true;
          break;
        case Tag::kUnix:
          s.accept_from(s.listen_unix.get(), /*tcp=*/false);
          break;
        case Tag::kTcp:
          s.accept_from(s.listen_tcp.get(), /*tcp=*/true);
          break;
        case Tag::kMetrics:
          s.accept_metrics();
          break;
        case Tag::kHttp: {
          // http_conns can shrink mid-pass; re-find by fd.
          HttpConn* h = nullptr;
          for (auto& cand : s.http_conns) {
            if (cand->fd.get() == pfds[i].fd) {
              h = cand.get();
              break;
            }
          }
          if (h == nullptr) break;
          if ((re & (POLLERR | POLLNVAL)) != 0) h->dead = true;
          if (!h->dead && (re & POLLOUT) != 0) h->flush();
          if (!h->dead && (re & (POLLIN | POLLHUP)) != 0) s.read_http(*h);
          break;
        }
        case Tag::kClient: {
          ClientState* c = s.find_client(slots[i].id);
          if (c == nullptr) break;  // dropped earlier this pass
          if ((re & (POLLERR | POLLNVAL)) != 0) c->conn.dead = true;
          if (!c->conn.dead && (re & POLLOUT) != 0) c->conn.flush();
          if (!c->conn.dead && (re & (POLLIN | POLLHUP)) != 0) {
            s.read_client(*c);
          }
          break;
        }
        case Tag::kWorker: {
          // Teardowns shuffle worker indices; re-find by fd.
          WorkerState* w = nullptr;
          for (auto& cand : s.workers) {
            if (cand->conn.fd.get() == pfds[i].fd) {
              w = cand.get();
              break;
            }
          }
          if (w == nullptr) break;
          if ((re & (POLLERR | POLLNVAL)) != 0) w->conn.dead = true;
          if (!w->conn.dead && (re & POLLOUT) != 0) w->conn.flush();
          if (!w->conn.dead && (re & (POLLIN | POLLHUP)) != 0) {
            s.read_worker(*w);
          }
          break;
        }
      }
      if (stop) break;
    }

    if (stop) break;

    s.sweep_dead_workers();
    s.http_conns.erase(
        std::remove_if(s.http_conns.begin(), s.http_conns.end(),
                       [](const std::unique_ptr<HttpConn>& h) {
                         return h->dead;
                       }),
        s.http_conns.end());
    std::vector<std::uint64_t> dead_clients;
    for (auto& [id, c] : s.clients) {
      if (c->conn.dead) dead_clients.push_back(id);
    }
    for (const std::uint64_t id : dead_clients) s.drop_client(id);
    s.schedule();
  }

  s.shutdown_all();
}

void Server::request_stop() noexcept {
  const int fd = impl_ != nullptr ? impl_->stop_fd_raw.load() : -1;
  if (fd < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r = ::write(fd, &one, sizeof one);
}

ServerStats Server::stats() const { return impl_->make_stats(); }

posix::SpeculationGovernor* Server::governor() const noexcept {
  return impl_->gov;
}

int Server::tcp_port() const noexcept { return impl_->bound_tcp_port; }

int Server::metrics_port() const noexcept {
  return impl_->bound_metrics_port;
}

}  // namespace altx::server
