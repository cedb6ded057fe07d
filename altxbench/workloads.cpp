// The four closed-loop workloads, their set-up, and the outcome check on
// every block.
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <string>

#include "bench.hpp"
#include "server/registry.hpp"

namespace altxbench {

namespace posix = altx::posix;
namespace server = altx::server;
using namespace std::chrono_literals;

// ---- shared rigs ------------------------------------------------------------

std::string socket_path(const char* tag) {
  const char* dir = ::access(".bench_build", W_OK) == 0 ? ".bench_build/" : "";
  return std::string(dir) + "altxbench-" + tag + "-" +
         std::to_string(::getpid()) + ".sock";
}

DaemonRig::DaemonRig(const std::string& socket_path) {
  static const bool registered = [] {
    server::register_builtin_handlers(server::HandlerRegistry::global());
    return true;
  }();
  (void)registered;
  server::ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.workers = kDaemonWorkers;
  cfg.gov_tokens = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  cfg.heap_pages = 0;  // echo jobs carry no arena
  server_ = std::make_unique<server::Server>(cfg);
  server_->start();
  runner_ = std::thread([this] { server_->run(); });
  client_ = std::make_unique<server::Client>(
      server::Client::connect_unix(socket_path));
  client_->ping();
}

DaemonRig::~DaemonRig() {
  client_.reset();
  server_->request_stop();
  runner_.join();
}

namespace {

constexpr std::uint64_t kFastNs = 2'000'000;   // predicted arm 1
constexpr std::uint64_t kSlowNs = 20'000'000;  // predicted arms 2 and 3

void spin_for(std::uint64_t ns) {
  const std::uint64_t until = mono_ns() + ns;
  volatile std::uint64_t sink = 0;
  while (mono_ns() < until) sink = sink + 1;
}

}  // namespace

PredictorRig::PredictorRig()
    : store_(altx::obs::history_enable_for_test(1024)) {
  // What ~20 earlier runs of the site would have taught the store: arm 1
  // fast and always winning, arms 2 and 3 slow and losing.
  for (std::uint64_t s = 0; s < 20; ++s) {
    store_->record(kSite, 1, kFastNs + s * 20'000, kFastNs, true);
    store_->record(kSite, 2, kSlowNs + s * 100'000, kSlowNs, false);
    store_->record(kSite, 3, kSlowNs + s * 100'000, kSlowNs, false);
  }
  posix::PredictorConfig pc;
  pc.enabled = true;
  // Stage far enough out that the leader commits while the hedged arms
  // still sleep (the E19 warm setting).
  pc.stage_slack = 4.0;
  planner_ = std::make_unique<posix::SpeculationPlanner>(pc, store_);
}

PredictorRig::~PredictorRig() { altx::obs::history_disable_for_test(); }

std::optional<posix::RaceResult<int>> predicted_race(
    const PredictorRig& rig, int token, posix::RaceReport* report) {
  posix::RaceOptions ro;
  ro.timeout = 10s;
  ro.site_id = PredictorRig::kSite;
  ro.planner = &rig.planner();
  ro.report = report;
  return posix::race<int>(
      {
          [token] { spin_for(kFastNs); return std::optional<int>(token); },
          [token] { spin_for(kSlowNs); return std::optional<int>(token + 1); },
          [token] { spin_for(kSlowNs); return std::optional<int>(token + 2); },
      },
      ro);
}

server::JobSpec echo_job(const altx::Bytes& payload) {
  server::JobSpec spec;
  spec.timeout_ms = 10'000;
  const std::uint32_t one_ms = 1;
  altx::Bytes sleep_args(sizeof one_ms);
  std::memcpy(sleep_args.data(), &one_ms, sizeof one_ms);
  spec.arms.push_back({"echo", payload});
  spec.arms.push_back({"sleep_ms", sleep_args});
  return spec;
}

namespace {

/// The seeded inputs of one block stream: a marker for the rare class and a
/// generator for values.
struct Gen {
  Gen(std::uint64_t seed, std::uint64_t stream, std::uint64_t period)
      : rng(seed * 0x100000001b3ULL + stream),
        marker(seed ^ (stream << 32), period) {}
  Rng rng;
  Marker marker;
};

constexpr std::uint64_t kMainStream = 1;
constexpr std::uint64_t kWarmStream = 2;

/// Common closed loop for the single-caller in-process workloads: the
/// subclass runs and checks one block per call.
class InProcess : public Workload {
 public:
  InProcess(const Options& opt, std::uint64_t period, int warmup)
      : opt_(opt), period_(period), warmup_(warmup),
        main_(opt.seed, kMainStream, period) {}

  void setup() override {
    prepare();
    // A fixed warm-up sequence, the same for every seed and repetition.
    Gen warm(0, kWarmStream, period_);
    Window scratch;
    for (int i = 0; i < warmup_; ++i) block(warm, scratch);
  }

  void run(Window& w, double seconds, std::uint64_t max_blocks) override {
    const std::size_t start = w.blocks.size();
    const auto limit = static_cast<std::uint64_t>(seconds * 1e9);
    w.open();
    while (w.blocks.size() - start < max_blocks &&
           mono_ns() - w.t0_ns < limit) {
      block(main_, w);
    }
    w.close();
  }

 protected:
  virtual void prepare() {}
  virtual void block(Gen& g, Window& w) = 0;

  bool sabotaged(const char* check) const { return opt_.sabotage == check; }

  const Options& opt_;

 private:
  std::uint64_t period_;
  int warmup_;
  Gen main_;
};

/// The check every winning race<int> block gets: a winner among the arms,
/// and the value that arm returns (token + index - 1).
void check_winner(Checker& c, const std::optional<posix::RaceResult<int>>& r,
                  int token, int arms, bool sabotage, const char* where) {
  if (!r.has_value()) {
    c.fail(std::string(where) + ": winning block returned FAIL");
    return;
  }
  const int expect = token + r->winner - 1 + (sabotage ? 1 : 0);
  if (r->winner < 1 || r->winner > arms || r->value != expect) {
    c.fail(std::string(where) + ": winner " + std::to_string(r->winner) +
           " value " + std::to_string(r->value) + ", expected " +
           std::to_string(expect));
  }
}

// ---- race_minimal -----------------------------------------------------------

/// E17 shape: an instant winner and a 1 ms sleeper; one block in 16 has
/// both guards fail. No heap, no site id, no governor.
class RaceMinimal : public InProcess {
 public:
  explicit RaceMinimal(const Options& opt) : InProcess(opt, 16, 256) {}
  void teardown() override {}

 protected:
  void block(Gen& g, Window& w) override {
    const bool fail = g.marker.next();
    const int token = static_cast<int>(g.rng.below(1u << 30));
    posix::RaceReport rep;
    posix::RaceOptions ro;
    ro.timeout = 10s;
    ro.report = &rep;
    const std::vector<posix::AlternativeFn<int>> alts = {
        [fail, token]() -> std::optional<int> {
          if (fail) return std::nullopt;
          return token;
        },
        [fail, token]() -> std::optional<int> {
          ::usleep(1000);
          if (fail) return std::nullopt;
          return token + 1;
        },
    };
    const std::uint64_t t0 = mono_ns();
    const auto r = posix::race<int>(alts, ro);
    const double ms = ms_between(t0, mono_ns());
    checker_.attempt();
    w.add(ms, fail);
    if (!fail) {
      check_winner(checker_, r, token, 2, sabotaged("value"), "race_minimal");
      return;
    }
    const bool want_fail = !sabotaged("fail");
    if (r.has_value() == want_fail ||
        (want_fail && rep.verdict != posix::WaitVerdict::kAllFailed)) {
      const char* got =
          r.has_value() ? "a winner" : posix::to_string(rep.verdict);
      checker_.fail(std::string("race_minimal: all-fail block gave ") + got);
    }
  }
};

// ---- race_heap --------------------------------------------------------------

/// race<int> over a 16 MiB AltHeap: one block in 8 the winner dirties 2048
/// pages, otherwise 1; the loser sleeps until eliminated.
class RaceHeap : public InProcess {
 public:
  explicit RaceHeap(const Options& opt) : InProcess(opt, 8, 32) {}

  void teardown() override { heap_.reset(); }
  posix::AltHeap* arena() override { return heap_.get(); }

 protected:
  static constexpr std::size_t kWords = 512;  // u64 words per 4 KiB page

  void prepare() override {
    heap_ = std::make_unique<posix::AltHeap>(kHeapPages);
    ALTX_REQUIRE(heap_->page_size() == kWords * sizeof(std::uint64_t),
                 "race_heap: expects 4 KiB pages");
    stamp_.assign(kHeapPages, 0);
    Rng init(opt_.seed);
    for (std::size_t p = 0; p < kHeapPages; ++p) {
      stamp_[p] = init.next();
      fill(p, stamp_[p]);  // prefault the whole arena
    }
  }

  void block(Gen& g, Window& w) override {
    const bool bulk = g.marker.next();
    const std::size_t k = bulk ? kBulkPages : 1;
    const std::size_t start = g.rng.below(kHeapPages);
    const std::uint64_t key = g.rng.next();
    const int token = static_cast<int>(g.rng.below(1u << 30));
    posix::RaceOptions ro;
    ro.timeout = 10s;
    ro.heap = heap_.get();
    const std::vector<posix::AlternativeFn<int>> alts = {
        [this, k, start, key, token]() -> std::optional<int> {
          for (std::size_t j = 0; j < k; ++j) {
            const std::size_t p = (start + j) % kHeapPages;
            fill(p, key ^ p);
          }
          return token;
        },
        []() -> std::optional<int> {
          ::usleep(2'000'000);
          return std::nullopt;
        },
    };
    const std::uint64_t t0 = mono_ns();
    const auto r = posix::race<int>(alts, ro);
    const double ms = ms_between(t0, mono_ns());
    checker_.attempt();
    w.add(ms);
    const std::uint64_t errors = checker_.wrong();
    check_winner(checker_, r, token, 1, false, "race_heap");
    if (r.has_value() && r->pages_absorbed != k) {
      checker_.fail("race_heap: absorbed " + std::to_string(r->pages_absorbed) +
                    " pages, winner dirtied " + std::to_string(k));
    }
    // Every page the winner dirtied holds its bytes; every other page keeps
    // its previous stamp (first and last word).
    bool heap_ok = true;
    for (std::size_t p = 0; p < kHeapPages && heap_ok; ++p) {
      const std::size_t off = (p + kHeapPages - start) % kHeapPages;
      const std::uint64_t* words = page(p);
      if (off < k) {
        std::uint64_t want = key ^ p;
        if (off == 0 && sabotaged("heap")) want ^= 1;
        for (std::size_t i = 0; i < kWords; ++i) {
          if (words[i] != want) {
            heap_ok = false;
            break;
          }
        }
        stamp_[p] = key ^ p;
      } else if (words[0] != stamp_[p] || words[kWords - 1] != stamp_[p]) {
        heap_ok = false;
      }
    }
    if (!heap_ok && checker_.wrong() == errors) {
      checker_.fail("race_heap: arena does not match the winner's writes");
    }
  }

 private:
  std::uint64_t* page(std::size_t p) const {
    return heap_->at<std::uint64_t>(p * kWords * sizeof(std::uint64_t));
  }
  void fill(std::size_t p, std::uint64_t v) const {
    std::uint64_t* words = page(p);
    for (std::size_t i = 0; i < kWords; ++i) words[i] = v;
  }

  std::unique_ptr<posix::AltHeap> heap_;
  std::vector<std::uint64_t> stamp_;  // expected word of every page
};

// ---- race_predicted ---------------------------------------------------------

/// E19 warm shape: 3 spinning arms (2/20/20 ms), a fixed site id, and a
/// planner over a history store warmed during set-up.
class RacePredicted : public InProcess {
 public:
  explicit RacePredicted(const Options& opt) : InProcess(opt, 1, 128) {}

  void teardown() override { rig_.reset(); }
  PredictorRig* predictor() override { return rig_.get(); }

 protected:
  void prepare() override { rig_ = std::make_unique<PredictorRig>(); }

  void block(Gen& g, Window& w) override {
    const int token = static_cast<int>(g.rng.below(1u << 30));
    const std::uint64_t t0 = mono_ns();
    const auto r = predicted_race(*rig_, token, nullptr);
    const double ms = ms_between(t0, mono_ns());
    checker_.attempt();
    w.add(ms);
    check_winner(checker_, r, token, 3, sabotaged("value"), "race_predicted");
  }

 private:
  std::unique_ptr<PredictorRig> rig_;
};

// ---- daemon_pipelined -------------------------------------------------------

/// An in-process altxd (2 workers, gov_tokens = nproc) and one client
/// keeping 4 echo jobs in flight on one connection.
class DaemonPipelined : public Workload {
 public:
  explicit DaemonPipelined(const Options& opt)
      : opt_(opt), main_(opt.seed, kMainStream, 1) {}

  void setup() override {
    rig_ = std::make_unique<DaemonRig>(socket_path("daemon"));
    Gen warm(0, kWarmStream, 1);
    Window scratch;
    pipeline(warm, scratch, 0, 1024);
  }
  void teardown() override { rig_.reset(); }
  DaemonRig* daemon() override { return rig_.get(); }

  void run(Window& w, double seconds, std::uint64_t max_blocks) override {
    pipeline(main_, w, seconds, max_blocks);
  }

 private:
  struct Pending {
    std::uint64_t id;
    std::uint64_t t0;
    altx::Bytes payload;
  };

  /// Closed loop with kDaemonWindow jobs in flight: submit until the window
  /// is full, then wait for the oldest, check it, and refill. `seconds` 0
  /// means run exactly `max_blocks` jobs.
  void pipeline(Gen& g, Window& w, double seconds, std::uint64_t max_blocks) {
    w.open();
    server::Client& c = rig_->client();
    std::deque<Pending> inflight;
    std::uint64_t submitted = 0;
    const auto limit = static_cast<std::uint64_t>(seconds * 1e9);
    auto open = [&] {
      return submitted < max_blocks &&
             (limit == 0 || mono_ns() - w.t0_ns < limit);
    };
    for (;;) {
      while (inflight.size() < static_cast<std::size_t>(kDaemonWindow) &&
             open()) {
        altx::Bytes payload(32);
        for (auto& b : payload) b = static_cast<std::uint8_t>(g.rng.next());
        const server::JobSpec spec = echo_job(payload);
        const std::uint64_t ts = mono_ns();
        inflight.push_back({c.submit(spec), ts, std::move(payload)});
        ++submitted;
      }
      if (inflight.empty()) break;
      Pending p = std::move(inflight.front());
      inflight.pop_front();
      const server::JobOutcome out = c.wait(p.id, 30'000ms);
      const double ms = ms_between(p.t0, mono_ns());
      checker_.attempt();
      w.add(ms);
      check(out, p.payload);
    }
    w.close();
  }

  void check(const server::JobOutcome& out, altx::Bytes expect) {
    if (out.status != server::JobStatus::kWon) {
      checker_.fail(std::string("daemon_pipelined: job ended ") +
                    server::to_string(out.status) + " " + out.error);
      return;
    }
    if (out.winner == 2) expect = echo_job(expect).arms[1].args;
    if (opt_.sabotage == "echo") expect[0] ^= 1;
    if ((out.winner != 1 && out.winner != 2) || out.value != expect) {
      checker_.fail("daemon_pipelined: reply from arm " +
                    std::to_string(out.winner) + " is not its echo argument");
    }
  }

  const Options& opt_;
  Gen main_;
  std::unique_ptr<DaemonRig> rig_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "race_minimal") return std::make_unique<RaceMinimal>(opt);
  if (opt.workload == "race_heap") return std::make_unique<RaceHeap>(opt);
  if (opt.workload == "race_predicted") {
    return std::make_unique<RacePredicted>(opt);
  }
  if (opt.workload == "daemon_pipelined") {
    return std::make_unique<DaemonPipelined>(opt);
  }
  throw altx::UsageError("unknown workload: " + opt.workload);
}

}  // namespace altxbench
