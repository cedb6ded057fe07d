// Per-layer probes. Every number here is timed by the benchmark itself
// around public calls into src/posix, src/server and src/obs; nothing
// inside the program is instrumented for it.
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <new>

#include "bench.hpp"
#include "posix/alt_group.hpp"
#include "posix/fd.hpp"
#include "posix/governor.hpp"
#include "server/protocol.hpp"

namespace altxbench {

namespace posix = altx::posix;
namespace server = altx::server;
using namespace std::chrono_literals;

namespace {

double us(std::uint64_t t0, std::uint64_t t1) {
  return t1 > t0 ? static_cast<double>(t1 - t0) / 1e3 : 0.0;
}

/// A MAP_SHARED anonymous object: children write it, the parent reads it
/// after the child has been reaped.
template <typename T>
class Shared {
 public:
  Shared() {
    void* p = ::mmap(nullptr, sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) altx::throw_errno("mmap(shared stamps)");
    obj_ = new (p) T();
  }
  ~Shared() {
    obj_->~T();
    ::munmap(obj_, sizeof(T));
  }
  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;
  T* operator->() const { return obj_; }

 private:
  T* obj_;
};

/// Arm entry/exit times, written by the arms themselves.
struct ArmStamps {
  std::atomic<std::uint64_t> enter[2];
  std::atomic<std::uint64_t> exit[2];
};

}  // namespace

// ---- alt_group --------------------------------------------------------------

void probe_alt_group(const Options& opt, Metrics& m, Checker& check) {
  constexpr int kWinBlocks = 300;
  constexpr int kFailBlocks = 12;
  Shared<ArmStamps> st;
  altx::Summary spawn, arm_start, select, fail_detect, forks;
  Rng rng(opt.seed ^ 0xa17);
  for (int b = 0; b < kWinBlocks + kFailBlocks; ++b) {
    const bool fail = b >= kWinBlocks;
    const int token = static_cast<int>(rng.below(1u << 30));
    for (int i = 0; i < 2; ++i) {
      st->enter[i].store(0);
      st->exit[i].store(0);
    }
    // The calls race<int> makes, in its order: spawn, run the arm and
    // commit or abort in each child, wait in the parent.
    posix::AltGroup g;
    const std::uint64_t t0 = mono_ns();
    const int who = g.alt_spawn(2);
    if (who > 0) {
      st->enter[who - 1].store(mono_ns());
      if (who == 2) ::usleep(1000);
      st->exit[who - 1].store(mono_ns());
      if (fail) g.child_abort();
      g.child_commit(posix::race_encode<int>(token + who - 1));
    }
    const std::uint64_t t1 = mono_ns();
    const auto win = g.alt_wait(10'000ms);
    const std::uint64_t t2 = mono_ns();
    forks.add(static_cast<double>(g.child_statuses().size()));
    check.attempt();
    if (fail) {
      if (win.has_value() || g.verdict() != posix::WaitVerdict::kAllFailed) {
        check.fail("alt_group probe: all-fail block did not FAIL");
        continue;
      }
      const std::uint64_t last =
          std::max(st->exit[0].load(), st->exit[1].load());
      fail_detect.add(ms_between(last, t2));
      continue;
    }
    if (!win.has_value() || win->index < 1 || win->index > 2 ||
        posix::race_decode<int>(win->result) != token + win->index - 1) {
      check.fail("alt_group probe: wrong winner");
      continue;
    }
    spawn.add(us(t0, t1));
    arm_start.add(us(t0, st->enter[win->index - 1].load()));
    select.add(us(st->exit[win->index - 1].load(), t2));
  }
  m.pct("alt_group.spawn_us", spawn, 50, "us");
  m.pct("alt_group.arm_start_us", arm_start, 50, "us");
  m.pct("alt_group.select_us", select, 50, "us");
  m.pct("alt_group.fail_detect_ms", fail_detect, 50, "ms");
  m.mean("alt_group.forks_per_block", forks, "count");
}

// ---- alt_heap ---------------------------------------------------------------

namespace {

/// Sends `patch` from a forked child to this process with write_frame /
/// read_frame over a pipe; returns child send start -> parent receipt, us.
double transport_us(const altx::Bytes& patch, Checker& check) {
  Shared<std::atomic<std::uint64_t>> sent;
  posix::Pipe pipe = posix::Pipe::create();
  const pid_t pid = ::fork();
  if (pid < 0) altx::throw_errno("fork(transport probe)");
  if (pid == 0) {
    pipe.read_end.reset();
    sent->store(mono_ns());
    posix::write_frame(pipe.write_end.get(), patch);
    ::_exit(0);
  }
  pipe.write_end.reset();
  const auto frame = posix::read_frame(pipe.read_end.get());
  const std::uint64_t t1 = mono_ns();
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!frame.has_value() || *frame != patch) {
    check.fail("alt_heap probe: frame differs from the patch sent");
  }
  return us(sent->load(), t1);
}

}  // namespace

void probe_alt_heap(const Options& opt, Workload& w, Metrics& m) {
  posix::AltHeap* heap = w.arena();
  std::unique_ptr<posix::AltHeap> own;
  if (heap == nullptr) {
    own = std::make_unique<posix::AltHeap>(kHeapPages);
    std::memset(own->base(), 0, own->size_bytes());  // prefault
    heap = own.get();
  }
  const std::size_t psz = heap->page_size();
  Checker& check = w.checker();
  Rng rng(opt.seed ^ 0x4ea9);
  for (const std::size_t k : {std::size_t{1}, kBulkPages}) {
    const int reps = k == 1 ? 200 : 12;
    altx::Summary track, serialize, transport, absorb, bytes;
    for (int r = 0; r < reps; ++r) {
      const std::size_t start = rng.below(heap->pages());
      // Rewrite each page's first word with its own value: every page takes
      // its tracking fault and the arena content never changes, so the
      // workload's own expectations still hold after the probe.
      const std::uint64_t t0 = mono_ns();
      heap->begin_tracking();
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t p = (start + j) % heap->pages();
        auto* word = reinterpret_cast<volatile std::uint64_t*>(
            heap->at<std::uint64_t>(p * psz));
        *word = *word;
      }
      const std::uint64_t t1 = mono_ns();
      const altx::Bytes patch = heap->serialize_dirty();
      const std::uint64_t t2 = mono_ns();
      heap->end_tracking();
      transport.add(transport_us(patch, check));
      const std::uint64_t t3 = mono_ns();
      const std::size_t applied = heap->apply_patch(patch);
      const std::uint64_t t4 = mono_ns();
      check.attempt();
      if (applied != k) check.fail("alt_heap probe: patch page count");
      track.add(us(t0, t1) / static_cast<double>(k));
      serialize.add(us(t1, t2));
      absorb.add(us(t3, t4));
      bytes.add(static_cast<double>(patch.size()) / static_cast<double>(k));
    }
    const std::string sfx = ".p" + std::to_string(k);
    m.pct("alt_heap.track_us_per_page" + sfx, track, 50, "us");
    m.pct("alt_heap.serialize_us" + sfx, serialize, 50, "us");
    m.pct("alt_heap.transport_us" + sfx, transport, 50, "us");
    m.pct("alt_heap.absorb_us" + sfx, absorb, 50, "us");
    m.mean("alt_heap.patch_bytes_per_page" + sfx, bytes, "B");
  }
}

// ---- predictor, history -----------------------------------------------------

void probe_predictor(const Options& opt, Workload& w, Metrics& m) {
  constexpr int kBatches = 200;
  constexpr int kPerBatch = 50;
  constexpr int kRaces = 40;
  PredictorRig* rig = w.predictor();
  std::unique_ptr<PredictorRig> own;
  if (rig == nullptr) {
    own = std::make_unique<PredictorRig>();
    rig = own.get();
  }
  altx::Summary plan, record;
  int planned = 0;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = mono_ns();
    for (int i = 0; i < kPerBatch; ++i) {
      planned += rig->planner().plan(PredictorRig::kSite, 3, false).launched;
    }
    plan.add(us(t0, mono_ns()) / kPerBatch);
  }
  // A site of its own, so the workload's history is left as it was.
  constexpr std::uint64_t kProbeSite = PredictorRig::kSite + 1;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = mono_ns();
    for (int i = 0; i < kPerBatch; ++i) {
      const auto wall = 2'000'000 + static_cast<std::uint64_t>(i);
      rig->store().record(kProbeSite, 1, wall, 1'000'000, true);
    }
    record.add(us(t0, mono_ns()) / kPerBatch);
  }
  Checker& check = w.checker();
  if (planned == 0) check.fail("predictor probe: plans launched no arm");
  altx::Summary hedged, losers, wasted, ratio;
  Rng rng(opt.seed ^ 0xe19);
  for (int i = 0; i < kRaces; ++i) {
    const int token = static_cast<int>(rng.below(1u << 30));
    posix::RaceReport rep;
    const auto r = predicted_race(*rig, token, &rep);
    check.attempt();
    if (!r.has_value() || r->value != token + r->winner - 1) {
      check.fail("predictor probe: wrong winner");
    }
    hedged.add(rep.pred_hedged);
    losers.add(rep.predicted_losers);
    wasted.add(static_cast<double>(rep.spec.wasted_cpu_ns) / 1e6);
    ratio.add(rep.spec.overhead_ratio());
  }
  m.pct("predictor.plan_us", plan, 50, "us");
  m.pct("history.record_us", record, 50, "us");
  m.mean("predictor.hedged_per_block", hedged, "count");
  m.mean("predictor.predicted_losers_per_block", losers, "count");
  m.mean("spec.wasted_cpu_ms_per_block", wasted, "ms");
  m.pct("spec.overhead_ratio", ratio, 50, "ratio");
}

// ---- server -----------------------------------------------------------------

void probe_server(const Options& opt, Workload& w, Metrics& m) {
  constexpr int kJobs = 1000;
  DaemonRig* rig = w.daemon();
  std::unique_ptr<DaemonRig> own;
  if (rig == nullptr) {
    own = std::make_unique<DaemonRig>(socket_path("probe"));
    rig = own.get();
  }
  server::Client& c = rig->client();
  Checker& check = w.checker();
  const server::WireStats s0 = c.stats();
  altx::Summary submit, encode, decode, rpc, queue, exec;
  struct Pending {
    std::uint64_t id;
    std::uint64_t t0;
    altx::Bytes payload;
  };
  std::deque<Pending> inflight;
  Rng rng(opt.seed ^ 0x5e4);
  int submitted = 0;
  while (submitted < kJobs || !inflight.empty()) {
    while (submitted < kJobs &&
           inflight.size() < static_cast<std::size_t>(kDaemonWindow)) {
      altx::Bytes payload(32);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
      const server::JobSpec spec = echo_job(payload);
      const std::uint64_t e0 = mono_ns();
      const altx::Bytes wire = server::encode_job(spec);
      const std::uint64_t e1 = mono_ns();
      encode.add(us(e0, e1));
      if (wire.empty()) check.fail("server probe: empty job encoding");
      const std::uint64_t t0 = mono_ns();
      const std::uint64_t id = c.submit(spec);
      submit.add(us(t0, mono_ns()));
      inflight.push_back({id, t0, std::move(payload)});
      ++submitted;
    }
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    const server::JobOutcome out = c.wait(p.id, 30'000ms);
    const double wall_us = us(p.t0, mono_ns());
    check.attempt();
    if (out.status != server::JobStatus::kWon ||
        (out.winner == 1 && out.value != p.payload)) {
      check.fail("server probe: echo reply differs from its argument");
    }
    const altx::Bytes reply = server::encode_outcome(out);
    const std::uint64_t d0 = mono_ns();
    const server::JobOutcome back = server::decode_outcome(reply);
    decode.add(us(d0, mono_ns()));
    if (back.value != out.value) check.fail("server probe: outcome round trip");
    queue.add(static_cast<double>(out.queue_ns) / 1e3);
    exec.add(static_cast<double>(out.exec_ns) / 1e3);
    rpc.add(wall_us - static_cast<double>(out.queue_ns + out.exec_ns) / 1e3);
  }
  const server::WireStats s1 = c.stats();
  m.pct("client.submit_us", submit, 50, "us");
  m.pct("protocol.encode_us", encode, 50, "us");
  m.pct("protocol.decode_us", decode, 50, "us");
  m.pct("server.rpc_us", rpc, 50, "us");
  m.pct("server.queue_us", queue, 50, "us");
  m.pct("server.exec_us", exec, 50, "us");
  m.set("server.worker_spawns_per_job",
        static_cast<double>(s1.worker_spawns - s0.worker_spawns) / kJobs,
        "count", kJobs);
  m.set("server.denied_share",
        static_cast<double>(s1.denied - s0.denied) / kJobs, "ratio", kJobs);
}

// ---- governor ---------------------------------------------------------------

void probe_governor(Metrics& m, Checker& check) {
  constexpr int kBatches = 200;
  constexpr int kPerBatch = 100;
  posix::GovernorConfig gc;
  gc.tokens = std::max(2, static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)));
  posix::SpeculationGovernor gov(gc);
  altx::Summary admit;
  for (int b = 0; b < kBatches; ++b) {
    int granted = 0;
    const std::uint64_t t0 = mono_ns();
    for (int i = 0; i < kPerBatch; ++i) {
      granted += gov.admit(2) == posix::Admission::kGranted ? 1 : 0;
      gov.release(2);
    }
    admit.add(us(t0, mono_ns()) / kPerBatch);
    check.attempt();
    if (granted != kPerBatch) check.fail("governor probe: admission denied");
  }
  m.pct("governor.admit_us", admit, 50, "us");
}

}  // namespace altxbench
