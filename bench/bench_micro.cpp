// Microbenchmarks (google-benchmark) for the hot paths of the library:
// predicate algebra, COW paging, kernel event throughput, unification,
// solver inference rate, and the POSIX primitives.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <string_view>
#include <vector>

#include "core/executor.hpp"
#include "msg/predicate.hpp"
#include "posix/alt_heap.hpp"
#include "posix/race.hpp"
#include "prolog/solver.hpp"
#include "altc/translate.hpp"
#include "consensus/majority.hpp"
#include "posix/file_heap.hpp"
#include "report.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace altx;

void BM_PredicateResolve(benchmark::State& state) {
  for (auto _ : state) {
    Predicate p = Predicate::for_child(Predicate{}, 5, {1, 2, 3, 4, 5, 6, 7, 8});
    for (Pid pid = 1; pid <= 8; ++pid) {
      benchmark::DoNotOptimize(p.resolve(pid, Resolution::kFailed));
    }
  }
}
BENCHMARK(BM_PredicateResolve);

void BM_PredicateClassify(benchmark::State& state) {
  Predicate receiver;
  receiver.require_complete(3);
  Message m;
  m.sender = 9;
  m.sender_speculative = true;
  m.sending_predicate.require_complete(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify_reception(receiver, m));
  }
}
BENCHMARK(BM_PredicateClassify);

void BM_CowCloneAndFault(benchmark::State& state) {
  const auto pages = static_cast<std::size_t>(state.range(0));
  sim::FrameStore store(8);
  sim::AddressSpace parent(store, pages);
  for (auto _ : state) {
    sim::AddressSpace child = sim::AddressSpace::cow_clone(parent);
    child.write(0, 0, 1);  // one fault
    benchmark::DoNotOptimize(child.pages());
  }
}
BENCHMARK(BM_CowCloneAndFault)->Arg(80)->Arg(1024);

void BM_SimAltBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Kernel::Config cfg;
    cfg.machine = sim::MachineModel::shared_memory_mp(static_cast<int>(n));
    cfg.address_space_pages = 16;
    core::BlockSpec b;
    for (std::size_t i = 0; i < n; ++i) {
      core::AltSpec a;
      a.compute = static_cast<SimTime>(10 * kMsec * (i + 1));
      b.alts.push_back(a);
    }
    benchmark::DoNotOptimize(core::run_concurrent(b, cfg).elapsed);
  }
}
BENCHMARK(BM_SimAltBlock)->Arg(2)->Arg(8);

void BM_Unify(benchmark::State& state) {
  prolog::SymbolTable sym;
  const prolog::Symbol f = sym.intern("f");
  // Two deep terms differing only at the last leaf variable.
  prolog::TermPtr a = prolog::mk_int(1);
  prolog::TermPtr b = prolog::mk_var(0);
  for (int i = 0; i < 50; ++i) {
    a = prolog::mk_struct(f, {a, prolog::mk_int(i)});
    b = prolog::mk_struct(f, {b, prolog::mk_int(i)});
  }
  for (auto _ : state) {
    prolog::Bindings bind;
    bind.reserve_slots(1);
    benchmark::DoNotOptimize(prolog::unify(bind, a, b));
  }
}
BENCHMARK(BM_Unify);

void BM_SolverInferences(benchmark::State& state) {
  prolog::Database db;
  db.consult(R"(
    append([], L, L).
    append([H|T], L, [H|R]) :- append(T, L, R).
  )");
  const auto q = prolog::parse_query(
      db.symbols, "append([1,2,3,4,5,6,7,8,9,10], [11,12], Z)");
  for (auto _ : state) {
    prolog::Solver s(db);
    benchmark::DoNotOptimize(s.solve_first(q).has_value());
  }
}
BENCHMARK(BM_SolverInferences);

void BM_RealForkRace(benchmark::State& state) {
  for (auto _ : state) {
    auto r = posix::race<int>({
        [] { return std::optional<int>(1); },
        [] { ::usleep(1000); return std::optional<int>(2); },
    });
    benchmark::DoNotOptimize(r.has_value());
  }
}
BENCHMARK(BM_RealForkRace)->Unit(benchmark::kMillisecond);

// The owner's own tracking over a 64-page arena, 16 pages written: the swap
// of the private spare in over the shared view, the scan (twice: once for
// serialize_dirty, once at end_tracking), the write-back into the shared
// view and the swap back. No arm takes this path; an arm's scan is part of
// every heap race below.
void BM_AltHeapDirtyTracking(benchmark::State& state) {
  posix::AltHeap heap(64);
  for (auto _ : state) {
    heap.begin_tracking();
    for (std::size_t p = 0; p < 64; p += 4) {
      heap.at<std::uint64_t>(p * heap.page_size())[0] = p;
    }
    benchmark::DoNotOptimize(heap.serialize_dirty().size());
    heap.end_tracking();
  }
}
BENCHMARK(BM_AltHeapDirtyTracking);

// The read side of an arm: a heap race whose one (winning) arm reads
// state.range(0) scattered pages of a populated 16 MiB arena and writes
// none. arm_read_us is the arm's own time over those reads, first-read
// faults included; the iteration time is the whole race.
void BM_HeapArmScatteredReads(benchmark::State& state) {
  constexpr std::size_t kPages = 4096;
  const auto reads = static_cast<std::size_t>(state.range(0));
  posix::AltHeap heap(kPages);
  const std::size_t psz = heap.page_size();
  for (std::size_t p = 0; p < kPages; ++p) {
    heap.at<std::uint64_t>(p * psz)[0] = p;
  }
  posix::RaceOptions ro;
  ro.heap = &heap;
  double read_us = 0;
  for (auto _ : state) {
    auto r = posix::race<long>(
        {[&]() -> std::optional<long> {
          const auto t0 = std::chrono::steady_clock::now();
          std::uint64_t sum = 0;
          for (std::size_t i = 0; i < reads; ++i) {
            sum += heap.at<std::uint64_t>((i * 2654435761u % kPages) * psz)[0];
          }
          benchmark::DoNotOptimize(sum);
          return std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
              .count();
        }},
        ro);
    if (r.has_value()) read_us += static_cast<double>(r->value) / 1e3;
  }
  state.counters["arm_read_us"] =
      benchmark::Counter(read_us, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HeapArmScatteredReads)
    ->Arg(0)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// The nested superset: one heap race whose arm first writes state.range(0)
// pages of a 16 MiB arena, then runs a nested one-arm race whose arm writes
// one page. The nested arm's scan returns its parent arm's copies too, so
// the inner pull carries range(0) + 1 pages; the iteration time is the
// whole outer race.
void BM_HeapNestedArm(benchmark::State& state) {
  constexpr std::size_t kPages = 4096;
  const auto written = static_cast<std::size_t>(state.range(0));
  posix::AltHeap heap(kPages);
  const std::size_t psz = heap.page_size();
  posix::RaceOptions ro;
  ro.heap = &heap;
  for (auto _ : state) {
    auto r = posix::race<int>(
        {[&]() -> std::optional<int> {
          for (std::size_t p = 0; p < written; ++p) {
            heap.at<std::uint64_t>(p * psz)[0] = p;
          }
          auto inner = posix::race<int>(
              {[&]() -> std::optional<int> {
                heap.at<std::uint64_t>((kPages - 1) * psz)[0] = 1;
                return 1;
              }},
              ro);
          if (!inner.has_value()) return std::nullopt;
          return static_cast<int>(inner->pages_absorbed);
        }},
        ro);
    if (!r.has_value() || r->value != static_cast<int>(written) + 1) {
      state.SkipWithError("nested race lost or pulled the wrong pages");
      break;
    }
  }
}
BENCHMARK(BM_HeapNestedArm)->Arg(0)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_ConsensusRound(benchmark::State& state) {
  const int arbiters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    net::Network::Config nc;
    nc.node_count = static_cast<std::size_t>(arbiters) + 1;
    nc.base_latency = 2 * kMsec;
    nc.seed = 1;
    net::Network net(nc);
    consensus::MajoritySync::Config mc;
    mc.arbiters = arbiters;
    consensus::MajoritySync sync(net, mc);
    sync.add_candidate(0, static_cast<NodeId>(arbiters), 0);
    sync.start();
    net.run();
    benchmark::DoNotOptimize(sync.winner().has_value());
  }
}
BENCHMARK(BM_ConsensusRound)->Arg(3)->Arg(9);

void BM_AltcTranslate(benchmark::State& state) {
  std::string src = "int f() {\n";
  for (int b = 0; b < 10; ++b) {
    src += "ALTBEGIN(x : int)\nALTERNATIVE\n  ALTRETURN(1);\nALTERNATIVE\n"
           "  ALTRETURN(2);\nALTEND\n";
  }
  src += "}\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(altc::translate(src).size());
  }
}
BENCHMARK(BM_AltcTranslate);

void BM_FileHeapCommit(benchmark::State& state) {
  const std::string path = "/tmp/altx_bench_fileheap";
  posix::FileHeap heap(path, 64);
  for (auto _ : state) {
    for (std::uint32_t p = 0; p < 64; p += 8) {
      heap.at<std::uint64_t>(p * heap.page_size())[0]++;
      heap.mark_dirty(p);
    }
    benchmark::DoNotOptimize(heap.commit());
  }
  ::unlink(path.c_str());
}
BENCHMARK(BM_FileHeapCommit)->Unit(benchmark::kMicrosecond);

void BM_PrologFindall(benchmark::State& state) {
  prolog::Database db;
  std::string text;
  for (int i = 0; i < 100; ++i) text += "n(" + std::to_string(i) + ").\n";
  db.consult(text);
  const auto q = prolog::parse_query(db.symbols, "findall(X, n(X), L)");
  for (auto _ : state) {
    prolog::Solver s(db);
    benchmark::DoNotOptimize(s.solve_first(q).has_value());
  }
}
BENCHMARK(BM_PrologFindall);

}  // namespace

// Custom main instead of benchmark_main: default --benchmark_out to
// BENCH_micro.json (google-benchmark's own JSON schema) so every run leaves
// a machine-readable report CI can diff. An explicit --benchmark_out on the
// command line wins; ALTX_BENCH_OUT redirects the default like the table
// benches.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out")) {
      has_out = true;
    }
  }
  std::string out_flag;
  std::string fmt_flag;
  if (!has_out) {
    out_flag = "--benchmark_out=" + altx::bench::report_path("micro");
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
