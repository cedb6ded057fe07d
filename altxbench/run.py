#!/usr/bin/env python3
"""The altx benchmark: build, run one workload, check, stamp, report.

Run from the root of the repository:

  python3 altxbench/run.py --workload race_minimal --seed 1 --seconds 10 --trace 0
  python3 altxbench/run.py sweep --workloads race_minimal,race_heap --seeds 1-10 \
      --trace 0 --out .bench_results/parent
  python3 altxbench/run.py compare .bench_results/parent .bench_results/change
  python3 altxbench/run.py selftest

A run builds altxbench/ (CMake, Release) into .bench_build/altxbench, runs
the workload, prints every metric with its unit and sample count, saves the
stamped record under .bench_results/ (or --out), and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics
there are BENCHMARK.json's end_to_end list (--trace 0) or its per_layer list
(--trace 1). The exit code is 0 only when every outcome check passed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "altxbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170

WORKLOADS = ["race_minimal", "race_heap", "race_predicted", "daemon_pipelined"]

# End-to-end metrics printed and recorded beside BENCHMARK.json's, without
# a bound: the win tails move by more than the largest allowed bound (25 %)
# between sets of runs of the same code, the fail tails exist on
# race_minimal only, error_share fails the run outright, and the host.*
# rows say how disturbed the run was and how fast the host was (NOTES.md).
UNBOUNDED = ["win_p90_ms", "win_p99_ms", "fail_p50_ms", "fail_p90_ms",
             "error_share", "host.steal_pct", "host.dropped_slices",
             "host.ref_fork_us"]

# One sabotaged check per workload: each must make a run fail.
SABOTAGE = [
    ("race_minimal", "value"),
    ("race_minimal", "fail"),
    ("race_heap", "heap"),
    ("race_predicted", "value"),
    ("daemon_pipelined", "echo"),
]


def die(msg):
    print("altxbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def clean_env():
    """The environment without the program's ALTX_* knobs, so no tracing,
    governor, history or fault plan leaks into a run, and with temporary
    files (the compiler's) kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALTX_")}
    env["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "posix", "race.hpp")):
        die("program sources (src/) not found under %s" % ROOT)
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, env=clean_env())
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "altxbench")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the program and benchmark sources."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if p.returncode == 0 and p.stdout.strip():
            return p.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for top in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha1:" + h.hexdigest()


def run_binary(binary, workload, seed, seconds, trace, sabotage=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if sabotage:
        cmd += ["--sabotage", sabotage]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           env=clean_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    record = None
    for line in p.stdout.splitlines():
        if line.startswith("ALTXBENCH "):
            record = json.loads(line[len("ALTXBENCH "):])
    return p.returncode, record


def fmt(v):
    return "%.6g" % v


def print_record(rec, spec):
    s = rec["stamp"]
    print("altxbench %s seed=%s trace=%s seconds=%s" %
          (rec["workload"], rec["seed"], rec["trace"], s["seconds"]))
    print("  host: %s CPUs, kernel %s, build %s, source %s" %
          (s["cpus"], s["kernel"], s["build_type"], s["source"]))
    if rec["trace"] == 0:
        names = [m["name"] for m in spec["end_to_end"]] + UNBOUNDED
    else:
        names = [m["name"] for m in spec["per_layer"]] + [
            "setup_s", "error_share", "host.ref_fork_us"]
    for name in names:
        m = rec["metrics"].get(name)
        if m is None:
            print("  %-40s n/a" % name)
            continue
        n = " (n=%d)" % m["n"] if m["n"] else ""
        print("  %-40s %s %s%s" % (name, fmt(m["value"]), m["unit"], n))
    print("  outcomes: %d attempted, %d wrong" % (rec["attempted"], rec["failed"]))
    for e in rec["errors"]:
        print("  check failed: " + e)


def one_run(binary, workload, seed, seconds, trace, out_dir, sabotage=None):
    rc, rec = run_binary(binary, workload, seed, seconds, trace, sabotage)
    if rec is None:
        die("%s printed no result (exit code %d)" % (workload, rc))
    rec["exit_code"] = rc
    rec["stamp"] = {
        "cpus": os.cpu_count(),
        "kernel": os.uname().release,
        "build_type": rec.get("build_type", BUILD_TYPE),
        "source": source_id(),
        "seed": seed,
        "seconds": seconds,
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%s-trace%s.json" % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
    return rec


def contract_line(rec, spec):
    section = "end_to_end" if rec["trace"] == 0 else "per_layer"
    metrics = {}
    for m in spec[section]:
        got = rec["metrics"].get(m["name"])
        if got is None:
            die("%s did not report %s" % (rec["workload"], m["name"]))
        if got["unit"] != m["unit"]:
            die("%s reports %s in %s, BENCHMARK.json says %s" %
                (rec["workload"], m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = rec["exit_code"] == 0 and rec["failed"] == 0
    return {"correct": correct, "attempted": max(1, rec["attempted"]),
            "failed": rec["failed"], "metrics": metrics}


def cmd_run(args):
    spec = load_spec()
    if args.workload not in WORKLOADS:
        die("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    binary = build()
    rec = one_run(binary, args.workload, args.seed, args.seconds,
                  args.trace, args.out or RESULTS_DIR, args.sabotage)
    print_record(rec, spec)
    line = contract_line(rec, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += list(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cmd_sweep(args):
    spec = load_spec()
    binary = build()
    ok = True
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            rec = one_run(binary, workload, seed, args.seconds, args.trace, args.out)
            ok = ok and rec["exit_code"] == 0
            vals = " ".join("%s=%s" % (m["name"], fmt(rec["metrics"][m["name"]]["value"]))
                            for m in spec["end_to_end" if args.trace == 0 else "per_layer"][:8])
            print("%s seed=%d rc=%d %s" % (workload, seed, rec["exit_code"], vals), flush=True)
    return 0 if ok else 1


def load_set(path):
    runs = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name)) as f:
                rec = json.load(f)
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_compare(args):
    spec = load_spec()
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    a, b = load_set(args.a), load_set(args.b)
    worse = 0
    for workload in [w for w in WORKLOADS if w in a or w in b]:
        print("== %s  (A: %d runs, B: %d runs)" %
              (workload, len(a.get(workload, [])), len(b.get(workload, []))))
        print("  %-40s %-29s %-29s %8s  %s" %
              ("metric", "A median [q1, q3]", "B median [q1, q3]", "gap", "verdict"))
        names = sorted({n for side in (a, b) for r in side.get(workload, [])
                        for n in r["metrics"]})
        names.sort(key=lambda n: (n in layer_names, n))
        for name in names:
            # Layer metrics come from traced runs, the rest from untraced
            # ones (both report their own setup_s and error_share).
            trace = 1 if name in layer_names else 0
            sides = []
            for side in (a, b):
                vals = [r["metrics"][name]["value"] for r in side.get(workload, [])
                        if r["trace"] == trace and name in r["metrics"]]
                sides.append(quartiles(vals) if vals else None)
            if sides == [None, None]:
                continue
            cells = ["%-29s" % ("%s [%s, %s]" % (fmt(q[1]), fmt(q[0]), fmt(q[2]))
                                if q else "n/a") for q in sides]
            verdict, gap = "", ""
            if sides[0] and sides[1] and sides[0][1] != 0:
                g = (sides[1][1] - sides[0][1]) / abs(sides[0][1])
                gap = "%+.1f%%" % (g * 100)
                if name in bounds:
                    better, bound = bounds[name]
                    loss = g if better == "lower" else -g
                    verdict = ("WORSE than bound %.0f%%" % (bound * 100)
                               if loss > bound else "within %.0f%%" % (bound * 100))
                    worse += loss > bound
                else:
                    verdict = "layer" if name in layer_names else "unbounded"
            print("  %-40s %s %s %8s  %s" % (name, cells[0], cells[1], gap, verdict))
    return 1 if worse else 0


def cmd_selftest(args):
    """Every sabotaged check must fail its run; the same runs unsabotaged
    must pass."""
    binary = build()
    ok = True
    for workload, sabotage in SABOTAGE:
        rc, rec = run_binary(binary, workload, 1, args.seconds, 0, sabotage)
        fired = rc != 0 and rec is not None and rec["failed"] > 0
        print("%-18s sabotage=%-6s exit=%d wrong=%s  %s" %
              (workload, sabotage, rc, rec["failed"] if rec else "?",
               "ok: check fired" if fired else "FAILED: check did not fire"))
        ok = ok and fired
    for workload in WORKLOADS:
        rc, rec = run_binary(binary, workload, 1, args.seconds, 0)
        clean = rc == 0 and rec is not None and rec["failed"] == 0
        print("%-18s clean           exit=%d  %s" %
              (workload, rc, "ok" if clean else "FAILED: clean run did not pass"))
        ok = ok and clean
    return 0 if ok else 1


def main(argv):
    if argv and argv[0] in ("sweep", "compare", "selftest"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "sweep":
            p.add_argument("--workloads", default=",".join(WORKLOADS))
            p.add_argument("--seeds", default="1-10")
            p.add_argument("--seconds", type=float,
                           default=load_spec()["run_seconds"])
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--out", required=True)
            return cmd_sweep(p.parse_args(argv[1:]))
        if argv[0] == "compare":
            p.add_argument("a")
            p.add_argument("b")
            return cmd_compare(p.parse_args(argv[1:]))
        p.add_argument("--seconds", type=float, default=1)
        return cmd_selftest(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sabotage", help="break one outcome check on purpose")
    p.add_argument("--out", help="directory for the run record")
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
