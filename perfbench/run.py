#!/usr/bin/env python3
"""Benchmark of record for the OMEGA mapper (see perfbench/NOTES.md).

Run one workload (builds the program from source first):

    python3 perfbench/run.py --workload search_warm --seed 1 --seconds 20 --trace 0

prints every metric by name with its unit, writes a run record under
.bench_build/records/, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Compare two sets of run records against BENCHMARK.json's bounds:

    python3 perfbench/run.py compare BASE_RECORDS NEW_RECORDS

Run the benchmark's own tests (C++ unit tests and compare-mode tests):

    python3 perfbench/run.py selftest
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 1


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(targets):
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError("program sources (src/) are missing from this checkout")
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    for target in targets:
        cmd += ["--target", target]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return out


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# ---- one run -----------------------------------------------------------------

def run_once(args):
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise RuntimeError(f"unknown workload {args.workload!r}; one of {sorted(names)}")
    out = build(["perfbench"])
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    if args.trace:
        traces = out.parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(traces / f"{tag}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = got

    record = {
        "git_rev": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "nproc": os.cpu_count(),
        "time": stamp,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "metrics": metrics,
        "facts": result["record"],
    }
    records = Path(args.record_dir) if args.record_dir else out.parent / "records"
    records.mkdir(parents=True, exist_ok=True)
    with open(records / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    for name in sorted(result["record"]):
        print(f"  [record] {name} = {result['record'][name]}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


# ---- compare -----------------------------------------------------------------

def spread(values):
    """Interquartile range as a share of the median (inf below 2 values)."""
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(base, new, better, bound):
    """One metric of one workload, per choosing-metrics section 6.5.

    Returns (verdict, change) where change is the relative move of the new
    median against the base median, positive when it is worse.
    """
    bm, nm = statistics.median(base), statistics.median(new)
    if bm == 0:
        change = 0.0 if nm == 0 else math.inf
    else:
        change = (nm - bm) / abs(bm)
    if better == "higher":
        change = -change
    lower = better == "lower"
    all_better = max(new) < min(base) if lower else min(new) > max(base)
    if max(spread(base), spread(new)) > bound:
        return ("improved" if all_better else "unresolved"), change
    if change > bound:
        return "regressed", change
    if -change > spread(base):
        return "improved", change
    return "within-bound", change


def load_records(location, out=sys.stdout):
    """Run records of a directory (or one file); runs that failed their
    output checks are reported and left out."""
    path = Path(location)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("correct", True):
            records.append(record)
        else:
            print(f"skipping {f}: the run failed its output checks", file=out)
    return records


def compare(base_loc, new_loc, spec=None, out=sys.stdout):
    """Prints per-workload, per-metric deltas; returns the verdict rows."""
    spec = spec or load_spec()
    base, new = load_records(base_loc, out), load_records(new_loc, out)
    rows = []
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for w in spec["workloads"]:
            b = [r for r in base if r["workload"] == w["name"] and r["trace"] == trace]
            n = [r for r in new if r["workload"] == w["name"] and r["trace"] == trace]
            if not b or not n:
                continue
            for m in metrics:
                bv = [r["metrics"][m["name"]]["value"] for r in b]
                nv = [r["metrics"][m["name"]]["value"] for r in n]
                if "bound" in m:
                    v, change = verdict(bv, nv, m["better"], m["bound"])
                else:
                    v, change = "info", verdict(bv, nv, m["better"], math.inf)[1]
                rows.append({"workload": w["name"], "metric": m["name"],
                             "unit": m["unit"], "base": statistics.median(bv),
                             "new": statistics.median(nv), "change": change,
                             "base_spread": spread(bv), "new_spread": spread(nv),
                             "bound": m.get("bound"), "verdict": v,
                             "runs": (len(bv), len(nv))})
    revs = sorted({r.get("git_rev", "?") for r in base}), sorted({r.get("git_rev", "?") for r in new})
    print(f"base {', '.join(revs[0])}  vs  new {', '.join(revs[1])}", file=out)
    print(f"{'workload':15s} {'metric':26s} {'base':>12s} {'new':>12s} {'worse by':>9s} "
          f"{'spread b/n':>13s} {'bound':>6s}  verdict", file=out)
    for r in rows:
        bound = "" if r["bound"] is None else f"{r['bound']:.2f}"
        print(f"{r['workload']:15s} {r['metric']:26s} {r['base']:12.5g} {r['new']:12.5g} "
              f"{r['change']:+9.1%} {r['base_spread']:6.1%}/{r['new_spread']:6.1%} "
              f"{bound:>6s}  {r['verdict']} ({r['runs'][0]}/{r['runs'][1]} runs)", file=out)
    return rows


# ---- selftest ----------------------------------------------------------------

def selftest():
    out = build(["perfbench", "perfbench_test"])
    rc = subprocess.run([str(out / "perfbench_test")], check=False).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         str(BENCH_DIR / "tests"), "-p", "test_*.py"],
                        check=False).returncode
    return 0 if rc == 0 and py == 0 else 1


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", help="directory (or file) of base run records")
        p.add_argument("new", help="directory (or file) of new run records")
        a = p.parse_args(argv[1:])
        rows = compare(a.base, a.new)
        return 1 if any(r["verdict"] == "regressed" for r in rows) else 0
    if argv and argv[0] == "selftest":
        return selftest()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=None,
                   help="measured seconds (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-dir", default=None,
                   help="where to write the run record (default .bench_build/records)")
    a = p.parse_args(argv)
    try:
        if a.seconds is None:
            a.seconds = load_spec()["run_seconds"]
        return run_once(a)
    except (RuntimeError, OSError, ValueError, KeyError, IndexError,
            subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
