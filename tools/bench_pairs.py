#!/usr/bin/env python3
"""Paired perfbench runs: is a change faster than its base on this host?

    python3 tools/bench_pairs.py --base main~1 --change main \\
        --workload steady-mixed --workload steady-public-read \\
        --pairs 10 --seconds 40 [--record BENCH_cluster.json --label "..."]

Both revisions are exported from git (`git archive`, so no worktree or
network is involved) into directories under --scratch, and each builds
there on its first run. `--change .` takes the current checkout instead:
its tracked and untracked, not ignored files.

Pair i runs `perfbench/run.py --workload W --seed SEED+i --seconds N`,
unmodified, once per side, in ABBA order (base first in even pairs,
change first in odd ones), so slow drift of the host hits both sides
alike. Around every run a fixed CPU loop is timed as a host-speed probe;
each pair records how far its four probes spread, and every pair counts.

For each end-to-end metric of BENCHMARK.json the tool prints the median
of the per-pair ratios change/base, the pairs the change won (better in
the metric's direction), and both sides' medians and quartiles, over
all pairs run. With
--record it appends one record to a BENCH_*.json trajectory file,
every run's values included.
Every run must print `correct: true` with 0 failed operations; any other
run fails the tool (exit 1) after the table is printed.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_LOOPS = 2_000_000


def log(message):
    print(f"bench_pairs: {message}", file=sys.stderr, flush=True)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Writes the files of `rev` (or of the checkout for ".") into `dest`;
    returns the revision's id for the record."""
    if os.path.exists(os.path.join(dest, "perfbench", "run.py")):
        log(f"reusing {dest}")
    else:
        os.makedirs(dest, exist_ok=True)
        if rev == ".":
            files = git("ls-files", "-co", "--exclude-standard", "-z").split("\0")
            for name in filter(None, files):
                src = os.path.join(ROOT, name)
                if os.path.isfile(src):
                    os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
                    shutil.copy2(src, os.path.join(dest, name))
        else:
            archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                                     check=True, capture_output=True).stdout
            tar_path = dest + ".tar"
            with open(tar_path, "wb") as f:
                f.write(archive)
            with tarfile.open(tar_path) as tar:
                tar.extractall(dest)
            os.remove(tar_path)
    if rev == ".":
        dirty = git("status", "--porcelain")
        return git("rev-parse", "--short=12", "HEAD") + ("+dirty" if dirty else "")
    return git("rev-parse", "--short=12", rev)


def probe_s():
    """Seconds for a fixed pure-Python loop: the best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc = (acc + i * i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - t0)
    return best


def run_once(tree, workload, seed, seconds):
    """One perfbench run in `tree`; returns its result object and probes."""
    before = probe_s()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", f"--workload={workload}",
         f"--seed={seed}", f"--seconds={seconds}", "--trace=0"],
        cwd=tree, capture_output=True, text=True)
    after = probe_s()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{tree}: run printed no result (exit {proc.returncode})")
    result["probe_s"] = [before, after]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def host():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base")
    parser.add_argument("--change", required=True,
                        help="git revision of the change, or . for the checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=101, help="seed of pair 0")
    parser.add_argument("--scratch",
                        default=os.path.join(os.environ.get("TMPDIR", "/tmp"),
                                             "confide-bench-pairs"))
    parser.add_argument("--record", help="BENCH_*.json file to append a record to")
    parser.add_argument("--label", default="", help="what the record measures")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    trees = {"base": os.path.join(args.scratch, "base"),
             "change": os.path.join(args.scratch, "change")}
    revs = {"base": export(args.base, trees["base"]),
            "change": export(args.change, trees["change"])}
    log(f"base {revs['base']}, change {revs['change']}")

    incorrect = []
    record = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "base": revs["base"],
        "change": revs["change"],
        "host": host(),
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {}
            for side in order:
                log(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: {side}")
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
                r = pair[side]
                log("  " + " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.3f}"
                                    for m in end_to_end if m["name"] in r["metrics"]))
                if not r.get("correct") or r.get("failed", 1) != 0:
                    incorrect.append(f"{workload} seed {seed} {side}: correct="
                                     f"{r.get('correct')} failed={r.get('failed')}")
            probes = pair["base"]["probe_s"] + pair["change"]["probe_s"]
            pair["probe_spread"] = (max(probes) - min(probes)) / min(probes)
            pairs.append(pair)
        record["workloads"][workload] = report(workload, pairs, end_to_end)
    record["probe_s"] = statistics.median(
        p for w in record["workloads"].values() for p in w["probes_s"])

    if args.record:
        records = []
        if os.path.exists(args.record):
            with open(args.record) as f:
                records = json.load(f)
        records.append(record)
        with open(args.record, "w") as f:
            json.dump(records, f, indent=2)
            f.write("\n")
        log(f"appended a record to {args.record}")
    for line in incorrect:
        print(f"INCORRECT: {line}")
    return 1 if incorrect else 0


def report(workload, pairs, end_to_end):
    """Prints one workload's table; returns its part of the record."""
    spreads = sorted(p["probe_spread"] for p in pairs)
    print(f"\n{workload}: {len(pairs)} pairs, probe spread "
          f"{spreads[0]:.0%}-{spreads[-1]:.0%}")
    print(f"  {'metric':16s} {'ratio':>7s} {'wins':>6s}   "
          f"{'base median [q1, q3]':>26s}   {'change median [q1, q3]':>26s}")
    out = {"pairs": len(pairs), "metrics": {},
           "probes_s": [s for p in pairs for side in ("base", "change")
                        for s in p[side]["probe_s"]],
           "runs": [{"probe_spread": round(p["probe_spread"], 3),
                     **{side: {"correct": p[side].get("correct"),
                               "failed": p[side].get("failed"),
                               **{m["name"]: p[side]["metrics"][m["name"]]["value"]
                                  for m in end_to_end if m["name"] in p[side]["metrics"]}}
                        for side in ("base", "change")}}
                    for p in pairs]}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs
                         if name in p[side]["metrics"]] for side in ("base", "change")}
        if len(values["base"]) != len(pairs) or len(values["change"]) != len(pairs):
            print(f"  {name:16s} (not measured in every pair)")
            continue
        ratios = [c / b if b else float("inf")
                  for b, c in zip(values["base"], values["change"])]
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(values["base"], values["change"]))
        row = {"ratio": statistics.median(ratios), "wins": wins}
        for side in ("base", "change"):
            q1, q3 = quartiles(values[side])
            row[side] = {"median": statistics.median(values[side]), "q1": q1, "q3": q3}
        out["metrics"][name] = row
        fmt = lambda s: f"{s['median']:9.3f} [{s['q1']:.3f}, {s['q3']:.3f}]"
        print(f"  {name:16s} {row['ratio']:7.3f} {wins:3d}/{len(pairs):<2d}   "
              f"{fmt(row['base']):>26s}   {fmt(row['change']):>26s}")
    return out


if __name__ == "__main__":
    sys.exit(main())
