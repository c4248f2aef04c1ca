#!/usr/bin/env python3
"""Record an A/B comparison of two revisions with the repository benchmark.

    python3 scripts/ab.py PARENT CHANGE --workload W [--workload W ...] --seeds A-B

Checks each revision out once (`git worktree add --detach` in a temporary
directory, removed on exit) and runs BENCHMARK.json's command there in
alternating pairs, one per seed, the parent first in odd pairs; the command,
run length, metrics, directions and bounds all come from BENCHMARK.json.
Appends one JSON line per workload to BENCH_AB.jsonl (every run's metrics,
each side's quartiles, the change's wins, ties counting for neither) and
prints the Markdown table EXPERIMENTS.md pastes. Records nothing and exits
non-zero if any run fails or reports "correct": false.
"""

import argparse
import datetime
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "BENCH_AB.jsonl")


class RunFailed(Exception):
    pass


def git(*args):
    done = subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True)
    return done.stdout.strip()


def seed_range(text):
    lo, _, hi = text.partition("-")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError("expected A-B, e.g. 801-810") from None
    if hi < lo:
        raise argparse.ArgumentTypeError("empty seed range %s" % text)
    return list(range(lo, hi + 1))


def run_once(bench, checkout, workload, seed):
    """One benchmark run; returns its metrics by name."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    where = "%s seed %d in %s" % (workload, seed, checkout)
    if done.returncode != 0 or result is None:
        raise RunFailed("%s: exited %d without a result line" % (where, done.returncode))
    if result.get("correct") is not True:
        raise RunFailed("%s: reported \"correct\": %s" % (where, json.dumps(result.get("correct"))))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(metrics, runs):
    summary = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        summary[name] = {"parent": quartiles(parent), "change": quartiles(change), "wins": wins}
    return summary


def fmt(v):
    return "{:,.0f}".format(v) if abs(v) >= 1000 else "{:.4g}".format(v)


def table_rows(record, metrics):
    pairs = len(record["seeds"])
    for m in metrics:
        s = record["summary"][m["name"]]
        p, c = s["parent"], s["change"]
        delta = c["median"] - p["median"]
        rel = delta / p["median"] if p["median"] else 0.0
        worse = rel > 0 if m["better"] == "lower" else rel < 0
        yield "| %s | %s | %s (%s) | %s (%s) | %+.1f%% | %d/%d | %s | %s |" % (
            record["workload"], m["name"],
            fmt(p["median"]), fmt(p["q3"] - p["q1"]),
            fmt(c["median"]), fmt(c["q3"] - c["q1"]),
            100 * rel, s["wins"], pairs,
            "yes" if abs(delta) > p["q3"] - p["q1"] else "no",
            "OVER" if worse and abs(rel) > m["bound"] else "within",
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = [w["name"] for w in bench["workloads"]]
    for w in args.workload:
        if w not in known:
            ap.error("unknown workload %s (BENCHMARK.json has %s)" % (w, ", ".join(known)))
    metrics = bench["end_to_end"]
    parent = git("rev-parse", "--verify", args.parent + "^{commit}")
    change = git("rev-parse", "--verify", args.change + "^{commit}")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="epre-ab-")
    checkouts = {}
    records = []
    try:
        for rev in (parent, change):
            if rev not in checkouts:
                path = os.path.join(tmp, rev[:12])
                git("worktree", "add", "--detach", path, rev)
                checkouts[rev] = path
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(args.seeds):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    rev = parent if side == "parent" else change
                    run[side] = run_once(bench, checkouts[rev], workload, seed)
                    print("ab: %s pair %d/%d seed %d %s: %s" % (
                        workload, i + 1, len(args.seeds), seed, side,
                        " ".join("%s=%s" % (m["name"], fmt(run[side][m["name"]])) for m in metrics),
                    ), file=sys.stderr)
                runs.append(run)
            records.append({
                "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
                "parent": parent, "change": change, "cpus": os.cpu_count(),
                "workload": workload, "seeds": args.seeds,
                "run_seconds": bench["run_seconds"], "runs": runs,
                "summary": summarize(metrics, runs),
            })
    except RunFailed as e:
        print("ab: %s; nothing recorded" % e, file=sys.stderr)
        return 1
    finally:
        for path in checkouts.values():
            subprocess.run(["git", "worktree", "remove", "--force", path], cwd=ROOT)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)

    with open(RECORD, "a") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print("| workload | metric | parent median (IQR) | change median (IQR) | Δ | change wins "
          "| abs(Δ) > parent IQR | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for record in records:
        for row in table_rows(record, metrics):
            print(row)
    print("ab: appended %d record(s) to %s" % (len(records), RECORD), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
