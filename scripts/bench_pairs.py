#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarize.

Usage:
    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_N.json

Each directory is a source checkout with its own perfbench/run.py. The run
length, the workloads and the end-to-end metrics come from the change's
BENCHMARK.json. Pair i of PAIRS runs both sides with seed i + 1 and --trace 0,
parent first on even i and change first on odd i. A run whose output gate
fails (`correct` false) stops the script. The file keeps the last JSON line
of every run and, per pair, the index and both outcomes of every job whose
report digest or outcome differs between the sides, read from the run's
per-job records in perfbench/out/. Per workload it keeps each side's total
`failed` jobs, the count of each differing outcome pair over all pairs
("5 -> 0" is a job that exits 5 at the parent and 0 with the change) and,
per end-to-end metric, each side's median and quartiles, the number of
pairs the change won and `claim_met`: whether the change won at least
CLAIM_WINS pairs and its median is better than the parent's by more than
the parent's quartile spread (q3 - q1). After the pairs, each side runs
every workload TRACED_RUNS more times with seed 1 and --trace 1,
alternating which side runs first, and the file keeps the median self
times (`*.self_s`), the median share of each self time in its run's total
self time (the sum over the modules), which cancels the host's speed, and
the median call counts (`*.calls`) of those runs, to show in which layer a
change in the end-to-end numbers sits.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

PAIRS = 10
CLAIM_WINS = 9
TRACED_RUNS = 5


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, list]:
    """The run's last JSON line and its (outcome, digest) per job."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed nothing (exit {out.returncode})\n{out.stderr}")
    run = json.loads(lines[-1])
    if not run["correct"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed its output gate (exit {out.returncode})\n{out.stdout[-2000:]}")
    record = json.loads((checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return run, [(job["outcome"], job["digest"]) for job in record["jobs"]]


def differing_jobs(parent: list, change: list) -> list[dict]:
    """Each job whose outcome or report digest differs between the sides."""
    return [{"index": i, "parent": p[0], "change": c[0]} for i, (p, c) in enumerate(zip(parent, change)) if p != c]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def layer_medians(runs: list[dict], suffix: str) -> dict:
    """Per metric named *suffix, the median of its values over runs."""
    names = [name for name in runs[0] if name.endswith(suffix)]
    return {name: statistics.median(run[name]["value"] for run in runs) for name in names}


def self_shares(runs: list[dict]) -> dict:
    """Per *.self_s metric, the median over runs of its share of the run's
    total self time, the sum of the modules' (the names with one dot)."""
    shares = []
    for run in runs:
        names = [name for name in run if name.endswith(".self_s")]
        total = sum(run[name]["value"] for name in names if name.count(".") == 1)
        shares.append({name: run[name]["value"] / total for name in names})
    return {name: statistics.median(share[name] for share in shares) for name in shares[0]}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {"failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}}
    moves = Counter(f"{d['parent']} -> {d['change']}" for p in pairs for d in p["differing_jobs"])
    out["differing_jobs"] = dict(sorted(moves.items()))
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        before, after = spread(parent), spread(change)
        gain = after["median"] - before["median"] if higher else before["median"] - after["median"]
        out[name] = {
            "better": m["better"],
            "parent": before,
            "change": after,
            "change_wins": wins,
            "claim_met": wins >= CLAIM_WINS and gain > before["q3"] - before["q1"],
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    result = {"seconds": seconds, "pairs": PAIRS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": i + 1, "first": order[0]}
            jobs = {}
            for side in order:
                pair[side], jobs[side] = run_once(getattr(args, side), workload, i + 1, seconds)
            pair["differing_jobs"] = differing_jobs(jobs["parent"], jobs["change"])
            pairs.append(pair)
            print(workload, i + 1, {s: pair[s]["metrics"]["jobs_per_s"]["value"] for s in order}, file=sys.stderr)
        runs = {"parent": [], "change": []}
        for i in range(TRACED_RUNS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(run_once(getattr(args, side), workload, 1, seconds, trace=1)[0]["metrics"])
        traced = {side: layer_medians(runs[side], ".self_s") for side in runs}
        shares = {side: self_shares(runs[side]) for side in runs}
        calls = {side: layer_medians(runs[side], ".calls") for side in runs}
        result["workloads"][workload] = {
            "summary": summarize(pairs, bench["end_to_end"]),
            "traced_self_s_seed_1": traced,
            "traced_self_share_seed_1": shares,
            "traced_calls_seed_1": calls,
            "pairs": pairs,
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
