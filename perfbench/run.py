#!/usr/bin/env python3
"""mustab benchmark: one closed-loop client, one process, one workload.

    python3 perfbench/run.py --workload corpus|sl2_q|plane_puiseux \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  Each job goes through the public
`mustab.jobs.run_job`, one after the other, under a per-job wall-clock
limit.  Every report is checked (see `judge`) after the timed loop.

--trace 0 prints the end-to-end metrics, with times in reference seconds
(see pace.py); --trace 1 runs the same jobs with
every mustab layer wrapped (perfbench/layers.py), prints the per-layer
metrics, then runs the jobs again untraced in a fresh process to report
the tracing overhead.  Per-job records (and, traced, the spans) are written
to perfbench/out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
every report passed the output gate, 1 when one did not, 2 when the
checkout has no mustab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402  (perfbench/layers.py)
import pace  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("corpus", "sl2_q", "plane_puiseux")
# Per-job wall-clock limits.  circle_f5 takes about 45 s today; generated
# jobs take under 3 s except the sl2_q generic-cell translate (see
# workloads.sl2_q), which the limit cuts.
JOB_LIMIT_S = {"corpus": 120.0, "sl2_q": 6.0, "plane_puiseux": 5.0}
# The whole process ends within 180 s: jobs not started by then count as
# timeouts.  A traced run splits its time between the traced loop and the
# untraced reference process.
RUN_DEADLINE_S = 160.0
TRACED_LOOP_DEADLINE_S = 100.0
SETUP_SAMPLES = 15
# On corpus the median job is one of the ~0.1 s fixtures, and one run of
# such a job spread by 10-16% (interquartile range over median), in
# reference seconds, from run to run.  So the fixtures that took under
# CORPUS_SHORT_S in the run's own pass are run again in CORPUS_EXTRA_PASSES
# fresh interpreters, each fixture at most once per process, and every
# fixture's time is its median over the passes.
CORPUS_SHORT_S = 0.5
CORPUS_EXTRA_PASSES = 8
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4, 5)
CORPUS_ENTRIES = ("x1", "x2", "reduced_a2", "reduced_a2_f5", "cusp", "bounded", "circle_f5")
OUTCOMES = ("0", "2", "3", "4", "5", "timeout", "exception")

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mustab
from mustab.corpus import corpus_entries
corpus_entries()
elapsed = time.perf_counter() - t0
if not mustab.__file__.startswith(sys.argv[1]):
    sys.exit("mustab imported from " + mustab.__file__)
print(elapsed)
"""


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job.  A BaseException, so the program's
    own `except Exception` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def per_layer_metric_names() -> list[tuple[str, str]]:
    out = layers.per_layer_metric_names()
    out += [(f"corpus.{name}_s", "s") for name in CORPUS_ENTRIES]
    out += [(f"jobs.exit_{o}", "count") for o in OUTCOMES]
    out += [
        ("jobs.fail_share", "ratio"),
        ("trace.jobs_per_s_on", "1/s"),
        ("trace.jobs_per_s_off", "1/s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


# -- set-up ----------------------------------------------------------------


def measure_setup() -> float:
    """Median time, over fresh interpreters, to import mustab and load the
    corpus fixtures, in reference seconds (see pace.py): the host speed is
    probed between the interpreters."""
    host = pace.Pace()
    samples = []
    for _ in range(SETUP_SAMPLES):
        host.gap()
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        t1 = time.perf_counter()
        samples.append((float(done.stdout.strip()), t0, t1))
    host.gap()
    return statistics.median(value * host.scale(t0, t1) for value, t0, t1 in samples)


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    import mustab

    if not str(Path(mustab.__file__).resolve()).startswith(str(SRC)):
        raise SystemExit(f"mustab imported from {mustab.__file__}, not from {SRC}")


def build_jobs(workload: str, seed: int, seconds: float) -> tuple[list[dict], list[dict | None]]:
    """The job dicts of one run, and for corpus the fixture entries."""
    if workload == "corpus":
        # Index order, whatever the seed, so each job runs after the same
        # predecessors: with a shuffled order the median job (cusp or
        # reduced_a2) took 0.11-0.18 s depending on where it ran.
        from mustab.corpus import corpus_entries

        entries = [e for e in corpus_entries() if "skip" not in e["job"]]
        return [e["job"] for e in entries], entries
    jobs = workloads.GENERATED[workload](seed, seconds)
    return jobs, [None] * len(jobs)


# -- the closed loop -------------------------------------------------------


def run_loop(jobs: list[dict], limit: float, deadline: float, tracer=None, host=None) -> tuple[list[dict], float]:
    """Run every job in order; the next starts when the previous returns.
    Each result keeps the wall-clock start and end of its job.  With a
    `pace.Pace`, the host speed is probed before each job."""
    import mustab.jobs as program

    results = []
    loop_start = time.perf_counter()
    for index, job in enumerate(jobs):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            now = time.perf_counter()
            results.append(
                {"outcome": "timeout", "seconds": 0.0, "t0": now, "t1": now, "report": None, "error": "not started"}
            )
            continue
        if tracer is not None:
            tracer.job_id = index
        if host is not None:
            host.gap()
        report, error = None, None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, min(limit, remaining))
            try:
                report, code = program.run_job(job)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = str(code)
        except JobTimeout:
            outcome = "timeout"
        except Exception as exc:  # a traceback escaped run_job: counted, reported
            outcome, error = "exception", f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        results.append({"outcome": outcome, "seconds": t1 - t0, "t0": t0, "t1": t1, "report": report, "error": error})
    return results, time.perf_counter() - loop_start


# -- output gate -----------------------------------------------------------


def report_digest(report: dict | None, outcome: str) -> str:
    if report is None:
        return hashlib.sha256(outcome.encode()).hexdigest()
    body = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def judge(workload: str, result: dict, entry: dict | None) -> tuple[bool, str | None]:
    """(ok, violation).  ok: exit 0, every check pass/skipped and the output
    check met.  A violation is a report that contradicts itself or the
    fixture; a job that honestly ends in exit 2-5, a timeout or an escaped
    exception is a counted failure, not a violation.  On corpus every miss
    is a violation: the fixtures are the fixed reference."""
    outcome, report = result["outcome"], result["report"]
    if report is None:
        if workload == "corpus":
            return False, f"no report ({outcome}: {result['error']})"
        return False, None
    code = int(outcome)
    if code not in DOCUMENTED_EXIT_CODES:
        return False, f"undocumented exit code {code}"
    if report.get("schema") != "mustab-report-v1" or not all(k in report for k in ("results", "checks", "errors")):
        return False, "malformed report"
    checks = report["checks"]
    if any(v not in ("pass", "skipped", "fail") for v in checks.values()):
        return False, f"unknown check status in {checks}"
    failed = sorted(k for k, v in checks.items() if v == "fail")
    if failed and code != 5:
        return False, f"checks {failed} failed but exit {code}"
    if code == 0 and report["errors"]:
        return False, f"exit 0 with errors {report['errors']}"
    if workload == "corpus":
        from mustab.corpus import check_expected

        problems = check_expected(entry, report)
        if code != 0 or problems:
            return False, f"corpus {entry['name']}: exit {code}, {problems}"
        return True, None
    if checks.get("bounded_trivial") == "pass":
        met = True
    else:
        met = checks.get("agreement") == "pass" and checks.get("dim_equality") == "pass"
        if workload == "sl2_q":
            met = met and checks.get("conjugation") == "pass"
    if code == 0 and not met:
        return False, f"exit 0 but output check not met: {checks}"
    return code == 0, None


# -- metrics ---------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, int, int]:
    """(value, percentile, jobs beyond): the highest percentile with at
    least 10 jobs beyond it.  With 10 jobs or fewer there is none; the
    slowest job is reported as percentile 100."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100, 0
    k = n - 11
    return s[k], (100 * (k + 1)) // n, n - 1 - k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_run(args, flags: list[str], deadline_s: float) -> dict:
    """A pass over this run's jobs in a fresh process: `--reference` (all
    jobs, untraced, unpaced) or `--corpus-pass NAMES` (those fixtures,
    paced).  Returns the JSON line the child prints."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0", *flags, "--deadline", f"{deadline_s:.3f}",
    ]  # fmt: skip
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=deadline_s + 15)
    if done.returncode not in (0, 1):
        raise SystemExit(f"{flags[0]} run failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corpus-pass", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--deadline", type=float, default=RUN_DEADLINE_S, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # factor.py seeds its root-finding RNG from hash() of strings, so
        # string hash randomization changes the work a job does.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    started = time.perf_counter()
    if not (SRC / "mustab" / "__init__.py").is_file():
        print(f"no mustab sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    paced = not (args.trace or args.reference)
    setup_s = measure_setup() if paced and args.corpus_pass is None else None
    import_program()
    jobs, entries = build_jobs(args.workload, args.seed, args.seconds)
    if args.corpus_pass is not None:
        keep = args.corpus_pass.split(",")
        entries = [e for e in entries if e["name"] in keep]
        jobs = [e["job"] for e in entries]
    limit = JOB_LIMIT_S[args.workload]

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        try:
            results, wall = run_loop(jobs, limit, started + TRACED_LOOP_DEADLINE_S, tracer)
        finally:
            tracer.uninstall()
    elif args.reference:
        results, wall = run_loop(jobs, limit, started + args.deadline)
    else:
        host = pace.Pace()
        host.start()
        try:
            results, wall = run_loop(jobs, limit, started + args.deadline, host=host)
        finally:
            host.stop()
        for r in results:
            # A timeout is charged its limit: the wall-clock limit cut it,
            # whatever the host speed was.
            cut = r["seconds"] and r["outcome"] == "timeout"
            r["ref_seconds"] = limit if cut else host.reference_seconds(r["t0"], r["t1"])
    rss = peak_rss_mb()

    violations = []
    for index, (result, entry) in enumerate(zip(results, entries)):
        result["ok"], violation = judge(args.workload, result, entry)
        result["digest"] = report_digest(result["report"], result["outcome"])
        if violation:
            violations.append(f"job {index}: {violation}")
    times = [r["seconds"] for r in results]
    attempted = len(results)
    failed = sum(1 for r in results if not r["ok"])
    run_digest = hashlib.sha256("".join(r["digest"] for r in results).encode()).hexdigest()

    if args.reference:
        print(json.dumps({"jobs_per_s": attempted / wall, "job_s": times, "outcomes": [r["outcome"] for r in results]}))
        return 0 if not violations else 1
    if args.corpus_pass is not None:
        print(json.dumps({
            "names": [e["name"] for e in entries],
            "ref_s": [r["ref_seconds"] for r in results],
            "ok": [r["ok"] for r in results],
            "outcomes": [r["outcome"] for r in results],
            "digests": [r["digest"] for r in results],
            "violations": violations,
        }))  # fmt: skip
        return 0 if not violations else 1

    counts = {o: sum(1 for r in results if r["outcome"] == o) for o in OUTCOMES}
    ref_times = [r["ref_seconds"] for r in results] if paced else times
    if paced and args.workload == "corpus":
        for r in results:
            r["ref_samples"] = [r["ref_seconds"]]
        by_name = {e["name"]: r for e, r in zip(entries, results)}
        short = ",".join(name for name, r in by_name.items() if r["ref_seconds"] < CORPUS_SHORT_S)
        for _ in range(CORPUS_EXTRA_PASSES):
            remaining = RUN_DEADLINE_S - (time.perf_counter() - started)
            if not short or remaining < 20:
                break
            extra = child_run(args, ["--corpus-pass", short], remaining - 5)
            violations += [f"extra pass: {v}" for v in extra["violations"]]
            for name, t, ok, outcome, digest in zip(
                extra["names"], extra["ref_s"], extra["ok"], extra["outcomes"], extra["digests"]
            ):
                r = by_name[name]
                r["ref_samples"].append(t)
                attempted += 1
                failed += not ok
                counts[outcome] += 1
                if digest != r["digest"]:
                    violations.append(f"extra pass: {name} report differs from the first pass")
        ref_times = [statistics.median(r["ref_samples"]) for r in results]
        lines_extra = [f"corpus passes per fixture: { {n: len(r['ref_samples']) for n, r in by_name.items()} }"]
    else:
        lines_extra = []
    value, pct, beyond = tail(ref_times)
    lines = [
        f"workload {args.workload}  seed {args.seed}  jobs {attempted}  failed {failed}  trace {args.trace}",
        f"fail_share {failed / attempted:.4f} ratio",
        f"exit codes {counts}",
        f"job_tail_s is p{pct} of n={len(ref_times)} ({beyond} jobs beyond)",
        f"report digest {run_digest}",
        *lines_extra,
    ]
    metrics: dict[str, float] = {}
    if args.trace:
        metrics.update(tracer.metrics())
        corpus_times = {}
        if args.workload == "corpus":
            corpus_times = {e["name"]: r["seconds"] for e, r in zip(entries, results)}
        for name in CORPUS_ENTRIES:
            metrics[f"corpus.{name}_s"] = corpus_times.get(name, 0.0)
        for o in OUTCOMES:
            metrics[f"jobs.exit_{o}"] = counts[o]
        metrics["jobs.fail_share"] = failed / attempted
        on = attempted / wall
        ref = child_run(args, ["--reference"], RUN_DEADLINE_S - (time.perf_counter() - started))
        common = [
            i for i, (r, o) in enumerate(zip(results, ref["outcomes"])) if "timeout" not in (r["outcome"], o)
        ]
        traced_s = sum(times[i] for i in common)
        untraced_s = sum(ref["job_s"][i] for i in common)
        metrics["trace.jobs_per_s_on"] = on
        metrics["trace.jobs_per_s_off"] = ref["jobs_per_s"]
        metrics["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
        units = dict(per_layer_metric_names())
        lines.append(f"tracing overhead: {on:.4f} jobs/s traced vs {ref['jobs_per_s']:.4f} untraced")
    else:
        metrics = {
            "jobs_per_s": len(ref_times) / sum(ref_times),
            "job_p50_s": statistics.median(ref_times),
            "job_tail_s": value,
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
        lines.append(
            f"first pass, wall clock: {len(results) / wall:.4f} jobs/s, job p50 {statistics.median(times):.4f} s; "
            f"host probe median {host.median_probe_s():.6f} s, reference {pace.REFERENCE_PROBE_S} s"
        )
    for name, val in metrics.items():
        lines.append(f"{name} {val} {units[name]}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "digest": run_digest,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "metrics": metrics,
        "violations": violations,
        "jobs": [
            {k: r.get(k) for k in ("outcome", "seconds", "ref_seconds", "ref_samples", "ok", "digest", "error")}
            | {"input": job}
            for r, job in zip(results, jobs)
        ],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write_spans(str(stem) + "-spans.json")

    for line in lines:
        print(line)
    for v in violations:
        print(f"OUTPUT GATE VIOLATION {v}")
    print(
        json.dumps(
            {
                "correct": not violations,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
