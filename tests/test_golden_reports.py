"""Full job reports, `timing` removed, against tests/data/golden_reports.json.

The corpus summary keeps only statuses and checks; this file keeps whole
reports (ideals, parameterizations, certificates, notes), so a change that
must leave every answer alone is checked to do so.  Only a change that
fixes a wrong answer regenerates the file, and says so:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import sys
from pathlib import Path

import pytest

from mustab.corpus import corpus_entries
from mustab.jobs import run_job

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"


def _series(*terms):
    return {"terms": [[e, c] for e, c in terms]}


# GL(2) [[t^-1, 1], [0, t^3]]: y = det^-1 = t^-2 lies below every entry
GL2_BRANCH = {
    "name": "gl2_y_below_entries",
    "field": {"kind": "Q"},
    "group": {"kind": "GL", "n": 2},
    "command": "stab",
    "algorithm": "both",
    "input": {"branch": {"entries": [
        [_series(("-1", "1")), _series(("0", "1"))],
        [_series(), _series(("3", "1"))],
    ]}},
    "budgets": {"precision": 12, "degree_bound": 4, "order_budget": 6},
}


def golden_jobs() -> dict:
    jobs = {e["name"]: e["job"] for e in corpus_entries() if "skip" not in e["job"]}
    jobs[GL2_BRANCH["name"]] = GL2_BRANCH
    return jobs


def report_without_timing(job: dict) -> dict:
    report, code = run_job(job)
    del report["timing"]
    return json.loads(json.dumps({"exit_code": code, "report": report}))


@pytest.mark.parametrize("name", sorted(golden_jobs()))
def test_report_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert report_without_timing(golden_jobs()[name]) == golden[name]


def test_reports_do_not_depend_on_the_jobs_run_before():
    """The process-wide memos (ansatz kernels, subgroup checks, binomial
    rows) fill in whatever order jobs come: the corpus fixtures and the
    seed-1 SL2(Q) benchmark jobs (perfbench/workloads.py) give the same
    reports run forward and then reversed in one process."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    jobs = list(golden_jobs().values()) + workloads.sl2_q(1, workloads.ROUND_SECONDS["sl2_q"])
    forward = [report_without_timing(job) for job in jobs]
    backward = [report_without_timing(job) for job in reversed(jobs)]
    assert backward[::-1] == forward


if __name__ == "__main__":
    reports = {name: report_without_timing(job) for name, job in sorted(golden_jobs().items())}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
