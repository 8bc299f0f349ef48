"""Bundled corpus: committed job fixtures with expected outputs.

Expected ideals are compared structurally (mutual membership), never
textually, since reduced bases are order-sensitive.
"""

from __future__ import annotations

import json
import os

from .fields import FieldSpec
from .groups import GroupScheme
from .ideals import Ideal, ideal_equal
from .jobs import EXIT_OK, EXIT_VERIFY, run_job


def _load(name: str) -> dict:
    with open(os.path.join(os.path.dirname(__file__), "corpus_data", name)) as f:
        return json.load(f)


def corpus_entries() -> list[dict]:
    index = _load("index.json")
    out = []
    for name in index["entries"]:
        job = _load(f"{name}.job.json")
        try:
            expected = _load(f"{name}.expected.json")
        except FileNotFoundError:
            expected = None
        out.append({"name": name, "job": job, "expected": expected})
    return out


def _parse_expected_ideal(gens: list[str], job: dict) -> Ideal:
    field = FieldSpec.from_json(job["field"])
    scheme = GroupScheme.from_json(job["group"], field)
    ring = scheme.coordinate_ring()
    return Ideal(ring, tuple(ring.parse(s) for s in gens))


def _computed_ideal(stab: dict, job: dict) -> Ideal:
    return _parse_expected_ideal(stab["subgroup"]["ideal"], job)


def check_expected(entry: dict, report: dict) -> list[str]:
    """Structural comparison against the expected-output fixture; returns a
    list of mismatch descriptions."""
    job, expected = entry["job"], entry["expected"]
    problems: list[str] = []
    if expected is None:
        return problems
    stabs = report["results"].get("stabilizers", [])
    if "branch_count" in expected and len(stabs) != expected["branch_count"]:
        problems.append(f"expected {expected['branch_count']} branches, got {len(stabs)}")
    if "ideal" in expected:
        want = _parse_expected_ideal(expected["ideal"], job)
        for i, stab in enumerate(stabs):
            got = _computed_ideal(stab, job)
            if not ideal_equal(got, want):
                problems.append(f"branch {i}: ideal {stab['subgroup']['ideal']} != expected {expected['ideal']}")
    if "ideals_any_order" in expected:
        wants = [_parse_expected_ideal(g, job) for g in expected["ideals_any_order"]]
        gots = [_computed_ideal(stab, job) for stab in stabs]
        unmatched = list(range(len(wants)))
        for got in gots:
            hit = next((k for k in unmatched if ideal_equal(got, wants[k])), None)
            if hit is None:
                problems.append("computed ideal matches no expected component")
            else:
                unmatched.remove(hit)
        if unmatched:
            problems.append(f"{len(unmatched)} expected ideals were not produced")
    if "dim" in expected:
        for i, stab in enumerate(stabs):
            if stab["subgroup"]["dim"] != expected["dim"]:
                problems.append(f"branch {i}: dim {stab['subgroup']['dim']} != {expected['dim']}")
    if "classification" in expected:
        for i, stab in enumerate(stabs):
            if stab["subgroup"]["classification"] != expected["classification"]:
                problems.append(
                    f"branch {i}: classification {stab['subgroup']['classification']!r}"
                    f" != {expected['classification']!r}"
                )
    if "dim_before" in expected:
        for stab in stabs:
            if stab["dim_before_reduction"] != expected["dim_before"]:
                problems.append(f"dim before reduction {stab['dim_before_reduction']} != {expected['dim_before']}")
    if "dim_after" in expected:
        for stab in stabs:
            if stab["dim_after_reduction"] != expected["dim_after"]:
                problems.append(f"dim after reduction {stab['dim_after_reduction']} != {expected['dim_after']}")
    for name, want in (expected.get("checks") or {}).items():
        got = report["checks"].get(name, "missing")
        if got != want:
            problems.append(f"check {name}: {got} != {want}")
    return problems


def run_corpus(overrides: dict | None = None, only: str | None = None) -> tuple[dict, int]:
    summary = {"entries": [], "passed": 0, "failed": 0, "skipped": 0}
    code = EXIT_OK
    for entry in corpus_entries():
        name = entry["name"]
        if only and only != name:
            continue
        job = entry["job"]
        if "skip" in job:
            summary["entries"].append({"name": name, "status": "skipped", "note": job["skip"]})
            summary["skipped"] += 1
            continue
        report, job_code = run_job(job, overrides)
        problems = check_expected(entry, report)
        status = "pass" if job_code == EXIT_OK and not problems else "fail"
        item = {
            "name": name,
            "status": status,
            "checks": report["checks"],
            "exit_code": job_code,
            "timing": report["timing"],
        }
        if "note" in job:
            item["note"] = job["note"]
        if problems:
            item["problems"] = problems
        if report["errors"]:
            item["errors"] = report["errors"]
        summary["entries"].append(item)
        if status == "pass":
            summary["passed"] += 1
        else:
            summary["failed"] += 1
            code = max(code, job_code if job_code != EXIT_OK else EXIT_VERIFY)
    return summary, code
