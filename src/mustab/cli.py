"""Command-line driver: JSON jobs in, JSON + human-readable reports out.

Exit codes: 0 success, 2 invalid input, and the code of the error class
otherwise (3 unsupported, 4 budget exhausted, 5 verification failure);
README lists which error gives which.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import corpus_entries, run_corpus
from .jobs import EXIT_INVALID, run_job
from .pipeline import ALGORITHMS


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mustab",
        description="Exact mu-stabilizers of curve branches at infinity in linear algebraic groups.",
    )
    p.add_argument("--job", metavar="FILE", help="JobSpec JSON file to run")
    p.add_argument("--corpus", action="store_true", help="run the bundled corpus")
    p.add_argument("--only", metavar="NAME", help="restrict --corpus to one entry")
    p.add_argument("--algorithm", choices=ALGORITHMS, help="stabilizer algorithm override")
    p.add_argument("--precision", type=int, metavar="N", help="series precision budget")
    p.add_argument("--degree-bound", type=int, metavar="D", help="accepted and echoed in budget_usage; no computation reads it")
    p.add_argument("--order-budget", type=int, metavar="N", help="cap on the reparameterization stabilizer's ansatz order")
    p.add_argument("--json-out", metavar="FILE", help="write the structured report here")
    return p


def explain(report: dict) -> str:
    """Human-readable rendering of a report, including the mathematical
    statement each theorem check instantiates."""
    statements = {
        "dim_equality": "dimension equality: dim Stab = dim p for a mu-reduced type",
        "infinite": "unbounded types have infinite stabilizer (dim >= 1)",
        "solvable": "every mu-stabilizer is a solvable linear algebraic group",
        "conjugation": "translating the branch by g conjugates the stabilizer by g",
        "bounded_trivial": "a bounded branch with residue point over k has trivial stabilizer",
        "agreement": "reparameterization and degeneration algorithms agree (mutual membership)",
    }
    lines: list[str] = []
    cmd = report.get("command", "?")
    lines.append(f"command: {cmd}")
    results = report.get("results", {})
    if "branches" in results:
        lines.append(f"places at infinity: {len(results['branches'])}")
        for i, b in enumerate(results["branches"]):
            lines.append(f"  branch {i}: ramification {b['ramification']}")
    for i, stab in enumerate(results.get("stabilizers", [])):
        sub = stab["subgroup"]
        # most classifications already end in their dimension
        name, dim = sub["classification"], f"of dimension {sub['dim']}"
        lines.append(
            f"branch {i}: Stab = {name if name.endswith(dim) else f'{name} {dim}'};"
            f" ideal <{', '.join(sub['ideal'])}>"
        )
        if stab.get("bounded"):
            lines.append("  bounded branch: trivial stabilizer via the residue point")
        else:
            lines.append(
                f"  type dimension {stab['dim_before_reduction']} -> {stab['dim_after_reduction']}"
                " after mu-reduction"
            )
        if stab.get("agreement") is not None:
            lines.append(f"  two-algorithm agreement: {stab['agreement']}")
        if sub.get("cosets"):
            lines.append(f"  special fiber adds {len(sub['cosets'])} coset component(s)")
    if "reduced" in results:
        lines.append(
            f"mu-reduction: dim {results['dim_before']} -> {results['dim_after']};"
            f" certificate {'present' if results.get('certificate') else 'absent'}"
        )
    if "u" in results:
        lines.append(f"Iwasawa: a = u * b with u integral = {results['u_integral']}")
    if "verified_subgroup" in results:
        lines.append(f"subgroup verification: {results['verified_subgroup']}")
        if "solvable" in results:
            lines.append(f"solvable: {results['solvable']} ({results.get('solvable_note', '')})")
    checks = report.get("checks", {})
    if checks:
        lines.append("theorem checks:")
        for name in sorted(checks):
            status = checks[name]
            blurb = statements.get(name, name)
            lines.append(f"  [{status:7s}] {name}: {blurb}")
            if status == "fail" and name in report.get("witnesses", {}):
                lines.append(f"            witness: {report['witnesses'][name]}")
    for err in report.get("errors", []):
        lines.append(f"error {err['type']}: {err['message']}")
    return "\n".join(lines)


def explain_corpus(summary: dict) -> str:
    lines = ["corpus results:"]
    check_names = ["dim_equality", "infinite", "solvable", "conjugation", "bounded_trivial", "agreement"]
    header = f"  {'entry':14s} {'status':8s} " + " ".join(f"{n[:9]:>9s}" for n in check_names)
    lines.append(header)
    for item in summary["entries"]:
        if item["status"] == "skipped":
            lines.append(f"  {item['name']:14s} {'skipped':8s} note: {item['note']}")
            continue
        row = f"  {item['name']:14s} {item['status']:8s} "
        row += " ".join(f"{item['checks'].get(n, '-')[:9]:>9s}" for n in check_names)
        lines.append(row)
        if item.get("note"):
            lines.append(f"    note: {item['note']}")
        for p in item.get("problems", []):
            lines.append(f"    problem: {p}")
        for e in item.get("errors", []):
            lines.append(f"    error {e['type']}: {e['message']}")
    lines.append(
        f"  total: {summary['passed']} passed, {summary['failed']} failed, {summary['skipped']} skipped"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "algorithm": args.algorithm,
        "precision": args.precision,
        "degree_bound": args.degree_bound,
        "order_budget": args.order_budget,
    }
    if args.corpus:
        names = [entry["name"] for entry in corpus_entries()]
        if args.only is not None and args.only not in names:
            print(f"no corpus entry {args.only!r}; the entries are {', '.join(names)}", file=sys.stderr)
            return EXIT_INVALID
        summary, code = run_corpus(overrides, args.only)
        print(explain_corpus(summary))
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(summary, fh, indent=1, sort_keys=True)
        return code
    if not args.job:
        print("nothing to do: pass --job FILE or --corpus", file=sys.stderr)
        return EXIT_INVALID
    try:
        with open(args.job) as fh:
            job = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read job: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report, code = run_job(job, overrides)
    print(explain(report))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
