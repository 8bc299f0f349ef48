"""JSON job descriptions in, structured reports out.

A job names a field, a group scheme, an input (branch, plane curve, or
subgroup), a command and budgets; running it produces a report dict that
re-parses and is byte-stable modulo the timing block.
"""

from __future__ import annotations

import random
import time

from .branches import Branch, is_centered_at_infinity, validate_branch
from .errors import DivisionByZero, FieldMismatch, MustabError, NotOnGroup, PrecisionInsufficient, ZeroLeadingTerm
from .exponents import check_d
from .fields import FieldSpec
from .groups import GroupElement, GroupScheme, KPoint, iwasawa, random_kpoint
from .ideals import DEFAULT_SPOLY_BUDGET, Budgets, Ideal, extend_basis, ideal_equal, ideal_member, krull_dim, spoly_budget
from .newton import PlaneCurveInput, places_at_infinity
from .pipeline import ALGORITHMS, StabilizerRun, compute_stabilizer
from .poly import PolyRing
from .series import parse_series, series_to_json
from .stabilizer import mu_reduce, stab_reparam
from .subgroups import SubgroupDesc, conjugate_stab, is_solvable, verify_subgroup

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY = 5


class JobError(Exception):
    """A job that cannot be run as given: invalid input."""

    exit_code = EXIT_INVALID


def parse_budgets(data: dict | None) -> tuple[Budgets, int]:
    """The job's budgets and its S-polynomial cap (`spoly_budget`), each a
    JSON integer in its range."""
    values: dict = {}
    if data is not None and not isinstance(data, dict):
        raise JobError(f"budgets must be a JSON object, not {data!r}")
    data = data or {}
    limits = {"precision": (1, 64), "degree_bound": (1, 12), "order_budget": (1, 24), "spoly_budget": (1, None)}
    for name, (lo, hi) in limits.items():
        if name not in data:
            continue
        value = data[name]
        if type(value) is not int:
            raise JobError(f"{name} must be an integer, not {value!r}")
        if value < lo or (hi is not None and value > hi):
            wanted = f"in [{lo}, {hi}]" if hi is not None else f"at least {lo}"
            raise JobError(f"{name} must be {wanted}, not {value}")
        values[name] = value
    cap = values.pop("spoly_budget", DEFAULT_SPOLY_BUDGET)
    return Budgets(**values), cap


def _parse_entries(scheme: GroupScheme, entries, parse):
    """The entries of a job's point, each parsed; a layout that does not fit
    the scheme is invalid input."""
    try:
        return scheme.map_entries(entries, parse)
    except ValueError as exc:
        raise JobError(f"invalid entries: {exc}")


def parse_branch(data: dict, scheme: GroupScheme, d: int | None) -> Branch:
    return validate_branch(scheme, _parse_entries(scheme, data["entries"], lambda e: parse_series(e, scheme.field, d)))


def parse_plane_curve(data: dict, scheme: GroupScheme) -> PlaneCurveInput:
    ring = PolyRing(scheme.field, ("x", "y"))
    f = ring.parse(data["f"])
    embedding = _parse_entries(scheme, data["embedding"], ring.parse)
    return PlaneCurveInput(f, embedding, scheme, bool(data.get("trusted_irreducible", False)))


def run_job(job: dict, overrides: dict | None = None) -> tuple[dict, int]:
    """Execute one JobSpec; returns (report, exit_code).  The overrides
    (command-line flags) that are set win over the job's algorithm and
    budgets."""
    start = time.time()
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    # the one merge of flags and budgets, read by parse_budgets and
    # budget_usage; a value that is not an object is left for
    # parse_budgets to reject
    budgets_in = job.get("budgets") if isinstance(job, dict) else None
    if budgets_in is None or isinstance(budgets_in, dict):
        budgets_in = {**(budgets_in or {}), **flags}
    report: dict = {
        "schema": "mustab-report-v1",
        "inputs": job,
        "results": {},
        "checks": {},
        "witnesses": {},
        "errors": [],
    }
    code = EXIT_OK
    try:
        try:
            field = FieldSpec.from_json(job["field"])
            scheme = GroupScheme.from_json(job["group"], field)
            d = job.get("exponent_d")
            if d is not None:
                check_d(d)
            command = job["command"]
            budgets, cap = parse_budgets(budgets_in)
            algorithm = flags.get("algorithm", job.get("algorithm", "both"))
            if algorithm not in ALGORITHMS:
                raise JobError(f"unknown algorithm {algorithm!r}; expected {'|'.join(ALGORITHMS)}")
        except JobError:
            raise
        except Exception as exc:
            raise JobError(f"invalid job: {exc}")
        report["command"] = command
        with spoly_budget(cap):  # every Groebner basis of the job runs under its cap
            try:
                inp = _read_input(job, command, scheme, d)
            except (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError, DivisionByZero, FieldMismatch,
                    NotOnGroup, ZeroLeadingTerm) as exc:
                if isinstance(exc, PrecisionInsufficient):
                    raise  # LeadingTermUnknown: more input precision may decide it
                raise JobError(f"invalid input: {type(exc).__name__}: {exc}")

            if command == "places":
                branches = places_at_infinity(inp, budgets.precision)
                report["results"]["branches"] = [_branch_json(b) for b in branches]
            elif command == "stab":
                branches = [inp] if isinstance(inp, Branch) else places_at_infinity(inp, budgets.precision)
                runs = [compute_stabilizer(b, algorithm, budgets) for b in branches]
                report["results"]["stabilizers"] = [_run_json(r) for r in runs]
                _theorem_checks(report, runs, budgets)
            elif command == "reduce":
                reduced, cert, dim_before, dim_after = mu_reduce(inp)
                report["results"]["reduced"] = _branch_json(reduced)
                report["results"]["dim_before"] = dim_before
                report["results"]["dim_after"] = dim_after
                report["results"]["certificate"] = cert.to_json() if cert else None
            elif command == "iwasawa":
                u, b2 = iwasawa(inp.element)
                report["results"]["u"] = _element_json(u)
                report["results"]["b"] = _element_json(b2)
                report["results"]["u_integral"] = u.is_integral()
            else:  # verify; _read_input rejected any other command
                desc = SubgroupDesc(scheme, inp, None)  # verify_subgroup reads no dimension
                ok, rep = verify_subgroup(desc)
                solv = None
                if ok:  # is_solvable reads the dimension of the group scheme, its equations included
                    desc.dim = krull_dim(extend_basis(inp, scheme.defining_polys()))
                    solv = is_solvable(desc)
                report["results"]["verified_subgroup"] = ok
                report["results"]["verify_report"] = {k: v for k, v in rep.items()}
                if solv is not None:
                    report["results"]["solvable"] = solv.value
                    report["results"]["solvable_note"] = solv.note
                if not ok:
                    code = max(code, EXIT_VERIFY)
    except (JobError, MustabError) as exc:
        report["errors"].append({"type": type(exc).__name__, "message": str(exc)})
        code = exc.exit_code
    if any(v == "fail" for v in report["checks"].values()):
        code = max(code, EXIT_VERIFY)
    report["timing"] = {"seconds": round(time.time() - start, 3)}
    defaults = Budgets()
    used = budgets_in if isinstance(budgets_in, dict) else flags
    report["budget_usage"] = {
        name: used.get(name, getattr(defaults, name)) for name in ("precision", "degree_bound", "order_budget")
    }
    return report, code


def _read_input(job: dict, command: str, scheme: GroupScheme, d):
    """The command's parsed input: a plane curve (places), a branch or a
    plane curve (stab), a branch (reduce, iwasawa) or an ideal (verify)."""
    inp = job["input"]
    if command == "iwasawa" and not scheme.is_matrix:
        raise JobError(f"iwasawa needs a GL or SL scheme, not {scheme}")
    if command in ("reduce", "iwasawa") or (command == "stab" and "branch" in inp):
        return parse_branch(inp["branch"], scheme, d)
    if command in ("places", "stab"):
        return parse_plane_curve(inp["plane_curve"], scheme)
    if command == "verify":
        ring = scheme.coordinate_ring()
        return Ideal(ring, tuple(ring.parse(s) for s in inp["subgroup"]["ideal"]))
    raise JobError(f"unknown command {command!r}")


def _branch_json(b: Branch) -> dict:
    return {
        "entries": _element_json(b.element),
        "ramification": b.ramification,
        "centered_at_infinity": is_centered_at_infinity(b),
        "trusted_irreducible": b.trusted_irreducible,
        "notes": list(b.notes),
    }


def _element_json(el: GroupElement) -> tuple:
    return el.scheme.map_entries(el.entries, series_to_json)


def _run_json(run: StabilizerRun) -> dict:
    subgroup = run.subgroup.to_json()
    out = {
        "bounded": run.bounded,
        "dim_before_reduction": run.dim_before,
        "dim_after_reduction": run.dim_after,
        "agreement": run.agreement,
        "notes": list(run.notes),
        "subgroup": subgroup,
    }
    if run.reparam is not None:
        out["reparam"] = subgroup  # run.subgroup is run.reparam
    if run.degeneration is not None:
        out["degeneration"] = run.degeneration.desc.to_json()
        out["degeneration"]["fiber"] = [str(g) for g in run.degeneration.fiber.gens]
        out["degeneration"]["component_dims"] = run.degeneration.component_dims
    if run.certificate is not None:
        out["reduction_certificate"] = run.certificate.to_json()
    return out


def _theorem_checks(report: dict, runs: list[StabilizerRun], budgets: Budgets):
    checks = report["checks"]
    witnesses = report["witnesses"]

    def set_check(name: str, ok: bool | None, witness: str = ""):
        prev = checks.get(name)
        if ok is None:
            if prev is None:
                checks[name] = "skipped"
            return
        if ok:
            if prev != "fail":
                checks[name] = "pass"
        else:
            checks[name] = "fail"
            if witness:
                witnesses[name] = witness

    for i, run in enumerate(runs):
        desc = run.subgroup
        if run.bounded:
            trivial = desc.dim == 0
            set_check("bounded_trivial", trivial, f"branch {i}: dim {desc.dim}")
            set_check("dim_equality", None)
            set_check("infinite", None)
        else:
            set_check("bounded_trivial", None)
            set_check(
                "dim_equality",
                desc.dim == run.dim_after,
                f"branch {i}: dim Stab {desc.dim} vs dim p {run.dim_after}",
            )
            set_check("infinite", desc.dim >= 1, f"branch {i}: dim {desc.dim}")
        solv = is_solvable(desc, lambda: _borel_frame(run))
        set_check("solvable", solv.value, solv.note)
        if run.agreement is not None:
            set_check("agreement", run.agreement, _agreement_witness(run, i))
        if not run.bounded and desc.scheme.kind == "SL" and desc.scheme.n == 2:
            set_check("conjugation", _conjugation_check(run, budgets), f"branch {i}")
        else:
            set_check("conjugation", None)


def _borel_frame(run: StabilizerRun) -> KPoint:
    """res(u) for the reduced branch a = u * b, b upper triangular
    (groups.iwasawa): the frame whose Borel subgroup holds the stabilizer
    when the branch's triangular part decides it; the identity when the
    decomposition fails."""
    try:
        return iwasawa(run.reduced.element)[0].res()
    except MustabError:
        return run.reduced.scheme.identity()


def _agreement_witness(run: StabilizerRun, index: int) -> str:
    if run.agreement or run.reparam is None or run.degeneration is None:
        return f"branch {index}"
    left = run.reparam.ideal
    right = run.degeneration.desc.ideal
    separator = None
    for g in left.gens:
        if not ideal_member(g, right):
            separator = g
            break
    if separator is None:
        for g in right.gens:
            if not ideal_member(g, left):
                separator = g
                break
    return (
        f"branch {index}: reparam <{', '.join(str(g) for g in left.gens)}>"
        f" vs degeneration <{', '.join(str(g) for g in right.gens)}>;"
        f" separating generator {separator}"
    )


def _conjugation_check(run: StabilizerRun, budgets: Budgets) -> bool:
    """Stab(g . a) = g Stab(a) g^-1 at two random k-points g.

    a is the reduced branch, and g . a needs no second mu_reduce: left
    translation by g in G(k) keeps a's exactness and exponents, the k-span
    of its entries (so certified_dim reads the same pivots and dim p) and
    its curve place, so g . a is as reduced as a, and stab_reparam on it
    is what the run applied to a.  Stab(g . a) still comes from its own
    ansatz, quotient, Groebner basis and elimination; nothing is shared
    with the run."""
    rng = random.Random(31)
    for _ in range(2):
        g = random_kpoint(run.reduced.scheme, rng)
        moved = stab_reparam(run.reduced.translate(g), budgets)
        if not ideal_equal(moved.ideal, conjugate_stab(run.subgroup, g)):
            return False
    return True
