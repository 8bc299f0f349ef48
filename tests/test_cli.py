"""CLI driver: jobs, exit codes, determinism, corpus plumbing."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mustab import errors, jobs
from mustab.cli import explain, main
from mustab.corpus import check_expected, corpus_entries, run_corpus
from mustab.jobs import run_job

ROOT = Path(__file__).resolve().parent.parent


def ser(*terms, prec=None):
    out = {"terms": [[str(e), str(c)] for e, c in terms]}
    if prec is not None:
        out["prec"] = str(prec)
    return out


X1_JOB = {
    "field": {"kind": "Q"},
    "group": {"kind": "SL", "n": 2},
    "command": "stab",
    "algorithm": "both",
    "input": {"branch": {"entries": [
        [ser(("-1", "1")), ser(("0", "1"))],
        [{"terms": []}, ser(("1", "1"))],
    ]}},
    "budgets": {"precision": 12, "degree_bound": 4, "order_budget": 6},
}


def test_stab_job_roundtrip(tmp_path):
    job_file = tmp_path / "job.json"
    out_file = tmp_path / "report.json"
    job_file.write_text(json.dumps(X1_JOB))
    code = main(["--job", str(job_file), "--json-out", str(out_file)])
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["checks"]["dim_equality"] == "pass"
    assert report["checks"]["agreement"] == "pass"
    stab = report["results"]["stabilizers"][0]
    assert stab["subgroup"]["classification"] == "upper unipotent"
    assert stab["subgroup"]["dim"] == 1


GL2_STAB_CASES = {
    # branch a(t) in GL(2)/Q -> ideal of Stab, in the coordinates x11..x22, y
    "diag(t^-1,1)": (
        [[ser(("-1", "1")), {"terms": []}], [{"terms": []}, ser(("0", "1"))]],
        ["x22 - 1", "x21", "x12", "x11*y - 1"],
    ),
    "x1": (
        [[ser(("-1", "1")), ser(("0", "1"))], [{"terms": []}, ser(("1", "1"))]],
        ["y - 1", "x22 - 1", "x21", "x11 - 1"],
    ),
    "scalar": (
        [[ser(("-1", "1")), {"terms": []}], [{"terms": []}, ser(("-1", "1"))]],
        ["x21", "x12", "x11 - x22", "x22^2*y - 1"],
    ),
}


@pytest.mark.parametrize("name", sorted(GL2_STAB_CASES))
def test_gl2_stab_jobs(name):
    """GL(2) runs the group law with the inverse-determinant coordinate y,
    which no corpus fixture covers."""
    entries, ideal = GL2_STAB_CASES[name]
    job = dict(X1_JOB, group={"kind": "GL", "n": 2}, input={"branch": {"entries": entries}})
    report, code = run_job(job)
    assert code == 0, report["errors"]
    assert report["checks"] == {
        "bounded_trivial": "skipped",
        "dim_equality": "pass",
        "infinite": "pass",
        "solvable": "pass",
        "agreement": "pass",
        "conjugation": "skipped",
    }
    (stab,) = report["results"]["stabilizers"]
    assert stab["subgroup"]["ideal"] == ideal
    assert stab["subgroup"]["dim"] == 1


@pytest.mark.parametrize(
    "curve, field, budgets",
    [
        ("y^2 - x^5", {"kind": "Q"}, (12, 6, 6)),
        ("y^3 - x^5", {"kind": "Q"}, (12, 6, 6)),
        ("y^2 - x^5", {"kind": "Fp", "p": 7}, (12, 6, 6)),
        ("y^3 - x^5", {"kind": "Fp", "p": 7}, (12, 6, 6)),
        ("y^2 - x^7", {"kind": "Q"}, (16, 8, 8)),
        ("y^3 - x^7", {"kind": "Q"}, (16, 8, 8)),
    ],
    ids=["y2x5-Q", "y3x5-Q", "y2x5-F7", "y3x5-F7", "y2x7-Q", "y3x7-Q"],
)
def test_cusp_jobs_use_the_whole_degree_bound(curve, field, budgets):
    """Their degenerations need closures of degree above 4: the degeneration
    must work at the job's own degree_bound for the stabilizers to agree."""
    precision, degree, order = budgets
    job = {
        "field": field,
        "group": {"kind": "Additive", "n": 2},
        "command": "stab",
        "algorithm": "both",
        "input": {"plane_curve": {"f": curve, "embedding": ["x", "y"]}},
        "budgets": {"precision": precision, "degree_bound": degree, "order_budget": order},
    }
    report, code = run_job(job)
    assert code == 0, (report["errors"], report["checks"])
    assert report["checks"]["agreement"] == "pass"


def test_report_deterministic_modulo_timing(tmp_path):
    report1, code1 = run_job(X1_JOB)
    report2, code2 = run_job(X1_JOB)
    assert code1 == code2 == 0
    report1.pop("timing")
    report2.pop("timing")
    assert json.dumps(report1, sort_keys=True) == json.dumps(report2, sort_keys=True)


def test_import_loads_no_code_generation_machinery():
    """Each CLI process imports the package for one job, so the import must
    stay light: dataclasses alone pulls in inspect, dis, ast and tokenize,
    and importlib.resources pulls in zipfile, pathlib, tempfile and shutil."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import mustab; from mustab.corpus import corpus_entries; "
        "corpus_entries(); print(sorted({'dataclasses', 'inspect', 'importlib.resources', 'zipfile'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, str(ROOT / "src")], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


def test_places_job():
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": "SL", "n": 2},
        "command": "places",
        "input": {"plane_curve": {"f": "x*y - 1", "embedding": [["x", "1"], ["0", "y"]]}},
    }
    report, code = run_job(job)
    assert code == 0
    assert len(report["results"]["branches"]) == 2


def test_exit_code_unsupported():
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": "Additive", "n": 2},
        "command": "stab",
        "input": {"plane_curve": {"f": "x^2 + y^2 - 1", "embedding": ["x", "y"]}},
    }
    report, code = run_job(job)
    assert code == 3
    assert report["errors"][0]["type"] == "CoefficientFieldTooSmall"


def test_exit_code_invalid():
    report, code = run_job({"field": {"kind": "Q"}, "command": "stab"})
    assert code == 2
    job = dict(X1_JOB, budgets={"precision": 900})
    report, code = run_job(job)
    assert code == 2


def test_field_prime_is_decided_quickly():
    """A job over F_p for a 17-digit prime p still exits 2 (it has no
    input), in well under a second; a composite p and a p beyond the proven
    primality bound are invalid input."""
    job = {"field": {"kind": "Fp", "p": 10**16 + 61}, "command": "stab"}
    start = time.perf_counter()
    report, code = run_job(job)
    assert code == 2 and time.perf_counter() - start < 1.0
    assert "Fp requires a prime" not in report["errors"][0]["message"]
    # a strong pseudoprime to every prime base up to 37 (399165290221 *
    # 798330580441), a product of two 9-digit primes, and 2^89 - 1, a prime
    # above the bound
    for p in (318665857834031151167461, (10**8 + 7) * (10**8 + 37), 2**89 - 1):
        for kind in ("Fp", "Fq"):
            job = {"field": {"kind": kind, "p": p, "modulus": [1, 0, 1]}, "command": "stab"}
            report, code = run_job(job)
            assert code == 2 and "prime" in report["errors"][0]["message"]


WRONG_ENTRY_COUNTS = {
    # SL(2) entries with rows of 2 and 1, 2 and 3, 3 and 1, and three rows
    "short_row": [[ser(("-1", "1")), ser(("0", "1"))], [ser(("1", "1"))]],
    "long_row": [[ser(("-1", "1")), ser(("0", "1"))], [{"terms": []}, ser(("1", "1")), ser(("0", "1"))]],
    "ragged": [[ser(("-1", "1")), ser(("0", "1")), {"terms": []}], [ser(("1", "1"))]],
    "extra_row": X1_JOB["input"]["branch"]["entries"] + [[ser(("0", "1")), {"terms": []}]],
}


@pytest.mark.parametrize("name", sorted(WRONG_ENTRY_COUNTS))
def test_exit_code_wrong_entry_count(name):
    job = json.loads(json.dumps(X1_JOB))
    job["input"]["branch"]["entries"] = WRONG_ENTRY_COUNTS[name]
    for command in ("stab", "reduce", "iwasawa"):
        report, code = run_job(dict(job, command=command))
        assert code == 2
        assert report["errors"][0]["type"] == "JobError"


def test_exit_code_wrong_additive_entry_count():
    job = {"field": {"kind": "Q"}, "group": {"kind": "Additive", "n": 2}, "command": "stab"}
    for entries in ([ser(("-1", "1"))], [ser(("-1", "1"))] * 3):
        report, code = run_job(dict(job, input={"branch": {"entries": entries}}))
        assert code == 2


def test_exit_code_wrong_embedding_count():
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": "SL", "n": 2},
        "command": "places",
        "input": {"plane_curve": {"f": "x*y - 1", "embedding": [["x", "1"], ["y"]]}},
    }
    report, code = run_job(job)
    assert code == 2


def test_exit_code_budget():
    job = json.loads(json.dumps(X1_JOB))
    job["budgets"]["spoly_budget"] = 1
    report, code = run_job(job)
    assert code == 4
    assert report["errors"][0]["type"] == "BudgetExceeded"


def _clear_memos():
    from mustab import fields, stabilizer, subgroups

    for memo in (subgroups._verified, subgroups._classified, subgroups._sl2_templates, subgroups._identity_basis,
                 stabilizer._kernel, fields._unity_root):
        memo.cache_clear()


def test_a_report_is_the_same_after_any_earlier_job():
    """x1 at spoly_budget 1 (exit 4), at the default, at 5 (the least cap
    it passes at) and at 4, in that order in one process: each report is
    the report of the same job with every memo cleared first, so no job
    reads an answer an earlier job found under another cap."""
    codes, reports = [], []
    for cap in (1, None, 5, 4):
        job = json.loads(json.dumps(X1_JOB))
        if cap is not None:
            job["budgets"]["spoly_budget"] = cap
        report, code = run_job(job)
        _clear_memos()
        fresh, fresh_code = run_job(job)
        for r in (report, fresh):
            r.pop("timing")
        assert (report, code) == (fresh, fresh_code)
        codes.append(code)
    assert codes == [4, 0, 0, 4]


@pytest.mark.parametrize(
    "name, value",
    [("spoly_budget", 0), ("spoly_budget", -3)]
    + [(name, value) for name in ("precision", "degree_bound", "order_budget", "spoly_budget") for value in (1.5, True)],
)
def test_budget_that_is_no_integer_in_range_is_invalid(name, value):
    """A budget is a JSON integer (not a bool) in its range, spoly_budget at
    least 1; anything else is invalid input, not a budget outcome."""
    job = json.loads(json.dumps(X1_JOB))
    job["budgets"][name] = value
    report, code = run_job(job)
    assert code == 2
    assert report["errors"][0]["type"] == "JobError" and name in report["errors"][0]["message"]


SL2_BOREL_SUBGROUP = {"kind": "Subgroup", "parent": {"kind": "SL", "n": 2}, "ideal": ["x21"]}


def test_stab_on_a_subgroup_scheme_skips_conjugation():
    """The x1 branch in the Borel of SL(2), given as a Subgroup scheme, has
    the stabilizer it has in SL(2); the conjugation check translates by
    points of SL(2) and so runs on SL(2) itself only."""
    job = json.loads(json.dumps(X1_JOB))
    job["group"] = SL2_BOREL_SUBGROUP
    report, code = run_job(job)
    assert code == 0 and not report["errors"]
    assert report["results"]["stabilizers"][0]["subgroup"]["ideal"] == ["x22 - 1", "x21", "x11 - 1"]
    assert report["checks"]["conjugation"] == "skipped"


def test_verify_on_a_subgroup_scheme_reads_its_borel():
    """The Borel as the whole of a Subgroup scheme: not abelian, its Lie
    algebra span(h, e) solvable, and it lies in the upper triangular Borel
    of the identity frame."""
    job = {
        "field": {"kind": "Q"},
        "group": SL2_BOREL_SUBGROUP,
        "command": "verify",
        "input": {"subgroup": {"ideal": ["x21", "x11*x22 - 1"]}},
    }
    report, code = run_job(job)
    assert code == 0 and report["results"]["verified_subgroup"] is True
    assert report["results"]["solvable"] is True
    assert report["results"]["solvable_note"] == "contained in a Borel subgroup"


WHOLE_GROUPS = {"SL": "x11*x22 - x12*x21 - 1", "GL": "x11*x22*y - x12*x21*y - 1"}


# GL(2) over Q is test_verify_whole_gl2_is_not_solvable
@pytest.mark.parametrize("kind, p", [("SL", 0), ("SL", 2), ("SL", 3), ("SL", 5), ("GL", 2), ("GL", 3), ("GL", 5)],
                         ids=["SL2-Q", "SL2-F2", "SL2-F3", "SL2-F5", "GL2-F2", "GL2-F3", "GL2-F5"])
def test_verify_whole_sl2_and_gl2_are_not_solvable(kind, p):
    """Criterion 6 for the whole of SL(2) and GL(2), with no budget: the
    derived series of sl2 stops at sl2 (perfect for p != 2), so neither
    group is solvable, though G(F_2) and G(F_3) are finite solvable groups.
    In characteristic 2, sl2 is a solvable Lie algebra and no Borel
    subgroup holds the group: nothing is certified."""
    field = {"kind": "Fp", "p": p} if p else {"kind": "Q"}
    job = {"field": field, "group": {"kind": kind, "n": 2}, "command": "verify",
           "input": {"subgroup": {"ideal": [WHOLE_GROUPS[kind]]}}}
    report, code = run_job(job)
    assert code == 0 and report["results"]["verified_subgroup"] is True
    if p == 2:
        assert report["results"]["solvable"] is None
        assert report["results"]["solvable_note"] == "solvable Lie algebra, but not contained in the frame's Borel subgroup"
    else:
        assert report["results"]["solvable"] is False
        assert report["results"]["solvable_note"] == "the Lie algebra's derived series stops at dimension 3"


def test_verify_whole_gl2_is_not_solvable():
    """The GL(2) counterpart of criterion 6: the derived series of gl2
    goes to sl2 and stops there."""
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": "GL", "n": 2},
        "command": "verify",
        "input": {"subgroup": {"ideal": ["x11*x22*y - x12*x21*y - 1"]}},
    }
    report, code = run_job(job)
    assert code == 0 and report["results"]["verified_subgroup"] is True
    assert report["results"]["solvable"] is False
    assert report["results"]["solvable_note"] == "the Lie algebra's derived series stops at dimension 3"


@pytest.mark.parametrize("p, ideal, value, note", [
    (0, ["x21"], True, "contained in a Borel subgroup"),
    (3, ["x12^3"], None, "tangent space at e of dimension 3, not 2"),
    (5, ["x21", "x11^5 - 1"], None, "tangent space at e of dimension 2, not 1"),
], ids=["borel-Q", "x12-cubed-F3", "mu5-ga-F5"])
def test_verify_reads_the_dimension_with_the_scheme_equations(p, ideal, value, note):
    """The tangent space at e is set against the dimension of V(ideal +
    det - 1), not of V(ideal) in the four entries.  The Borel <x21> over Q
    is smooth of dimension 2 and is certified.  Over F_3, Frobenius keeps
    <x12^3> closed; its points are the lower Borel, but the scheme is not
    reduced (tangent space sl2 against dimension 2), so sl2 being perfect
    proves nothing and nothing is certified.  Over F_5, <x21, x11^5 - 1>
    is not reduced either, and the job agrees with
    test_solvable_needs_the_tangent_space_of_the_group_dimension."""
    field = {"kind": "Fp", "p": p} if p else {"kind": "Q"}
    job = {"field": field, "group": {"kind": "SL", "n": 2}, "command": "verify",
           "input": {"subgroup": {"ideal": ideal}}}
    report, code = run_job(job)
    assert code == 0 and report["results"]["verified_subgroup"] is True
    assert (report["results"]["solvable"], report["results"]["solvable_note"]) == (value, note)


def test_reparam_self_check_failure_exits_verify(monkeypatch):
    # spoil the stabilizer ideal with x12 - 1, which does not vanish on the
    # family x12 = s of the x1 branch
    from mustab import stabilizer
    from mustab.ideals import Ideal

    real = stabilizer.eliminate

    def spoiled(I, *args, **kwargs):
        out = real(I, *args, **kwargs)
        if out.ring.variables != ("x11", "x12", "x21", "x22"):
            return out
        return Ideal(out.ring, out.gens + (out.ring.parse("x12 - 1"),))

    monkeypatch.setattr(stabilizer, "eliminate", spoiled)
    report, code = run_job(dict(X1_JOB, algorithm="reparam"))
    assert code == 5
    assert report["errors"] == [
        {"type": "SelfCheckFailed", "message": "stabilizer generator x12 - 1 does not vanish on its own family"}
    ]


def test_reparam_subgroup_failure_exits_verify(monkeypatch):
    # a reparameterization ideal that fails the subgroup axioms is a failed
    # verification, not a stabilizer
    from mustab import stabilizer

    def failing(desc):
        desc.flags["verified_subgroup"] = False
        return False, {"identity": True, "product": False, "inverse": False, "witness": "product leaves the ideal at x21"}

    monkeypatch.setattr(stabilizer, "verify_subgroup", failing)
    report, code = run_job(X1_JOB)
    assert code == 5
    assert report["errors"] == [
        {"type": "SelfCheckFailed", "message": "the reparameterization ideal is not a subgroup: product leaves the ideal at x21"}
    ]


def test_degeneration_self_check_failure_exits_verify(monkeypatch):
    # hand the component split the fiber of the point diag(2, 1/2), which
    # misses the identity
    from mustab import degeneration
    from mustab.ideals import ideal

    real = degeneration.identity_component

    def off_identity(fiber, scheme):
        return real(ideal(fiber.ring, "x11 - 2", "x12", "x21", "2*x22 - 1"), scheme)

    monkeypatch.setattr(degeneration, "identity_component", off_identity)
    report, code = run_job(dict(X1_JOB, algorithm="degeneration"))
    assert code == 5
    assert report["errors"] == [{"type": "SelfCheckFailed", "message": "identity does not satisfy the fiber ideal"}]


@pytest.mark.parametrize("algorithm", ["foo", "", None])
def test_unknown_algorithm_exits_invalid(algorithm):
    report, code = run_job(dict(X1_JOB, algorithm=algorithm))
    assert code == 2
    assert [e["type"] for e in report["errors"]] == ["JobError"]
    assert repr(algorithm) in report["errors"][0]["message"]


def _readme_exit_codes() -> dict[str, int]:
    """Error class name -> exit code, from the classes README's exit-code
    list names under each code."""
    text = (ROOT / "README.md").read_text()
    listing = text.split("\nExit codes.", 1)[1].split("\n\n")[1]
    codes = {}
    for item in listing.split("\n- "):
        code, _, body = item.lstrip("- ").partition(" ")
        for name in re.findall(r"`(\w+)`", body):
            codes[name] = int(code)
    return codes


ERROR_CLASSES = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.MustabError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_exits_with_the_readme_code(monkeypatch, cls):
    codes = _readme_exit_codes()
    assert set(codes.values()) == {2, 3, 4, 5}
    want = codes.get(cls.__name__, codes["MustabError"])

    def raising(*args, **kwargs):
        raise cls("raised on purpose")

    monkeypatch.setattr(jobs, "compute_stabilizer", raising)
    report, code = run_job(X1_JOB)
    assert report["errors"] == [{"type": cls.__name__, "message": "raised on purpose"}]
    assert code == want


def test_exit_code_precision_budget():
    # circle_f5 at precision 1 leaves its places' reduction truncated, and
    # the flat closure needs exact entries: a budget outcome, not a failed
    # theorem.  At precision 2 the exact cuts are certified, and the job
    # answers the corpus ideals.
    entry = next(e for e in corpus_entries() if e["name"] == "circle_f5")
    report, code = run_job(entry["job"], {"precision": 1})
    assert code == 4
    assert report["errors"][0]["type"] == "PrecisionInsufficient"
    report, code = run_job(entry["job"], {"precision": 2})
    assert code == 0
    assert check_expected(entry, report) == []


@pytest.mark.parametrize("name", ["x1", "reduced_a2"])
def test_explain_names_the_dimension_once(name):
    job = next(e["job"] for e in corpus_entries() if e["name"] == name)
    report, code = run_job(job)
    assert code == 0
    sub = report["results"]["stabilizers"][0]["subgroup"]
    text = explain(report)
    assert sub["classification"] in text
    assert f"of dimension {sub['dim']}" in text
    assert not re.search(r"of dimension \d+ of dimension", text)


def test_reduce_job():
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": "Additive", "n": 2},
        "exponent_d": 2,
        "command": "reduce",
        "input": {"branch": {"entries": [ser(("-1", "1")), ser(("-1", "1"), ("sqrt(2)", "1"))]}},
    }
    report, code = run_job(job)
    assert code == 0
    assert report["results"]["dim_before"] == 2
    assert report["results"]["dim_after"] == 1
    assert report["results"]["certificate"] is not None


def test_reduce_job_with_exponents_of_rational_rank_2_is_unsupported():
    """(t^-1 + t^-sqrt(2), t^-2 + t^-2sqrt(2)) is exact, but its exponents
    have rational rank 2 and no cut is tube-equivalent, so no bound
    certifies dim p: exit 3, never a count."""
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": "Additive", "n": 2},
        "exponent_d": 2,
        "command": "reduce",
        "input": {"branch": {"entries": [ser(("-1", "1"), ("-sqrt(2)", "1")), ser(("-2", "1"), ("-2*sqrt(2)", "1"))]}},
    }
    report, code = run_job(job)
    assert code == 3
    assert report["errors"][0]["type"] == "IrrationalExponentInSubstitution"


@pytest.mark.parametrize("algorithm", ["reparam", "both"])
def test_truncated_f3_branch_reduces_to_its_exact_polar_part(algorithm):
    """(t^-3 + 2t^-2 + t^2 + O(t^3), -t^-2 + O(t^3)) over F_3: dim p of the
    truncated branch is open, and its exact all-cut (t^-3 + 2t^-2, -t^-2)
    is certified 1, so the job reports dims 1 and 1 and <x + 2y>."""
    job = {
        "field": {"kind": "Fp", "p": 3},
        "group": {"kind": "Additive", "n": 2},
        "command": "stab",
        "algorithm": algorithm,
        "input": {"branch": {"entries": [ser(("-3", "1"), ("-2", "2"), ("2", "1"), prec=3), ser(("-2", "-1"), prec=3)]}},
    }
    report, code = run_job(job)
    assert code == 0, report["errors"]
    (stab,) = report["results"]["stabilizers"]
    assert (stab["dim_before_reduction"], stab["dim_after_reduction"]) == (1, 1)
    assert stab["subgroup"]["ideal"] == ["x + 2*y"]
    assert report["checks"]["dim_equality"] == "pass"


def test_iwasawa_job():
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": "SL", "n": 2},
        "command": "iwasawa",
        "input": {"branch": {"entries": [
            [ser(("-1", "1")), {"terms": []}],
            [ser(("0", "1")), ser(("1", "1"))],
        ]}},
    }
    report, code = run_job(job)
    assert code == 0
    assert report["results"]["u_integral"] is True


def test_iwasawa_job_claims_no_unknown_terms():
    """[[t^-1 + O(t^2), 0], [1, t + O(t^4)]]: u21 = t*(1 + O(t^3)) is known
    only below t^4, however far the inverse of the pivot is expanded."""
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": "SL", "n": 2},
        "command": "iwasawa",
        "input": {"branch": {"entries": [
            [ser(("-1", "1"), prec=2), {"terms": []}],
            [ser(("0", "1")), ser(("1", "1"), prec=4)],
        ]}},
    }
    report, code = run_job(job)
    assert code == 0
    assert report["results"]["u"][1][0] == ser(("1", "1"), prec=4)


@pytest.mark.parametrize(
    "kind, entries, code, error",
    [
        ("SL", [[ser(("1", "1")), ser()], [ser(prec="1/2"), ser(("-1", "1"))]], 4, "PivotUnknown"),
        ("GL", [[ser(prec=1), ser(prec=1)], [ser(prec=1), ser(prec=1)]], 4, "LeadingTermUnknown"),
        ("GL", [[ser(), ser(("0", "1"))], [ser(), ser(("0", "1"))]], 2, "JobError"),
    ],
    ids=["SL2_pivot_unknown", "GL2_determinant_unknown", "GL2_exactly_singular"],
)
def test_iwasawa_precision_limits_exit_4(kind, entries, code, error):
    """A pivot or a determinant that more input precision would decide is a
    precision result; the exact determinant 0 of a singular point is not a
    point of GL(2), so it is invalid input."""
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": kind, "n": 2},
        "command": "iwasawa",
        "input": {"branch": {"entries": entries}},
    }
    report, got = run_job(job)
    assert got == code
    assert report["errors"][0]["type"] == error


ZERO = {"terms": []}
# SL(3) branches written row by row
SL3_SHORT_ORDER = [
    [ser(("0", "1")), ZERO, ser(("5", "1"))],
    [ZERO, ser(("-5", "1")), ser(("-3", "2"), ("0", "1"))],
    [ZERO, ZERO, ser(("5", "1"))],
]
SL3_DIM_ONE = [
    [ser(("-5", "1")), ser(("2", "2")), ZERO],
    [ZERO, ser(("5", "1")), ZERO],
    [ser(("-4", "1")), ser(("5", "-1")), ser(("0", "1"))],
]


@pytest.mark.parametrize(
    "group, inp, budgets",
    [
        ({"kind": "Additive", "n": 2}, {"plane_curve": {"f": "y^2 - x^7", "embedding": ["x", "y"]}}, (12, 6, 6)),
        ({"kind": "SL", "n": 3}, {"branch": {"entries": SL3_SHORT_ORDER}}, (12, 4, 6)),
    ],
    ids=["y2_x7", "SL3"],
)
def test_stabilizer_below_certified_dimension_exits_4(group, inp, budgets):
    """dim p is certified 1 on both, and order_budget 6 is too small to
    reach a stabilizer of dimension 1: a budget result, not a failed
    theorem."""
    precision, degree, order = budgets
    job = {
        "field": {"kind": "Q"},
        "group": group,
        "command": "stab",
        "algorithm": "reparam",
        "input": inp,
        "budgets": {"precision": precision, "degree_bound": degree, "order_budget": order},
    }
    report, code = run_job(job)
    assert code == 4
    assert report["errors"][0]["type"] == "OrderBudgetTooSmall"
    assert "order_budget" in report["errors"][0]["message"]


@pytest.mark.parametrize("algorithm", ["reparam", "both"])
def test_shortfall_at_the_full_reach_in_characteristic_3_is_unsupported(algorithm):
    """[t^-1, 0; t^-2, t] over F_3: dim p is certified 1, and the ansatz
    reaches every exponent the pair reads (gamma < 5) below order_budget 8,
    yet finds dimension 0.  The residue needs s = t(1 + c t^(1/3)), an
    exponent with 3 in the denominator: no order budget helps, so the job
    exits 3, not 4."""
    job = {
        "field": {"kind": "Fp", "p": 3},
        "group": {"kind": "SL", "n": 2},
        "command": "stab",
        "algorithm": algorithm,
        "input": {"branch": {"entries": [[ser(("-1", "1")), ZERO], [ser(("-2", "1")), ser(("1", "1"))]]}},
        "budgets": {"precision": 16, "degree_bound": 6, "order_budget": 8},
    }
    report, code = run_job(job)
    assert code == 3
    assert report["errors"][0]["type"] == "WildRamification"
    assert "3 in the denominator" in report["errors"][0]["message"]


@pytest.mark.parametrize("algorithm", ["degeneration", "both"])
@pytest.mark.parametrize(
    "entries, degree",
    [
        ([ser(("-1", "1")), ser(("-7", "1"))], 6),
        ([ser(("-1", "1")), ser(("-7", "1"))], 7),
        ([ser(("-3", "1")), ser(("-5", "1"))], 4),
        ([ser(("-1", "1")), ser(("-7", "1"), ("-2", "3"))], 4),
        ([ser(("-2", "1"), ("1", "1")), ser(("-9", "1"))], 4),
    ],
    ids=["y_x7-6", "y_x7-7", "y3_x5-4", "y_x7_3x2-4", "t2_t9-4"],
)
def test_closure_above_the_degree_bound_is_exact(algorithm, entries, degree):
    """Each branch lies on a curve of degree above degree_bound: y = x^7,
    y^3 = x^5, y = x^7 + 3x^2, and for (t^-2 + t, t^-9) a curve of degree
    10.  The degeneration's closure is exact, so it finds the line x = 0
    at any degree bound; the reparameterization needs order_budget 5, 7
    and 9 for the last three."""
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": "Additive", "n": 2},
        "command": "stab",
        "algorithm": algorithm,
        "input": {"branch": {"entries": entries}},
        "budgets": {"precision": 12, "degree_bound": degree, "order_budget": 9 if algorithm == "both" else 6},
    }
    report, code = run_job(job)
    assert code == 0, (report["errors"], report["checks"])
    assert set(report["checks"].values()) <= {"pass", "skipped"}
    assert report["results"]["stabilizers"][0]["subgroup"]["ideal"] == ["x"]


def test_sl3_type_dimension_is_not_the_degree_4_count():
    """The closure at degree 4 has dimension 2, but the entries' exponents
    have rank 1, so dim p = 1, and the reparameterization's stabilizer of
    dimension 1 passes every check."""
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": "SL", "n": 3},
        "command": "reduce",
        "input": {"branch": {"entries": SL3_DIM_ONE}},
        "budgets": {"precision": 12, "degree_bound": 4, "order_budget": 6},
    }
    report, code = run_job(job)
    assert code == 0
    assert (report["results"]["dim_before"], report["results"]["dim_after"]) == (1, 1)
    report, code = run_job(dict(job, command="stab", algorithm="reparam"))
    assert code == 0
    # the branch is unbounded, and the conjugation check runs on SL(2) only
    assert report["checks"] == {
        "bounded_trivial": "skipped",
        "dim_equality": "pass",
        "infinite": "pass",
        "solvable": "pass",
        "conjugation": "skipped",
    }


# the factorization fragment leaves each fiber in one piece, and that piece
# fails verify_subgroup
SL2_UNSPLIT_FIBER = [
    [ser(("-2", "1")), ZERO],
    [ser(("-2", "2"), ("-1", "2")), ser(("2", "1"))],
]
# the fiber holds (x11 - x33)^2 but not x11 - x33: it is not radical
SL3_NON_RADICAL_FIBER = [
    [ser(("-2", "1")), ZERO, ZERO],
    [ser(("-4", "2"), ("-3", "-1")), ser(("0", "1")), ZERO],
    [ZERO, ser(("5", "2")), ser(("2", "1"))],
]


def _unsplit_fiber_job(n, entries, algorithm):
    return {
        "field": {"kind": "Q"},
        "group": {"kind": "SL", "n": n},
        "command": "stab",
        "algorithm": algorithm,
        "input": {"branch": {"entries": entries}},
        "budgets": {"precision": 12, "degree_bound": 4, "order_budget": 6},
    }


@pytest.mark.parametrize("algorithm", ["degeneration", "both"])
def test_sl2_fiber_that_is_no_subgroup_exits_3(algorithm):
    report, code = run_job(_unsplit_fiber_job(2, SL2_UNSPLIT_FIBER, algorithm))
    assert code == 3
    assert report["errors"] == [{
        "type": "FiberNotSplit",
        "message": "the fiber's identity component is not a subgroup: "
                   "product leaves the ideal at x11^2 - x11*x21 + 1/4*x21^2 + x21*x22 + x22^2 - 2",
    }]


def test_sl3_non_radical_fiber_exits_3():
    """The unsplit fiber fails verify_subgroup; reporting it as the
    stabilizer (exit 0, verified_subgroup false) would be a wrong answer."""
    report, code = run_job(_unsplit_fiber_job(3, SL3_NON_RADICAL_FIBER, "degeneration"))
    assert code == 3
    assert report["errors"] == [{
        "type": "FiberNotSplit",
        "message": "the fiber's identity component is not a subgroup: product leaves the ideal at x11^2 + x33^2 - 2",
    }]
    assert "stabilizers" not in report["results"]


def test_verify_job_pass_and_fail():
    base = {
        "field": {"kind": "Q"},
        "group": {"kind": "SL", "n": 2},
        "command": "verify",
    }
    good = dict(base, input={"subgroup": {"ideal": ["x12", "x21", "x11*x22 - 1"]}})
    report, code = run_job(good)
    assert code == 0 and report["results"]["verified_subgroup"]
    assert report["results"]["solvable"] is True
    bad = dict(base, input={"subgroup": {"ideal": ["x11 - 2", "x21", "x12", "2*x22 - 1"]}})
    report, code = run_job(bad)
    assert code == 5 and not report["results"]["verified_subgroup"]


def test_cli_requires_work(capsys):
    assert main([]) == 2


def test_cli_bad_job_file(tmp_path):
    p = tmp_path / "nope.json"
    assert main(["--job", str(p)]) == 2
    p.write_text("{not json")
    assert main(["--job", str(p)]) == 2


def test_corpus_entry_via_cli(capsys):
    code = main(["--corpus", "--only", "x1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "x1" in out and "pass" in out


def test_corpus_entry_that_does_not_exist_is_invalid(capsys):
    """A misspelt --only name runs nothing; it exits 2 and lists the
    entries instead of reporting an empty pass."""
    assert main(["--corpus", "--only", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and all(e["name"] in err for e in corpus_entries())


def test_corpus_fixtures_parse():
    entries = corpus_entries()
    names = [e["name"] for e in entries]
    assert names == ["x1", "x2", "psl2_quotient", "reduced_a2", "reduced_a2_f5", "cusp", "bounded", "circle_f5"]
    skips = [e for e in entries if "skip" in e["job"]]
    assert len(skips) == 1 and skips[0]["name"] == "psl2_quotient"


def test_whole_corpus_matches_fixtures():
    """Every non-skipped corpus entry exits 0 and matches its expected
    fixture (ideals, dimensions, classification, theorem checks)."""
    summary, code = run_corpus()
    assert code == 0
    assert (summary["passed"], summary["failed"], summary["skipped"]) == (7, 0, 1)
    for item in summary["entries"]:
        if item["status"] != "skipped":
            # run_corpus records the check_expected mismatches as "problems"
            assert item["exit_code"] == 0 and "problems" not in item, item


def test_cli_override_algorithm(tmp_path):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(X1_JOB))
    out_file = tmp_path / "r.json"
    code = main(["--job", str(job_file), "--algorithm", "reparam", "--json-out", str(out_file)])
    assert code == 0
    report = json.loads(out_file.read_text())
    stab = report["results"]["stabilizers"][0]
    assert "degeneration" not in stab
    assert stab["agreement"] is None


SL2_FLAT_LIMIT_JOBS = {
    # x1(-t) translated by [[1, 0], [-1, 1]], a point of the generic cell c*d != 0
    "generic_cell_translate": [[ser(("-1", "-1")), ser(("0", "1"))], [ser(("-1", "1")), ser(("0", "-1"), ("1", "-1"))]],
    # a shear whose special fiber is non-reduced: (x21, x11*x22 - 1, x12^2)
    "shear": [[ser(("2", "-1")), ser(("-1", "-1"))], [{"terms": []}, ser(("-2", "-1"))]],
    # x2 with a truncated tail that mu-reduction drops into eps
    "x2_truncated_tail": [[ser(("-1", "1")), {"terms": []}], [ser(*[(k, 1) for k in range(30)], prec=30), ser(("1", "1"))]],
}


@pytest.mark.parametrize("name", sorted(SL2_FLAT_LIMIT_JOBS))
def test_sl2_jobs_through_the_exact_flat_limit(name):
    job = json.loads(json.dumps(X1_JOB))
    job["input"]["branch"]["entries"] = SL2_FLAT_LIMIT_JOBS[name]
    report, code = run_job(job)
    assert code == 0, report["errors"] or report["witnesses"]
    checks = report["checks"]
    assert checks["agreement"] == checks["dim_equality"] == checks["conjugation"] == "pass"
    assert set(checks.values()) <= {"pass", "skipped"}
    if name == "shear":
        stab = report["results"]["stabilizers"][0]
        assert "x12^2" in stab["degeneration"]["fiber"]
        assert "x12" in stab["degeneration"]["ideal"]


IRRATIONAL_JOB = {
    "field": {"kind": "Q"},
    "group": {"kind": "Additive", "n": 2},
    "exponent_d": 2,
    "command": "stab",
    "budgets": {"precision": 12, "degree_bound": 6, "order_budget": 6},
}


def test_degeneration_rank_one_irrational_exponents():
    # (t^-sqrt2, t^-2sqrt2) is (u^-1, u^-2) in u = t^sqrt2
    job = dict(IRRATIONAL_JOB, input={"branch": {"entries": [ser(("-sqrt(2)", "1")), ser(("-2*sqrt(2)", "1"))]}})
    report, code = run_job(job, {"algorithm": "degeneration"})
    assert code == 0
    assert report["results"]["stabilizers"][0]["subgroup"]["ideal"] == ["x"]


def test_degeneration_rank_two_irrational_exponents_unsupported():
    job = dict(IRRATIONAL_JOB, input={"branch": {"entries": [ser(("-1", "1")), ser(("-sqrt(2)", "1"))]}})
    report, code = run_job(job, {"algorithm": "degeneration"})
    assert code == 3
    assert report["errors"][0]["type"] == "IrrationalExponentInSubstitution"


MALFORMED_INPUTS = {
    "branch_without_entries": ("stab", {"kind": "Additive", "n": 2}, {"branch": {}}),
    "bare_string_entries": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": ["t", "t"]}}),
    "plane_curve_without_embedding": ("stab", {"kind": "Additive", "n": 2}, {"plane_curve": {"f": "x*y - 1"}}),
    "embedding_off_the_scheme": (
        "stab",
        {"kind": "SL", "n": 2},
        {"plane_curve": {"f": "x*y - 1 - x^2*y^2 + x^3", "embedding": [["x", "0"], ["0", "y"]]}},
    ),
    "unparsable_f": ("places", {"kind": "Additive", "n": 2}, {"plane_curve": {"f": "x^^2", "embedding": ["x", "y"]}}),
    "no_input": ("stab", {"kind": "Additive", "n": 2}, None),
    "reduce_without_branch": ("reduce", {"kind": "Additive", "n": 2}, {}),
    "verify_unparsable_ideal": ("verify", {"kind": "SL", "n": 2}, {"subgroup": {"ideal": ["x11 +"]}}),
    # arithmetic faults in the input; a fourth element holds more job keys
    "exponent_one_over_zero": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser(("1/0", "1")), ser((-1, 1))]}}),
    "prec_one_over_zero": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser((-1, 1), prec="1/0"), ser((-1, 1))]}}),
    "branch_scalar_one_over_zero": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser((-1, "1/0")), ser((-1, 1))]}}),
    "curve_divided_by_zero": ("places", {"kind": "Additive", "n": 2}, {"plane_curve": {"f": "y^2 - x^3/0", "embedding": ["x", "y"]}}),
    "verify_ideal_divided_by_zero": ("verify", {"kind": "SL", "n": 2}, {"subgroup": {"ideal": ["x21/0"]}}),
    "one_fifth_over_f5": (
        "stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser((-1, "1/5")), ser((-1, 1))]}}, {"field": {"kind": "Fp", "p": 5}}
    ),
    "sqrt2_under_exponent_d_3": (
        "stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser(("-sqrt(2)", 1)), ser((-1, 1))]}}, {"exponent_d": 3}
    ),
    "sqrt2_and_sqrt3_in_one_entry": (
        "stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser(("-sqrt(2)", 1), ("-sqrt(3)", 1)), ser((-1, 1))]}}
    ),
    "sqrt2_and_sqrt3_across_entries": (
        "stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser(("-sqrt(2)", 1)), ser(("-sqrt(3)", 1))]}}
    ),
    "sqrt2_and_sqrt3_across_sl2_entries": (
        "stab", {"kind": "SL", "n": 2}, {"branch": {"entries": [[ser(("-sqrt(2)", 1)), ser()], [ser(), ser(("sqrt(3)", 1))]]}}
    ),
    "sqrt3_precision_beside_sqrt2_exponents": (
        "stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser(("-sqrt(2)", 1)), ser((-1, 1), prec="sqrt(3)")]}}
    ),
    # an exponent group Q + Q*sqrt(d) needs d a positive nonsquare
    "exponent_sqrt_4": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser(("-sqrt(4)", 1)), ser((-1, 1))]}}),
    "exponent_sqrt_0": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser(("-1+sqrt(0)", 1)), ser((-1, 1))]}}),
    "exponent_sqrt_minus_1": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser(("-1-sqrt(-1)", 1)), ser((-1, 1))]}}),
    "exponent_d_4": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser((-1, 1)), ser((-1, 1))]}}, {"exponent_d": 4}),
    "exponent_d_0": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser((-1, 1)), ser((-1, 1))]}}, {"exponent_d": 0}),
    "exponent_d_minus_1": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser((-1, 1)), ser((-1, 1))]}}, {"exponent_d": -1}),
    # budgets must be a JSON object
    "budgets_a_list": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser((-1, 1)), ser((-2, 1))]}}, {"budgets": [1, 2]}),
    "budgets_a_string": ("stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser((-1, 1)), ser((-2, 1))]}}, {"budgets": "abc"}),
    "budgets_a_list_of_pairs": (
        "stab", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser((-1, 1)), ser((-2, 1))]}}, {"budgets": [["precision", 12]]}
    ),
    # the group size n is a JSON integer >= 1
    "stab_on_additive_0": ("stab", {"kind": "Additive", "n": 0}, {"branch": {"entries": []}}),
    "reduce_on_sl_0": ("reduce", {"kind": "SL", "n": 0}, {"branch": {"entries": []}}),
    "places_on_additive_0": ("places", {"kind": "Additive", "n": 0}, {"plane_curve": {"f": "x*y - 1", "embedding": []}}),
    "n_two_and_a_half": ("stab", {"kind": "Additive", "n": 2.5}, {"branch": {"entries": [ser((-1, 1)), ser((-2, 1))]}}),
    "n_true": ("stab", {"kind": "Additive", "n": True}, {"branch": {"entries": [ser((-1, 1))]}}),
    "n_a_string": ("stab", {"kind": "Additive", "n": "2"}, {"branch": {"entries": [ser((-1, 1)), ser((-2, 1))]}}),
    # points off the group: det diag(2t^-1, t) = 2, an SL(1) entry other
    # than 1, and the exactly singular [[0, 1], [0, 1]], whose y = det^-1
    # does not exist
    "sl2_determinant_2": ("stab", {"kind": "SL", "n": 2}, {"branch": {"entries": [[ser((-1, 2)), ser()], [ser(), ser((1, 1))]]}}),
    "sl1_entry_not_1": ("stab", {"kind": "SL", "n": 1}, {"branch": {"entries": [[ser((-1, 1))]]}}),
    "gl2_exactly_singular": ("stab", {"kind": "GL", "n": 2}, {"branch": {"entries": [[ser(), ser((0, 1))], [ser(), ser((0, 1))]]}}),
    # the Iwasawa decomposition is of GL and SL points only
    "iwasawa_on_additive": ("iwasawa", {"kind": "Additive", "n": 2}, {"branch": {"entries": [ser((-1, 1)), ser((-2, 1))]}}),
    "iwasawa_on_an_additive_subgroup": (
        "iwasawa",
        {"kind": "Subgroup", "parent": {"kind": "Additive", "n": 2}, "ideal": ["y"]},
        {"branch": {"entries": [ser((-1, 1)), ser()]}},
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_invalid(name):
    command, group, inp, *more = MALFORMED_INPUTS[name]
    job = {"field": {"kind": "Q"}, "group": group, "command": command, **(more[0] if more else {})}
    if inp is not None:
        job["input"] = inp
    report, code = run_job(job)
    assert code == 2
    assert report["errors"][0]["type"] == "JobError"


def test_job_that_is_not_an_object_exits_invalid():
    report, code = run_job(["not", "a", "dict"])
    assert code == 2
    assert report["errors"][0]["type"] == "JobError"
    assert report["budget_usage"] == {"precision": 12, "degree_bound": 8, "order_budget": 6}


def test_budget_usage_reports_the_job_budgets():
    job = {
        "field": {"kind": "Q"},
        "group": {"kind": "Additive", "n": 2},
        "command": "stab",
        "input": {"branch": {"entries": [ser((-1, 1)), ser((-2, 1))]}},
    }
    report, code = run_job(dict(job, budgets={"precision": 10, "order_budget": 4}))
    assert code == 0
    assert report["budget_usage"] == {"precision": 10, "degree_bound": 8, "order_budget": 4}
    report, code = run_job(dict(job, budgets={"precision": "x"}))
    assert code == 2
    assert report["budget_usage"]["precision"] == "x"


def test_budget_usage_reports_the_flags_the_job_ran_with():
    """The flags are merged into the budgets once: a rejected flag is
    reported as given, and a budgets value that is not an object is
    invalid with or without flags."""
    report, code = run_job(X1_JOB, {"precision": 0})
    assert code == 2 and report["errors"][0]["message"] == "precision must be in [1, 64], not 0"
    assert report["budget_usage"] == {"precision": 0, "degree_bound": 4, "order_budget": 6}
    assert report["inputs"] == X1_JOB
    for flags in (None, {"precision": 10}):
        report, code = run_job(dict(X1_JOB, budgets=[12]), flags)
        assert code == 2 and report["errors"][0]["message"] == "budgets must be a JSON object, not [12]"


@pytest.mark.parametrize("field", [
    {"kind": "Fp", "p": 7.9},
    {"kind": "Fp", "p": "7"},
    {"kind": "QSqrt", "d": 2.5},
    {"kind": "Fq", "p": 3, "modulus": [1, 0.2, 1]},
])
def test_field_parameters_are_json_integers(field):
    """p, d and the modulus entries reach FieldSpec as given, like n and
    the budgets: a float or a string names no field."""
    report, code = run_job(dict(X1_JOB, field=field))
    assert code == 2 and report["errors"][0]["type"] == "JobError"


def test_an_exponent_is_read_as_written():
    """The reduced_a2 branch with its exponent sqrt(2) written 2*sqrt(2)/2
    is the same branch: reduce reports the same results.  Written without
    the product sign, the exponent is invalid, as a coefficient would be."""
    base = next(e["job"] for e in corpus_entries() if e["name"] == "reduced_a2")
    outs = {}
    for text in ("sqrt(2)", "2*sqrt(2)/2", "1/2sqrt(2)"):
        job = json.loads(json.dumps(dict(base, command="reduce")))
        job["input"]["branch"]["entries"][1]["terms"][1][0] = text
        report, code = run_job(job)
        outs[text] = (code, report["results"])
    assert outs["sqrt(2)"][0] == 0 and outs["2*sqrt(2)/2"] == outs["sqrt(2)"]
    assert outs["sqrt(2)"][1]["certificate"]["eps"] == "(0, t^(sqrt(2)))"
    assert outs["1/2sqrt(2)"][0] == 2


@pytest.mark.parametrize("ideal, cap, witness", [
    (["-2*x22*x12 + 1 - 2*x22*x21", "x21*x11 - x11^2", "2*x22*x12"], 1, "identity fails -2*x12*x22 - 2*x21*x22 + 1"),
    (["1"], None, "identity fails 1"),
], ids=["small-cap", "unit-ideal"])
def test_verify_checks_the_identity_before_any_basis(ideal, cap, witness):
    """An ideal that misses the identity exits 5 with the identity witness
    at any S-polynomial cap, the unit ideal included: no Groebner basis
    runs before verify_subgroup."""
    job = {"field": {"kind": "Q"}, "group": {"kind": "SL", "n": 2}, "command": "verify",
           "input": {"subgroup": {"ideal": ideal}}}
    if cap is not None:
        job["budgets"] = {"spoly_budget": cap}
    report, code = run_job(job)
    assert code == 5 and report["errors"] == []
    assert report["results"]["verify_report"]["witness"] == witness


def test_stab_over_an_extension_keeps_the_subgroup_scheme():
    """The circle x^2 + 2y^2 = 1 over F_5 has its places over F_25; lifted
    there, the group is still the Subgroup scheme, so no random points of
    SL(2, F_25) are drawn and the conjugation check reports skipped."""
    job = {
        "field": {"kind": "Fp", "p": 5},
        "group": {"kind": "Subgroup", "parent": {"kind": "SL", "n": 2}, "ideal": ["x11*x22 - x12*x21 - 1"]},
        "command": "stab",
        "algorithm": "reparam",
        "input": {"plane_curve": {"f": "x^2 + 2*y^2 - 1", "embedding": [["x", "y"], ["-2*y", "x"]]}},
        "budgets": {"precision": 24, "degree_bound": 2},
    }
    report, code = run_job(job)
    assert code == 0 and not report["errors"]
    ideals = [s["subgroup"]["ideal"] for s in report["results"]["stabilizers"]]
    assert ideals == [["x12 + 3*x21", "x11 + 4*x22", "x21^2 + 2*x22^2 + 3"]] * 2
    assert report["checks"]["conjugation"] == "skipped"


@pytest.mark.parametrize("command", ["places", "stab"])
@pytest.mark.parametrize(
    "f, field",
    [("x^2 - 1", {"kind": "Q"}), ("y^2", {"kind": "Q"}), ("y^2 - 3*x", {"kind": "Fp", "p": 3})],
    ids=["two_lines_Q", "double_line_Q", "double_line_F3"],
)
def test_reducible_plane_curve_exits_invalid(tmp_path, command, f, field):
    """A curve that check_irreducible_fragment finds reducible is invalid
    input (y^2 - 3x is y^2 over F_3), through run_job and the command
    line alike."""
    job = {
        "field": field,
        "group": {"kind": "Additive", "n": 2},
        "command": command,
        "input": {"plane_curve": {"f": f, "embedding": ["x", "y"]}},
    }
    report, code = run_job(job)
    assert code == 2
    assert report["errors"][0]["type"] == "JobError" and "reducible" in report["errors"][0]["message"]
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(job))
    assert main(["--job", str(job_file), "--json-out", str(tmp_path / "report.json")]) == 2


@pytest.mark.parametrize("f, p", [("x^2 - 2", 5), ("y^3 - 2", 7)])
def test_curve_that_splits_over_the_extension_its_places_need_exits_3(f, p):
    """x^2 - 2 is irreducible over F_5, but its places need sqrt(2), and
    over F_25 it is two lines: unsupported, not a traceback."""
    report, code = run_job({
        "field": {"kind": "Fp", "p": p},
        "group": {"kind": "Additive", "n": 2},
        "command": "places",
        "input": {"plane_curve": {"f": f, "embedding": ["x", "y"]}},
    })
    assert code == 3
    assert report["errors"][0]["type"] == "CoefficientFieldTooSmall"
