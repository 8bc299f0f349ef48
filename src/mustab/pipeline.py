"""End-to-end stabilizer runs: reduction, both algorithms, agreement.

Bounded branches short-circuit to the trivial subgroup through the residue
point (the stabilizer of a bounded type with residue in k is trivial);
unbounded branches are mu-reduced first, then handed to the
reparameterization and/or degeneration algorithms, whose ideals are
compared by mutual membership.  The degeneration starts from the exact
Zariski closure of the reduced branch, which reads no degree bound.
"""

from __future__ import annotations

from .branches import Branch, is_centered_at_infinity
from .degeneration import DegenerationResult, stab_degeneration, verify_flat_closure_at
from .groups import GroupElement, KPoint
from .ideals import Budgets, ideal_equal
from .records import Record
from .stabilizer import mu_correct, mu_reduce, stab_reparam
from .subgroups import SubgroupDesc, TubeCertificate, verify_subgroup


ALGORITHMS = ("reparam", "degeneration", "both")


class StabilizerRun(Record):
    __slots__ = (
        "reduced", "certificate", "dim_before", "dim_after", "bounded", "reparam", "degeneration", "agreement", "notes"
    )

    def __init__(
        self,
        reduced: Branch,
        certificate: TubeCertificate | None,
        dim_before: int,
        dim_after: int,
        bounded: bool,
        reparam: SubgroupDesc | None = None,
        degeneration: DegenerationResult | None = None,
        agreement: bool | None = None,
        notes: list[str] | None = None,
    ):
        self.reduced = reduced
        self.certificate = certificate
        self.dim_before = dim_before
        self.dim_after = dim_after
        self.bounded = bounded
        self.reparam = reparam
        self.degeneration = degeneration
        self.agreement = agreement
        self.notes = [] if notes is None else notes

    @property
    def subgroup(self) -> SubgroupDesc:
        if self.reparam is not None:
            return self.reparam
        if self.degeneration is not None:
            return self.degeneration.desc
        raise ValueError("no stabilizer was computed")


def trivial_subgroup(branch: Branch) -> SubgroupDesc:
    desc = SubgroupDesc(branch.scheme, branch.scheme.identity_ideal, 0, None, {"algorithm": "bounded-trivial"})
    verify_subgroup(desc)
    return desc


def compute_stabilizer(branch: Branch, algorithm: str = "both", budgets: Budgets | None = None) -> StabilizerRun:
    budgets = budgets or Budgets()
    if not is_centered_at_infinity(branch):
        # bounded with residue in k: the stabilizer is the trivial subgroup
        residue = branch.element.res()
        desc = trivial_subgroup(branch)
        desc.flags["bounded_residue"] = str(residue)
        run = StabilizerRun(branch, None, 0, 0, True, reparam=desc)
        run.notes.append("bounded branch: stabilizer is trivial by the residue-point argument")
        return run

    reduced, cert, dim_before, dim_after = mu_reduce(branch)
    run = StabilizerRun(reduced, cert, dim_before, dim_after, False)
    if dim_after < dim_before:
        run.notes.append(f"mu-reduction lowered the type dimension {dim_before} -> {dim_after}")

    if algorithm in ("reparam", "both"):
        run.reparam = stab_reparam(reduced, budgets)
    if algorithm in ("degeneration", "both"):
        run.degeneration = stab_degeneration(reduced)
    if run.reparam is not None and run.degeneration is not None:
        run.agreement = ideal_equal(run.reparam.ideal, run.degeneration.desc.ideal)
    return run


def lift_residue_point(run: StabilizerRun, h: KPoint) -> GroupElement | None:
    """An O-point of the translated variety with residue h, or None: with a
    the reduced branch, mu_correct(a, h . a) finds s and eps in mu with
    a(s) = eps h a(t), so a(s) a(t)^-1 = eps h, whose residue is h."""
    cert = mu_correct(run.reduced, run.reduced.translate(h))
    return None if cert is None else cert.eps.mul(h.to_series())


def halevi_lift_check(run: StabilizerRun, points: list[KPoint]) -> dict:
    """Lift each fiber point and verify it against the flat closure."""
    lifted = 0
    exact_residues = 0
    flat_ok = 0
    for h in points:
        g = lift_residue_point(run, h)
        if g is None:
            continue
        lifted += 1
        if g.res() == h:
            exact_residues += 1
        if run.degeneration is not None and verify_flat_closure_at(run.degeneration, g):
            flat_ok += 1
    return {
        "requested": len(points),
        "lifted": lifted,
        "exact_residue": exact_residues,
        "on_flat_model": flat_ok,
    }
