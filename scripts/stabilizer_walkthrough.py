#!/usr/bin/env python3
"""Walk through one stabilizer computation step by step on the hyperbola
x*y = 1 embedded in SL2, printing each intermediate object.

Usage: python scripts/stabilizer_walkthrough.py
"""

from mustab import (
    Budgets,
    GroupScheme,
    PlaneCurveInput,
    PolyRing,
    QQ,
    certified_dim,
    compute_stabilizer,
    implicitize,
    places_at_infinity,
)


def main():
    scheme = GroupScheme("SL", 2, QQ)
    ring = PolyRing(QQ, ("x", "y"))
    curve = PlaneCurveInput(
        ring.parse("x*y - 1"),
        [[ring.parse("x"), ring.parse("1")], [ring.parse("0"), ring.parse("y")]],
        scheme,
    )
    print("curve: x*y = 1 embedded as [[x, 1], [0, y]] in SL2")
    branches = places_at_infinity(curve)
    print(f"places at infinity: {len(branches)}")
    budgets = Budgets(degree_bound=4)
    for i, branch in enumerate(branches):
        print(f"\n-- branch {i}: a(t) = {branch.element}")
        # a place of a plane curve has dim p = 1; the exact rank bounds
        # certify the same where they meet
        route = "a place of a plane curve" if branch.curve_place else "rank bounds"
        print(f"   type dimension {certified_dim(branch)} (certified by {route})")
        closure = implicitize(branch)
        print(f"   Zariski closure: <{', '.join(str(g) for g in closure.gens)}>")
        run = compute_stabilizer(branch, "both", budgets)
        print(f"   mu-reduced to {run.reduced.element}: type dimension {run.dim_before} -> {run.dim_after}")
        sub = run.subgroup
        print(f"   stabilizer ideal: <{', '.join(str(g) for g in sub.ideal.gens)}>")
        print(f"   classification: {sub.classification()}, dim {sub.dim}")
        print(f"   algorithms agree: {run.agreement}")
        if run.degeneration is not None:
            fib = run.degeneration.fiber
            print(f"   special fiber: <{', '.join(str(g) for g in fib.gens)}>")
            print(f"   component dimensions: {run.degeneration.component_dims}")


if __name__ == "__main__":
    main()
