"""Per-layer tracing of the mustab package, installed from outside.

`Tracer.install()` replaces every public module-level function of every
`mustab` module by a wrapper that records a span (name, start, end, parent
span, job id, whether an exception left the call).  It patches the module
attribute and every other `mustab` module attribute bound to the same
function object (the `from .x import f` copies and the package
re-exports), so calls made through any of those names are seen.  A few
arithmetic methods are too hot to time; they get a counting wrapper only.
`uninstall()` puts every original back.

The layers are the modules: per-layer metrics are aggregated per module
and, for the functions named in `TIMED_FUNCTIONS`, per function.  Spans
are kept in memory and written out by `write_spans` after the run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import time
from fractions import Fraction

# Functions whose own calls / self time are reported.  Each is named in the
# benchmark README together with the end-to-end metric it should move.
TIMED_FUNCTIONS = (
    "series.ser_subst",
    "branches.implicitize",
    "branches.type_dimension",
    "ideals.buchberger",
    "ideals.ideal_equal",
    "ideals.normal_form",
    "stabilizer.mu_reduce",
    "stabilizer.stab_reparam",
    "stabilizer.mu_correct",
    "degeneration.stab_degeneration",
    "degeneration.identity_component",
    "newton.places_at_infinity",
    "factor.uni_factor",
    "linalg.rref",
    "linalg.nullspace",
    "subgroups.is_solvable",
    "subgroups.verify_subgroup",
    "subgroups.conjugate_stab",
    "subgroups.solve_point",
    "groups.iwasawa",
    "pipeline.compute_stabilizer",
)

# Public functions called too often to time: counted, never spanned.
COUNTED_FUNCTIONS = ("ideals.s_poly", "exponents.exp")

# Functions whose distinct argument tuples are counted (hashed on entry).
DISTINCT_FUNCTIONS = ("branches.type_dimension", "ideals.buchberger")

# The modules reported as layers: every module whose public functions a
# job reaches.  cli, corpus and samples are only used around jobs; fields
# and exponents are seen through their method counts below.
LAYERS = (
    "branches",
    "degeneration",
    "factor",
    "groups",
    "ideals",
    "jobs",
    "linalg",
    "newton",
    "pipeline",
    "poly",
    "series",
    "stabilizer",
    "subgroups",
)

SCALAR_KINDS = ("Q", "QSqrt", "Fp", "Fq")


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, as (name, unit)."""
    out: list[tuple[str, str]] = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"), (f"{layer}.raised", "count")]
    for fn in TIMED_FUNCTIONS:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    for fn in COUNTED_FUNCTIONS:
        out.append((f"{fn}.calls", "count"))
    for fn in DISTINCT_FUNCTIONS:
        out.append((f"{fn}.distinct_ratio", "ratio"))
    for op in ("mul", "add", "inv"):
        for kind in SCALAR_KINDS:
            out.append((f"fields.Scalar.{op}.{kind}", "count"))
    for op in ("add", "lt"):
        for kind in ("rational", "irrational"):
            out.append((f"exponents.Exponent.{op}.{kind}", "count"))
    out += [("series.PuiseuxSeries.mul", "count"), ("poly.Poly.mul", "count")]
    return out


# -- canonical argument digests --------------------------------------------


def _canon(x, out: list, depth: int = 0) -> None:
    """Append a canonical text form of x: equal values give equal text
    whatever the dict insertion order or object identity."""
    if depth > 64:
        raise ValueError("argument nesting too deep to fingerprint")
    t = type(x)
    if x is None or t in (bool, int, str, float, Fraction):
        out.append(repr(x))
    elif t in (list, tuple):
        out.append("(")
        for y in x:
            _canon(y, out, depth + 1)
            out.append(",")
        out.append(")")
    elif t is dict:
        items = []
        for k, v in x.items():
            kk: list = []
            vv: list = []
            _canon(k, kk, depth + 1)
            _canon(v, vv, depth + 1)
            items.append("".join(kk) + ":" + "".join(vv))
        out.append("{" + ",".join(sorted(items)) + "}")
    elif t in (set, frozenset):
        parts = []
        for y in x:
            yy: list = []
            _canon(y, yy, depth + 1)
            parts.append("".join(yy))
        out.append("set(" + ",".join(sorted(parts)) + ")")
    else:
        out.append(t.__name__ + "<")
        if dataclasses.is_dataclass(x):
            names = [f.name for f in dataclasses.fields(x)]
        else:
            names = []
            for klass in t.__mro__:
                names += [s for s in getattr(klass, "__slots__", ()) if s not in names]
            names += [k for k in getattr(x, "__dict__", {}) if k not in names]
        for name in names:
            if name.startswith("_"):
                continue  # caches such as Poly._hash
            out.append(name + "=")
            _canon(getattr(x, name, None), out, depth + 1)
            out.append(";")
        out.append(">")


def fingerprint(args, kwargs) -> str:
    out: list = []
    _canon((args, kwargs), out)
    return hashlib.sha256("".join(out).encode()).hexdigest()


# -- the tracer ------------------------------------------------------------


PACKAGE = "mustab"


class Tracer:
    """The spans and counts of one traced run; install() before the jobs,
    uninstall() after them."""

    def __init__(self):
        self.names: list[str] = []  # span name table
        # span: [name_id, start, end, parent, job, raised, excluded_s]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job_id = -1
        self.counters: dict[str, list[int]] = {}
        self.distinct: dict[str, set] = {fn: set() for fn in DISTINCT_FUNCTIONS}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def _modules(self):
        pkg = importlib.import_module(PACKAGE)
        return [pkg] + [importlib.import_module(f"{PACKAGE}.{info.name}") for info in pkgutil.iter_modules(pkg.__path__)]

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = self._modules()
        prefix = PACKAGE + "."
        wrappers: dict[int, object] = {}
        for mod in mods:
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                qual = mod.__name__[len(prefix):] + "." + name
                if qual in COUNTED_FUNCTIONS:
                    wrappers[id(obj)] = self._counting(qual, obj)
                else:
                    wrappers[id(obj)] = self._timing(qual, obj)
        # rebind every attribute that holds one of the originals
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._set(mod, name, w)
        self._install_method_counters()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install_method_counters(self) -> None:
        fields = importlib.import_module(f"{PACKAGE}.fields")
        exponents = importlib.import_module(f"{PACKAGE}.exponents")
        series = importlib.import_module(f"{PACKAGE}.series")
        poly = importlib.import_module(f"{PACKAGE}.poly")
        for op, attr in (("mul", "__mul__"), ("add", "__add__"), ("inv", "inv")):
            table = {kind: [0] for kind in SCALAR_KINDS}
            for kind in SCALAR_KINDS:
                self.counters[f"fields.Scalar.{op}.{kind}"] = table[kind]
            self._set(fields.Scalar, attr, _count_by_field_kind(getattr(fields.Scalar, attr), table))
        for op, attr in (("add", "__add__"), ("lt", "__lt__")):
            cells = ([0], [0])
            self.counters[f"exponents.Exponent.{op}.rational"] = cells[0]
            self.counters[f"exponents.Exponent.{op}.irrational"] = cells[1]
            self._set(exponents.Exponent, attr, _count_by_rationality(getattr(exponents.Exponent, attr), cells))
        for key, klass in (("series.PuiseuxSeries.mul", series.PuiseuxSeries), ("poly.Poly.mul", poly.Poly)):
            cell = [0]
            self.counters[key] = cell
            self._set(klass, "__mul__", _count_calls(klass.__mul__, cell))

    # -- wrappers ----------------------------------------------------------
    def _counting(self, qual: str, fn):
        cell = [0]
        self.counters[qual] = cell
        return _count_calls(fn, cell)

    def _timing(self, qual: str, fn):
        name_id = len(self.names)
        self.names.append(qual)
        spans, stack = self.spans, self._stack
        seen = self.distinct.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                h0 = clock()
                seen.add(fingerprint(args, kwargs))
                if stack:
                    spans[stack[-1]][6] += clock() - h0
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.job_id, False, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    # -- results -----------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [s[2] - s[1] - s[6] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self) -> dict[str, float | int]:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        raised: dict[str, int] = {}
        own = self.self_times()
        for s, t in zip(self.spans, own):
            qual = self.names[s[0]]
            for key in (qual, qual.split(".", 1)[0]):
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + t
                raised[key] = raised.get(key, 0) + (1 if s[5] else 0)
        out: dict[str, float | int] = {}
        for name, _unit in per_layer_metric_names():
            head, _, field = name.rpartition(".")
            if field == "calls" and head in COUNTED_FUNCTIONS:
                out[name] = self.counters[head][0]
            elif field == "calls":
                out[name] = calls.get(head, 0)
            elif field == "self_s":
                out[name] = self_s.get(head, 0.0)
            elif field == "raised":
                out[name] = raised.get(head, 0)
            elif field == "distinct_ratio":
                n = calls.get(head, 0)
                out[name] = len(self.distinct[head]) / n if n else 0.0
            else:
                out[name] = self.counters[name][0]
        return out

    def write_spans(self, path) -> None:
        """One JSON document: the name table and one row per span,
        [name, start_s, end_s, parent_index, job_id, raised]."""
        rows = [[s[0], round(s[1], 7), round(s[2], 7), s[3], s[4], int(s[5])] for s in self.spans]
        doc = {"columns": ["name", "start_s", "end_s", "parent", "job", "raised"], "names": self.names, "spans": rows}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _count_calls(fn, cell):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _count_by_field_kind(fn, table):
    @functools.wraps(fn)
    def wrapper(self, *args):
        table[self.field.kind][0] += 1
        return fn(self, *args)

    return wrapper


def _count_by_rationality(fn, cells):
    @functools.wraps(fn)
    def wrapper(self, other):
        cells[self.b != 0 or other.b != 0][0] += 1
        return fn(self, other)

    return wrapper
