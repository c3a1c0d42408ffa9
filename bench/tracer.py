"""Per-layer tracing from outside the package.

``Tracer.install`` rebinds the traced functions of assoc2 to wrappers, in
every assoc2 module namespace and class dictionary that holds them, and
``Tracer.restore`` puts every original object back. A span wrapper records
``(name, start_ns, end_ns, parent_span, request_id)``; a count wrapper
only counts calls, for scalar operations called millions of times.
Spans stay in memory until the run writes them out.

The layers are the package's modules: cli, serialize, classify, algebra,
deformation, linalg, contraction and scalars.
"""

from __future__ import annotations

import fractions
import json
import sys
import time
from collections import Counter

# (module, attribute path, report calls too) traced with spans. Spans are
# named module.function; cli and serialize report only their self time.
SPANNED = [
    ("cli", "main", False),
    ("serialize", "load_json", False),
    ("serialize", "parse_algebra", False),
    ("serialize", "parse_perturbation", False),
    ("serialize", "dumps", False),
    ("classify", "classify", True),
    ("classify", "fingerprint", True),
    ("classify", "isomorphism_witness", True),
    ("classify", "jordan_classify2", True),
    ("algebra", "Algebra.is_associative", True),
    ("deformation", "orbit_dim", True),
    ("deformation", "cohomology2", True),
    ("deformation", "circle_product", True),
    ("deformation", "perturbation_residual", True),
    ("linalg", "rank", True),
    ("linalg", "kernel_basis", True),
    ("linalg", "solve", True),
    ("linalg", "determinant", True),
    ("linalg", "inverse", True),
    ("contraction", "search_families", True),
    ("contraction", "verify_edge", True),
    ("contraction", "contract", True),
    ("contraction", "transport", True),
    ("contraction", "contraction_graph", True),
    ("scalars", "Polynomial.gcd", True),
]
# Algebra.change_basis is one span named by the scalars it runs over
CHANGE_BASIS = ("algebra.change_basis.q", "algebra.change_basis.qt")


def span_name(module: str, path: str) -> str:
    """algebra.Algebra.is_associative -> algebra.is_associative; methods of
    the scalar classes keep their class name."""
    owner, _, attr = path.rpartition(".")
    if owner and module != "scalars":
        return f"{module}.{attr}"
    return f"{module}.{path}"


def _spanned_metrics() -> list:
    """(span name, report calls too) for every span name."""
    out = [(span_name(m, p), calls) for m, p, calls in SPANNED]
    return sorted(out + [(name, True) for name in CHANGE_BASIS])


def per_layer_names() -> list:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for name, calls in _spanned_metrics():
        if calls:
            out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_ms", "ms", "lower"))
    out += [
        ("scalars.Fraction.new", "count", "lower"),
        ("scalars.RationalFunction.new", "count", "lower"),
        ("scalars.EpsPolynomial.mul.calls", "count", "lower"),
        ("scalars.limit_at_zero.pole_frac", "ratio", "lower"),
        ("contraction.search.verified_per_classify", "ratio", "higher"),
    ]
    return out


class Tracer:
    """Spans and counts of one traced replay; use install, then restore."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.request = None
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, namer=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (namer(*args) if namer else name, start, end,
                              parent, self.request)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind_everywhere(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every assoc2 module."""
        for modname, module in list(sys.modules.items()):
            if modname != "assoc2" and not modname.startswith("assoc2."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _rebind_in_class(self, cls, original, wrapper):
        """Replace ``original`` under every name it has in ``cls``."""
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._saved.append((cls, attr, value))
                setattr(cls, attr, wrapper)

    def install(self, package) -> "Tracer":
        """Wrap the traced functions of the imported ``package`` (assoc2)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {name: sys.modules[f"{package.__name__}.{name}"]
                for name in ("cli", "serialize", "classify", "algebra",
                             "deformation", "linalg", "contraction",
                             "scalars")}
        for module, path, _ in SPANNED:
            name = span_name(module, path)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                cls = getattr(mods[module], owner_name)
                original = vars(cls)[attr]
                self._rebind_in_class(cls, original, self._span(name, original))
            else:
                original = getattr(mods[module], attr)
                self._rebind_everywhere(original, self._span(name, original))

        algebra_cls = mods["algebra"].Algebra
        rf_cls = mods["scalars"].RationalFunction

        def change_basis_name(alg, *_):
            return CHANGE_BASIS[isinstance(alg.scalar_zero, rf_cls)]

        original = vars(algebra_cls)["change_basis"]
        self._rebind_in_class(algebra_cls, original,
                              self._span(None, original, change_basis_name))

        eps_cls = mods["scalars"].EpsPolynomial
        original = vars(eps_cls)["__mul__"]
        self._rebind_in_class(eps_cls, original,
                              self._count("scalars.EpsPolynomial.mul", original))
        original = vars(rf_cls)["__init__"]
        self._rebind_in_class(rf_cls, original,
                              self._count("scalars.RationalFunction.new",
                                          original))
        self._wrap_limit(rf_cls, mods["scalars"].PoleAtZero)
        self._wrap_search(mods["contraction"])
        self._wrap_fraction_new()
        return self

    def _wrap_limit(self, rf_cls, pole):
        original = vars(rf_cls)["limit_at_zero"]
        counts = self.counts

        def limit_at_zero(self_):
            counts["scalars.limit_at_zero"] += 1
            try:
                return original(self_)
            except pole:
                counts["scalars.limit_at_zero.pole"] += 1
                raise

        limit_at_zero.__wrapped__ = original
        self._rebind_in_class(rf_cls, original, limit_at_zero)

    def _wrap_search(self, contraction):
        """Count the families search_families returns."""
        spanned = contraction.search_families
        counts = self.counts

        def search_families(*args, **kwargs):
            found = spanned(*args, **kwargs)
            counts["contraction.search.found"] += found is not None
            return found

        search_families.__wrapped__ = spanned
        self._rebind_everywhere(spanned, search_families)

    def _wrap_fraction_new(self):
        cls = fractions.Fraction
        saved = vars(cls)["__new__"]
        original = cls.__new__
        counts = self.counts

        def __new__(cls_, *args, **kwargs):
            counts["scalars.Fraction.new"] += 1
            return original(cls_, *args, **kwargs)

        self._saved.append((cls, "__new__", saved))
        cls.__new__ = staticmethod(__new__)

    def restore(self) -> None:
        """Put back every object install replaced, newest first."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics over every span and count recorded so far."""
        calls, self_ns = layer_totals(self.spans)
        out = {}
        for name, with_calls in _spanned_metrics():
            if with_calls:
                out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        c = self.counts
        out["scalars.Fraction.new"] = c["scalars.Fraction.new"]
        out["scalars.RationalFunction.new"] = c["scalars.RationalFunction.new"]
        out["scalars.EpsPolynomial.mul.calls"] = c["scalars.EpsPolynomial.mul"]
        out["scalars.limit_at_zero.pole_frac"] = _ratio(
            c["scalars.limit_at_zero.pole"], c["scalars.limit_at_zero"])
        out["contraction.search.verified_per_classify"] = _ratio(
            c["contraction.search.found"],
            classify_calls_under(self.spans, "contraction.search_families"))
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_totals(spans) -> tuple:
    """(calls per name, self time in ns per name). Self time is a span's
    duration minus the durations of its direct children, which nest inside
    it without overlapping because the caller is single-threaded."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_ns = Counter(), Counter()
    for sid, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[sid]
    return calls, self_ns


def classify_calls_under(spans, ancestor: str) -> int:
    """classify.classify spans with ``ancestor`` somewhere above them."""
    total = 0
    for name, _, _, parent, _ in spans:
        if name != "classify.classify":
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total
