"""Contractions (degenerations) of 2-dimensional associative laws.

A contraction family is an invertible-for-generic-t matrix of rational
functions f_t; transporting a law through f_t and letting t -> 0 entrywise
yields the limit law when no entry has a pole. The module carries the
seven classical proper degeneration families plus the scaling family onto
the abelian law, a bounded template search, and the full labelled
degeneration digraph with a byte-stable DOT rendering.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import HALF, Algebra, DimensionMismatch, LinearMap, _Record
from .classify import ASSOCIATIVE_LABELS, ClassLabel, canonical_algebra, classify
from .deformation import _label_orbit_dim
from .scalars import Polynomial, PoleAtZero, RationalFunction


class IdenticallySingular(ValueError):
    """The family matrix is singular for every parameter value."""


def _as_rf(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction, Polynomial)):
        return RationalFunction(x)
    raise TypeError(f"cannot use {type(x).__name__} as a family entry")


class ContractionFamily(LinearMap):
    """Matrix of rational functions in t; column j is f_t(e_{j+1})."""

    __slots__ = ()

    def __init__(self, matrix):
        rows = [[_as_rf(x) for x in row] for row in matrix]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("family matrix must be square")
        super().__init__(rows)
        if not self.det:
            raise IdenticallySingular("family determinant is identically zero")

    @classmethod
    def from_columns(cls, *columns) -> "ContractionFamily":
        n = len(columns)
        return cls([[columns[j][i] for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, *entries) -> "ContractionFamily":
        n = len(entries)
        zero = RationalFunction(Polynomial())
        return cls([[_as_rf(entries[i]) if i == j else zero for j in range(n)]
                    for i in range(n)])

    def evaluate(self, t0) -> LinearMap:
        """The member map at a rational parameter value."""
        return LinearMap([[x.evaluate(t0) for x in row] for row in self.matrix])

    def __repr__(self):
        return f"ContractionFamily({[[str(x) for x in r] for r in self.matrix]!r})"


def abelian_family(n: int) -> ContractionFamily:
    """f_t = t * Id, which contracts every law onto the abelian one."""
    if n < 1:
        raise ValueError("need a positive dimension")
    t = RationalFunction.t()
    return ContractionFamily.diagonal(*([t] * n))


def transport(beta: Algebra, fam: ContractionFamily) -> Algebra:
    """Structure constants of beta in the moving basis f_t, over Q(t)."""
    if fam.n != beta.dim:
        raise DimensionMismatch("family size does not match the law")
    lifted = beta.map_scalars(lambda c: RationalFunction(Polynomial((c,))))
    return lifted.change_basis(fam)


def contract(beta: Algebra, fam: ContractionFamily) -> Algebra:
    """Entrywise t -> 0 limit of the transported tensor."""
    return limit_at_zero(transport(beta, fam))


def limit_at_zero(moved: Algebra) -> Algebra:
    """Entrywise t -> 0 limit of a law over Q(t); PoleAtZero names the
    first entry without one."""
    n = moved.dim
    tensor = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = []
            for k in range(n):
                entry = moved.constants[i][j][k]
                try:
                    vec.append(entry.limit_at_zero())
                except PoleAtZero:
                    raise PoleAtZero(
                        f"transported entry ({i + 1},{j + 1},{k + 1}) = "
                        f"{entry} has a pole at t = 0"
                    ) from None
            row.append(vec)
        tensor.append(row)
    return Algebra(n, tensor)


class ContractionEdge(_Record):
    """A candidate degeneration source -> target with its verification."""

    __slots__ = ("source", "target", "family", "verified", "limit_label",
                 "dimension_drop", "reason")

    def __init__(self, source: ClassLabel, target: ClassLabel,
                 family: ContractionFamily, verified: bool,
                 limit_label: ClassLabel | None = None,
                 dimension_drop: bool = False, reason: str | None = None):
        self._set(locals())


def verify_edge(source: ClassLabel, target: ClassLabel,
                fam: ContractionFamily) -> ContractionEdge:
    """Check that fam contracts the source class onto the target class with
    a strict orbit-dimension drop; failures carry a reason, never raise."""
    for label in (source, target):
        if label not in ASSOCIATIVE_LABELS:
            raise ValueError(f"{label} is not an associative class label")
    drop = _label_orbit_dim(source) > _label_orbit_dim(target)
    if not drop:
        return ContractionEdge(source, target, fam, False, None, False,
                               "orbit dimension does not drop")
    try:
        limit = contract(canonical_algebra(source), fam)
    except PoleAtZero as exc:
        return ContractionEdge(source, target, fam, False, None, True,
                               f"no limit: {exc}")
    got = classify(limit)
    if got != target:
        return ContractionEdge(source, target, fam, False, got, True,
                               f"limit classifies to {got.value}")
    return ContractionEdge(source, target, fam, True, got, True)


def proper_edge_families() -> list:
    """The seven explicit proper degeneration families (source, target, f_t)."""
    t = RationalFunction.t()
    one = RationalFunction.const(1)
    return [
        (ClassLabel.B1, ClassLabel.B3, ContractionFamily.diagonal(one, t)),
        (ClassLabel.B2, ClassLabel.B3, ContractionFamily.diagonal(one, t)),
        (ClassLabel.B2, ClassLabel.B4,
         ContractionFamily.from_columns((t, 0), (HALF, HALF))),
        # reparametrized at t = 2 s^2 to stay rational: f(e1) = s(e1+e2),
        # f(e2) = 2 s^2 e2; the limit point is unchanged
        (ClassLabel.B1, ClassLabel.B5,
         ContractionFamily.from_columns((t, t), (0, 2 * t * t))),
        (ClassLabel.B2, ClassLabel.B5,
         ContractionFamily.from_columns((0, t), (t * t, 0))),
        (ClassLabel.B3, ClassLabel.B5,
         ContractionFamily.from_columns((t, t), (0, t * t))),
        (ClassLabel.B4, ClassLabel.B5,
         ContractionFamily.from_columns((1, t), (0, t * t))),
    ]


_NODE_ORDER = (
    ClassLabel.B1, ClassLabel.B2, ClassLabel.B3, ClassLabel.B4,
    ClassLabel.B5, ClassLabel.B6, ClassLabel.B7, ClassLabel.ABELIAN,
)


class ContractionGraph(_Record):
    """Verified degeneration digraph on the eight class labels."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: tuple, edges: tuple):
        self._set(locals())

    def in_degree(self, label: ClassLabel) -> int:
        return sum(1 for e in self.edges if e.target is label)

    def out_degree(self, label: ClassLabel) -> int:
        return sum(1 for e in self.edges if e.source is label)

    def edge_set(self) -> set:
        return {(e.source, e.target) for e in self.edges}

    def to_dot(self) -> str:
        lines = ["digraph contractions {"]
        for node in self.nodes:
            lines.append(f"    {node.value};")
        order = {label: i for i, label in enumerate(self.nodes)}
        for edge in sorted(self.edges,
                           key=lambda e: (order[e.source], order[e.target])):
            lines.append(f"    {edge.source.value} -> {edge.target.value};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def contraction_graph() -> ContractionGraph:
    """Verify every known family and assemble the degeneration diagram.

    Edges: the seven proper degenerations plus one scaling edge onto the
    abelian law per non-abelian class; self-loops are excluded and the
    rigid classes receive no arrow.
    """
    edges = []
    for source, target, fam in proper_edge_families():
        edge = verify_edge(source, target, fam)
        if not edge.verified:
            raise RuntimeError(f"stored family failed verification: {edge}")
        edges.append(edge)
    scaling = abelian_family(2)
    for label in _NODE_ORDER[:-1]:
        edge = verify_edge(label, ClassLabel.ABELIAN, scaling)
        if not edge.verified:
            raise RuntimeError(f"scaling family failed for {label.value}")
        edges.append(edge)
    return ContractionGraph(_NODE_ORDER, tuple(edges))


def _template_transforms() -> list:
    mats = [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
    ]
    for x in (1, -1, HALF, -HALF):
        mats.append([[1, 0], [x, 1]])
    for x in (1, -1, HALF, -HALF):
        mats.append([[1, x], [0, 1]])
    return mats


def _check_template_bound(template_bound: int) -> None:
    if template_bound > 4:
        raise ValueError("template bound is capped at 4")
    if template_bound < 0:
        raise ValueError("template bound must be nonnegative")


def search_census(template_bound: int) -> int:
    """Number of family shapes g * diag(t^a, t^b) * h the bounded search covers.

    Because the answer does not depend on h, at most
    10 * (template_bound + 1)**2 distinct candidates are tested.
    """
    _check_template_bound(template_bound)
    return len(_template_transforms()) ** 2 * (template_bound + 1) ** 2


def _diagonal_limit(alg: Algebra, a: int, b: int) -> Algebra | None:
    """t -> 0 limit of a rational 2-dim law transported through
    diag(t^a, t^b), or None when it has a pole.

    Entry (i,j,k) picks up t^(e_i + e_j - e_k) with (e_1, e_2) = (a, b):
    the limit exists iff no nonzero entry gets a negative exponent, and it
    keeps the exponent-0 entries.
    """
    exps = (a, b)
    tensor = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    for i, j, k in product(range(2), repeat=3):
        c = alg.constants[i][j][k]
        e = exps[i] + exps[j] - exps[k]
        if c and e < 0:
            return None
        if e == 0:
            tensor[i][j][k] = c
    return Algebra(2, tensor)


def search_families(source: ClassLabel, target: ClassLabel,
                    template_bound: int) -> ContractionFamily | None:
    """First verified family of the shape g * diag(t^a, t^b) * h, or None.

    g and h range over identity, the swap, and the eight unitriangular
    matrices with entry +-1 or +-1/2; exponents satisfy
    0 <= a, b <= template_bound. Transport by g D h is transport by g D
    followed by the constant basis change h, so the limit exists for both or
    neither and has the same class: the first hit in lexicographic
    (a, b, g, h) order has h = identity, and only g D is tested, in (a, b, g)
    order. (a, b) = (0, 0) is skipped, since its limit is the source law
    itself in the basis g. Limits are read off t-exponents over the
    rationals; each basis change beta -> g is built when the loop first
    reaches g, and each distinct limit is classified once per call. A hit
    is returned only once verify_edge confirms it over Q(t). None is a
    bounded report, not a non-existence proof.
    """
    _check_template_bound(template_bound)
    for label in (source, target):
        if label not in ASSOCIATIVE_LABELS:
            raise ValueError(f"{label} is not an associative class label")
    if _label_orbit_dim(source) <= _label_orbit_dim(target):
        return None  # the dimension inequality rules out every candidate
    transforms = _template_transforms()
    beta = canonical_algebra(source)
    target_commutative = canonical_algebra(target).is_commutative()
    moved = [None] * len(transforms)
    labels = {}
    t = RationalFunction.t()
    for a, b in product(range(template_bound + 1), repeat=2):
        if a == b == 0:
            continue  # the limit is isomorphic to the source, never the target
        for i, g in enumerate(transforms):
            if moved[i] is None:
                moved[i] = beta.change_basis(LinearMap(g))
            limit = _diagonal_limit(moved[i], a, b)
            if limit is None:
                continue
            if limit.is_commutative() != target_commutative:
                continue
            if limit not in labels:
                labels[limit] = classify(limit)
            if labels[limit] != target:
                continue
            fam = ContractionFamily(g).compose(
                ContractionFamily.diagonal(t**a, t**b))
            if verify_edge(source, target, fam).verified:
                return fam
    return None
