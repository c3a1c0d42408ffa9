"""Isomorphism classification of 2-dimensional associative algebras.

Eight associative classes (abelian plus beta1..beta7) are told apart by
one decision table over basis-change invariants, which also decides the
Jordan classes (abelian plus phi1..phi6) other than phi6; their tables are
the symmetric parts of the associative ones. A separate constructor
produces an explicit change of basis onto the canonical constant tables,
over the rationals when possible and over a tagged quadratic extension
otherwise.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import (
    HALF,
    Algebra,
    Element,
    LinearMap,
    _Record,
    nontrivial_idempotent2,
    square_zero2,
    unital_square_discriminant,
)
from .scalars import (
    EpsPolynomial,
    Polynomial,
    QuadExt,
    rational_sqrt,
    squarefree_decompose,
)


class UnclassifiableFingerprint(RuntimeError):
    """Raised when no class matches; signals a bug, the table is total."""


class NotJordan(ValueError):
    pass


class ClassLabel(Enum):
    ABELIAN = "abelian"
    B1 = "beta1"
    B2 = "beta2"
    B3 = "beta3"
    B4 = "beta4"
    B5 = "beta5"
    B6 = "beta6"
    B7 = "beta7"
    JABELIAN = "jordan_abelian"
    PHI1 = "phi1"
    PHI2 = "phi2"
    PHI3 = "phi3"
    PHI4 = "phi4"
    PHI5 = "phi5"
    PHI6 = "phi6"

    def __str__(self):
        return self.value


ASSOCIATIVE_LABELS = (
    ClassLabel.ABELIAN, ClassLabel.B1, ClassLabel.B2, ClassLabel.B3,
    ClassLabel.B4, ClassLabel.B5, ClassLabel.B6, ClassLabel.B7,
)

JORDAN_LABELS = (
    ClassLabel.JABELIAN, ClassLabel.PHI1, ClassLabel.PHI2, ClassLabel.PHI3,
    ClassLabel.PHI4, ClassLabel.PHI5, ClassLabel.PHI6,
)

_CANONICAL_ROWS = {
    ClassLabel.ABELIAN: [[0, 0], [0, 0], [0, 0], [0, 0]],
    ClassLabel.B1: [[1, 0], [0, 1], [0, 1], [-1, 0]],
    ClassLabel.B2: [[1, 0], [0, 1], [0, 1], [1, 0]],
    ClassLabel.B3: [[1, 0], [0, 1], [0, 1], [0, 0]],
    ClassLabel.B4: [[0, 0], [0, 0], [0, 0], [0, 1]],
    ClassLabel.B5: [[0, 1], [0, 0], [0, 0], [0, 0]],
    ClassLabel.B6: [[1, 0], [0, 1], [0, 0], [0, 0]],
    ClassLabel.B7: [[1, 0], [0, 0], [0, 1], [0, 0]],
}

_ASSOC_TO_JORDAN = {
    ClassLabel.ABELIAN: ClassLabel.JABELIAN,
    ClassLabel.B1: ClassLabel.PHI1,
    ClassLabel.B2: ClassLabel.PHI2,
    ClassLabel.B3: ClassLabel.PHI3,
    ClassLabel.B4: ClassLabel.PHI4,
    ClassLabel.B5: ClassLabel.PHI5,
    ClassLabel.B6: ClassLabel.PHI6,
    ClassLabel.B7: ClassLabel.PHI6,
}


@lru_cache(maxsize=None)
def canonical_algebra(label: ClassLabel) -> Algebra:
    """The canonical constant table of a class; a Jordan table is the
    symmetric part of the first associative one over it (phi6 of beta6)."""
    if label in JORDAN_LABELS:
        return next(canonical_algebra(assoc).jordan_part()
                    for assoc, jordan in _ASSOC_TO_JORDAN.items()
                    if jordan is label)
    return Algebra.from_matrix2(_CANONICAL_ROWS[label])


def associated_jordan_label(label: ClassLabel) -> ClassLabel:
    return _ASSOC_TO_JORDAN[label]


def label_from_string(text: str) -> ClassLabel:
    for label in ClassLabel:
        if label.value == text:
            return label
    raise ValueError(f"unknown class label {text!r}")


class Fingerprint(_Record):
    """Basis-change invariants separating the eight associative classes."""

    # the private fields hold the solves witness_for reuses (identity,
    # idempotent, annihilators); not invariants, so left out of == and repr
    __slots__ = ("commutative", "left_ann_dim", "right_ann_dim",
                 "derived_dim", "unital", "nilpotent",
                 "has_nontrivial_idempotent", "has_square_zero",
                 "_unital", "_idempotent", "_left_ann", "_right_ann")

    def __init__(self, commutative: bool, left_ann_dim: int,
                 right_ann_dim: int, derived_dim: int, unital: bool,
                 nilpotent: bool, has_nontrivial_idempotent: bool,
                 has_square_zero: bool, _unital: tuple | None = None,
                 _idempotent: object = None, _left_ann: tuple = (),
                 _right_ann: tuple = ()):
        self._set(locals())


class _Invariants:
    """The fields of a law's Fingerprint, each computed on first read; the
    caller checks that the law is associative, or Jordan. Raises
    ValueError unless the law has dimension 2 and rational constants."""

    def __init__(self, alg: Algebra):
        if alg.dim != 2:
            raise ValueError("fingerprints are defined for dimension 2")
        if not isinstance(alg.scalar_zero, Fraction):
            raise ValueError("fingerprints are defined for rational laws")
        self.alg = alg

    commutative = cached_property(lambda self: self.alg.is_commutative())
    _left_ann = cached_property(lambda self: self.alg.left_annihilator())
    left_ann_dim = cached_property(lambda self: len(self._left_ann))
    _right_ann = cached_property(lambda self: self.alg.right_annihilator())
    right_ann_dim = cached_property(lambda self: len(self._right_ann))
    derived_dim = cached_property(lambda self: self.alg.derived_dim())
    _unital = cached_property(
        lambda self: unital_square_discriminant(self.alg))
    unital = cached_property(lambda self: self._unital is not None)
    nilpotent = cached_property(lambda self: self.alg.is_nilpotent())
    # the idempotent reuses the identity solve
    _idempotent = cached_property(
        lambda self: nontrivial_idempotent2(self.alg, self._unital))
    has_nontrivial_idempotent = cached_property(
        lambda self: self._idempotent is not None)
    has_square_zero = cached_property(
        lambda self: square_zero2(self.alg) is not None)


def fingerprint(alg: Algebra) -> Fingerprint:
    """All eight invariants of a 2-dimensional associative rational law,
    for the report; ``classify`` computes only those its decision path
    reads. Raises ValueError on any other dimension or scalar type."""
    invariants = _Invariants(alg)
    alg.require_associative("fingerprint needs an associative law")
    return Fingerprint(**{name: getattr(invariants, name)
                          for name in Fingerprint.__slots__})


def classify(alg: Algebra) -> ClassLabel:
    """Isomorphism class of a 2-dimensional associative rational law.

    Runs ``classify_fingerprint`` on a lazy view of the fingerprint, so each
    invariant is computed on first use and the branches not taken cost
    nothing. Raises ValueError on any other dimension or scalar type.
    """
    view = _Invariants(alg)
    alg.require_associative("fingerprint needs an associative law")
    return classify_fingerprint(view)


def classify_fingerprint(fp: Fingerprint) -> ClassLabel:
    """The decision table, the one map from invariants to labels; total on
    associative input and on Jordan laws other than phi6. ``fp`` is a
    Fingerprint or a lazy view with the same fields; the table reads at
    most five of them."""
    if fp.derived_dim == 0:
        return ClassLabel.ABELIAN
    if not fp.commutative:
        if fp.left_ann_dim == 1:
            return ClassLabel.B6
        if fp.right_ann_dim == 1:
            return ClassLabel.B7
        raise UnclassifiableFingerprint(
            f"noncommutative with annihilator dimensions "
            f"{fp.left_ann_dim}, {fp.right_ann_dim}")
    if not fp.unital:
        return ClassLabel.B5 if fp.nilpotent else ClassLabel.B4
    if fp.has_square_zero:
        return ClassLabel.B3
    if fp.has_nontrivial_idempotent:
        return ClassLabel.B2
    return ClassLabel.B1


def jordan_classify2(alg: Algebra) -> ClassLabel:
    """Class of a 2-dimensional rational Jordan law (abelian, phi1..phi6);
    all but phi6 are read off the decision table of ``classify``. Raises
    ValueError on any other dimension or scalar type."""
    if alg.dim != 2:
        raise ValueError("Jordan classification is defined for dimension 2")
    view = _Invariants(alg)
    if not alg.is_commutative():
        raise NotJordan("a Jordan law is symmetric")
    if not alg.is_jordan():
        raise NotJordan("law fails the Jordan identity")
    if view.derived_dim < 2 or view.unital:
        return associated_jordan_label(classify_fingerprint(view))
    # phi6, which no commutative associative law reaches: left
    # multiplication at an idempotent has trace 3/2 and determinant 1/2,
    # that is the spectrum {1, 1/2}
    e = view._idempotent
    if isinstance(e, Element):
        c1, c2 = (alg.multiply(e, alg.basis_element(j)) for j in (1, 2))
        if (c1[0] + c2[1], c1[0] * c2[1] - c1[1] * c2[0]) == (1 + HALF, HALF):
            return ClassLabel.PHI6
    raise UnclassifiableFingerprint("Jordan law outside the known classes")


class LiePartCoefficients(_Record):
    """Alternating part mu(e1, e2) = a e1 + b e2."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        self._set(locals())


def lie_part_coefficients(mu: Algebra) -> LiePartCoefficients:
    if mu.dim != 2:
        raise ValueError("coefficients are defined for dimension 2")
    if not mu.is_alternating():
        raise ValueError("expected an alternating law")
    return LiePartCoefficients(mu.constants[0][1][0], mu.constants[0][1][1])


def admissible_lie_parts(label: ClassLabel) -> frozenset:
    """All (a, b) making phi_label + mu_{a,b} associative, solved exactly.

    The associativity residuals with the Jordan constants fixed form a
    small polynomial system in (a, b); it is eliminated by the linear and
    pure-power equations it contains and finished by a univariate gcd.
    """
    if label not in JORDAN_LABELS:
        raise ValueError(f"{label} is not a Jordan class label")
    phi = canonical_algebra(label)
    a_var = EpsPolynomial.var(1, 2)
    b_var = EpsPolynomial.var(2, 2)
    tensor = [[[EpsPolynomial.const(phi.constants[i][j][k], 2) for k in range(2)]
               for j in range(2)] for i in range(2)]
    tensor[0][1][0] = tensor[0][1][0] + a_var
    tensor[0][1][1] = tensor[0][1][1] + b_var
    tensor[1][0][0] = tensor[1][0][0] - a_var
    tensor[1][0][1] = tensor[1][0][1] - b_var
    residuals = Algebra(2, tensor).associativity_residuals()
    solutions = _solve_two_unknowns([r for r in residuals if not r.is_zero()])
    return frozenset(LiePartCoefficients(a, b) for a, b in solutions)


def _poly_in(p: EpsPolynomial, keep: int, la: Fraction, lc: Fraction) -> Polynomial:
    """Substitute the eliminated variable by la*x + lc, x the kept one."""
    line = Polynomial((lc, la))
    x = Polynomial.t()
    acc = Polynomial()
    for exps, coeff in p.terms().items():
        e_elim = exps[1 - keep]
        e_keep = exps[keep]
        acc = acc + coeff * (line**e_elim) * (x**e_keep)
    return acc


def _solve_two_unknowns(polys: list) -> set:
    """Common rational zeros of a system that contains a linear or
    pure-power equation (all seven canonical systems do)."""
    if not polys:
        raise RuntimeError("underdetermined lie-part system")
    keep = la = lc = None
    for p in polys:
        terms = p.terms()
        if all(sum(e) == 0 for e in terms):
            return set()  # nonzero constant equation
        if all(sum(e) <= 1 for e in terms):
            alpha = p.coefficient((1, 0))
            beta = p.coefficient((0, 1))
            gamma = p.coefficient((0, 0))
            if alpha:
                keep, la, lc = 1, -beta / alpha, -gamma / alpha
            elif beta:
                keep, la, lc = 0, Fraction(0), -gamma / beta
            if keep is not None:
                break
    if keep is None:
        for p in polys:
            terms = p.terms()
            if len(terms) == 1:
                (exps, _), = terms.items()
                if exps[1] == 0 and exps[0] > 0:
                    keep, la, lc = 1, Fraction(0), Fraction(0)
                    break
                if exps[0] == 0 and exps[1] > 0:
                    keep, la, lc = 0, Fraction(0), Fraction(0)
                    break
    if keep is None:
        raise RuntimeError("lie-part system outside the supported pattern")

    reduced = [q for q in (_poly_in(p, keep, la, lc) for p in polys)
               if not q.is_zero()]
    if not reduced:
        raise RuntimeError("lie-part system left a free parameter")
    g = reduced[0]
    for q in reduced[1:]:
        g = g.gcd(q)
    if g.degree == 0:
        return set()
    roots = g.rational_roots()
    stripped = g
    for r in roots:
        while stripped.degree > 0 and stripped(r) == 0:
            stripped = divmod(stripped, Polynomial((-r, 1)))[0]
    if stripped.degree == 2:
        b1, c1 = stripped.coefficient(1), stripped.coefficient(0)
        if b1 * b1 - 4 * stripped.coefficient(2) * c1 >= 0:
            raise RuntimeError("irrational admissible lie coefficients")
    elif stripped.degree > 2:
        raise RuntimeError("unresolved lie-part factor")
    out = set()
    for r in roots:
        other = la * r + lc
        pair = (other, r) if keep == 1 else (r, other)
        out.add(pair)
    return out


# -- explicit isomorphism witnesses ------------------------------------------


def _columns_to_map(col1, col2) -> LinearMap:
    return LinearMap([[col1[0], col2[0]], [col1[1], col2[1]]])


def _quad_promote(x, d):
    return QuadExt(x, 0, d)


def isomorphism_witness(alg: Algebra) -> tuple:
    """(label, g) with change_basis(alg, g) equal to the canonical table,
    for a 2-dimensional associative rational law (ValueError otherwise).

    g is rational whenever possible; for the beta1/beta2 classes a square
    root of the unital discriminant may be needed, in which case g has
    QuadExt entries tagged with the squarefree radicand.
    """
    fp = fingerprint(alg)
    return classify_fingerprint(fp), witness_for(alg, fp)


def witness_for(alg: Algebra, fp: Fingerprint) -> LinearMap:
    """The change of basis of ``isomorphism_witness`` for a law whose
    fingerprint is ``fp``, built from the solves ``fp`` carries; checked
    before it is returned."""
    label = classify_fingerprint(fp)
    if label is ClassLabel.ABELIAN:
        witness = LinearMap.identity(2)
    elif label in (ClassLabel.B1, ClassLabel.B2, ClassLabel.B3):
        u, z, p, q, disc = fp._unital
        w = z - (u * (p * HALF))
        if label is ClassLabel.B3:
            witness = _columns_to_map(list(u), list(w))
        else:
            target = disc if label is ClassLabel.B2 else -disc
            s = rational_sqrt(target)
            if s is not None:
                witness = _columns_to_map(list(u), list(w * (2 / s)))
            else:
                d, k = squarefree_decompose(target.numerator * target.denominator)
                # sqrt(target) = k sqrt(d) / den; scale w by 2/sqrt(target)
                factor = QuadExt(0, Fraction(2 * target.denominator, k * d), d)
                col2 = [factor * x for x in w]
                col1 = [_quad_promote(x, d) for x in u]
                witness = _columns_to_map(col1, col2)
    elif label is ClassLabel.B4:
        witness = _columns_to_map(list(fp._left_ann[0]), list(fp._idempotent))
    elif label is ClassLabel.B5:
        for cand in (alg.basis_element(1), alg.basis_element(2),
                     alg.basis_element(1) + alg.basis_element(2)):
            sq = alg.multiply(cand, cand)
            if not sq.is_zero():
                witness = _columns_to_map(list(cand), list(sq))
                break
        else:
            raise UnclassifiableFingerprint("B5 law with no usable generator")
    elif label in (ClassLabel.B6, ClassLabel.B7):
        v = fp._left_ann[0] if label is ClassLabel.B6 else fp._right_ann[0]
        f = fp._idempotent
        acts = alg.multiply(f, v) if label is ClassLabel.B6 \
            else alg.multiply(v, f)
        if acts != v:
            raise UnclassifiableFingerprint("idempotent does not fix the "
                                            "annihilator line")
        witness = _columns_to_map(list(f), list(v))
    else:
        raise UnclassifiableFingerprint(f"no witness rule for {label}")

    _check_witness(alg, label, witness)
    return witness


def _check_witness(alg: Algebra, label: ClassLabel, witness: LinearMap):
    entries = [x for row in witness.matrix for x in row]
    ext = next((x.d for x in entries if isinstance(x, QuadExt)), None)
    target = canonical_algebra(label)
    if ext is not None:
        alg = alg.map_scalars(lambda c: _quad_promote(c, ext))
        target = target.map_scalars(lambda c: _quad_promote(c, ext))
        witness = LinearMap([[x if isinstance(x, QuadExt) else
                              _quad_promote(x, ext) for x in row]
                             for row in witness.matrix])
    if alg.change_basis(witness) != target:
        raise UnclassifiableFingerprint(
            f"internal witness check failed for {label}"
        )
