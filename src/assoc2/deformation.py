"""Hochschild-style deformation machinery for structure-constant laws.

The operator conventions, stated by content:

* coboundary       d_beta f (x,y) = beta(f x, y) + beta(x, f y) - f(beta(x,y))
* mixed associator A(b1, b2)(x,y,z) = b1(b2(x,y),z) - b1(x,b2(y,z))
* circle product   b1 o b2 = A(b1, b2) + A(b2, b1)
* cocycle operator d2_beta phi = (1/2)(beta o phi + phi o beta) = beta o phi

Every associator is the one kernel ``algebra.mixed_associator``; b o b =
2 A(b, b) vanishes iff b is associative. A is bilinear, so with mono_m =
e1...em and xi = sum_m mono_m phi_m, the residual at an associative beta
splits by degree in eps (Gerstenhaber's cocycle and obstruction terms):

    (beta + xi) o (beta + xi) = sum_m mono_m 2 (beta o phi_m)
        + sum_m mono_m^2 (phi_m o phi_m)
        + sum_{m<q} mono_m mono_q 2 (phi_m o phi_q).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import linalg
from .algebra import Algebra, DimensionMismatch, LinearMap, mixed_associator
from .classify import ClassLabel, _Invariants, canonical_algebra, \
    classify_fingerprint
from .scalars import EpsPolynomial, _Immutable


class TrilinearMap(_Immutable):
    """Trilinear map as the tensor T[i][j][k][l] (inputs i,j,k; output l),
    built from its n^4 entries in lexicographic (i, j, k, l) order."""

    __slots__ = ("dim", "tensor")

    def __init__(self, dim: int, values):
        values = tuple(values)
        if len(values) != dim**4:
            raise DimensionMismatch("trilinear tensor shape mismatch")
        it = iter(values)
        tensor = tuple(tuple(tuple(tuple(next(it) for _ in range(dim))
                                   for _ in range(dim)) for _ in range(dim))
                       for _ in range(dim))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "tensor", tensor)

    def _flat(self):
        return (x for plane in self.tensor for row in plane for vec in row
                for x in vec)

    def is_zero(self) -> bool:
        return not any(self._flat())

    def nonzero_entries(self):
        """List of ((i, j, k, l), value) with 1-based indices."""
        n = self.dim
        return [(index, x) for index, x in
                zip(product(range(1, n + 1), repeat=4), self._flat()) if x]

    def __eq__(self, other):
        if isinstance(other, TrilinearMap):
            return self.dim == other.dim and self.tensor == other.tensor
        return NotImplemented

    def __hash__(self):
        return hash(("TrilinearMap", self.dim, self.tensor))

    def __repr__(self):
        return f"TrilinearMap(dim={self.dim}, nonzero={len(self.nonzero_entries())})"


def _tangent_rows(beta: Algebra) -> list:
    """The tangent matrix of the orbit: rows d_beta E_rs, flattened in
    (i, j, k), for (r, s) in lexicographic order.

    E_rs sends e_s to e_r and kills the other basis vectors. No
    multiplication is needed: entry (i, j, k) of row (r, s) is

        [i = s] c[r][j][k] + [j = s] c[i][r][k] - [k = r] c[i][j][s].
    """
    n = beta.dim
    c = beta.constants
    zero = beta.scalar_zero
    rows = []
    for r in range(n):
        for s in range(n):
            row = []
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        x = zero
                        if i == s:
                            x = x + c[r][j][k]
                        if j == s:
                            x = x + c[i][r][k]
                        if k == r:
                            x = x - c[i][j][s]
                        row.append(x)
            rows.append(row)
    return rows


def coboundary(beta: Algebra, f: LinearMap) -> Algebra:
    """Infinitesimal change of beta along Id + eps f, as a bilinear tensor.

    It is linear in f = sum_rs f[r][s] E_rs, so it is the sum of the rows
    of ``_tangent_rows`` weighted by the entries of f.
    """
    if f.n != beta.dim:
        raise DimensionMismatch("endomorphism size does not match the law")
    n = beta.dim
    weights = [w for row in f.matrix for w in row]
    flat = [sum((x * w for x, w in zip(column, weights)), beta.scalar_zero)
            for column in zip(*_tangent_rows(beta))]
    return Algebra(n, [[flat[(i * n + j) * n:(i * n + j + 1) * n]
                        for j in range(n)] for i in range(n)])


def tangent_rank(beta: Algebra) -> int:
    """orbit_dim of a law the caller has already checked is associative."""
    return linalg.rank(_tangent_rows(beta))


_TANGENT_AT = "tangent spaces are taken at associative laws"
_COHOMOLOGY_AT = "cohomology is computed at associative laws"


def _class2(beta: Algebra, message: str):
    """The class label of a rational law of dimension 2, or None for any
    other law. One associator pass raises NotAssociative(message); the
    decision table then reads the lazy invariants, as ``classify`` does."""
    if beta.dim != 2 or not isinstance(beta.scalar_zero, Fraction):
        return None
    view = _Invariants(beta)
    beta.require_associative(message)
    return classify_fingerprint(view)


def _orbit_dim(beta: Algebra) -> int:
    beta.require_associative(_TANGENT_AT)
    return tangent_rank(beta)


@lru_cache(maxsize=None)
def _label_orbit_dim(label: ClassLabel) -> int:
    """orbit_dim of the class's canonical table, computed directly."""
    return _orbit_dim(canonical_algebra(label))


def orbit_dim(beta: Algebra) -> int:
    """Dimension of the isomorphism orbit = rank of the tangent matrix.

    It is an isomorphism invariant, so a rational law of dimension 2 gets
    the rank of its class's canonical table; other laws rank their own.
    """
    label = _class2(beta, _TANGENT_AT)
    return _orbit_dim(beta) if label is None else _label_orbit_dim(label)


def stabilizer_dim(beta: Algebra) -> int:
    return beta.dim * beta.dim - orbit_dim(beta)


def _circle(b1: Algebra, b2: Algebra) -> list:
    """b1 o b2 = A(b1, b2) + A(b2, b1), flattened in (i, j, k, l)."""
    return [a + b for a, b in zip(mixed_associator(b1, b2),
                                  mixed_associator(b2, b1))]


def circle_product(b1: Algebra, b2: Algebra) -> TrilinearMap:
    """Symmetric trilinear pairing; b o b vanishes iff b is associative."""
    return TrilinearMap(b1.dim, _circle(b1, b2))


def cocycle_operator(beta: Algebra, phi: Algebra) -> TrilinearMap:
    """Linearized associativity operator at beta applied to the direction phi.

    Implemented as the circle product beta o phi, which equals the
    symmetrized form (1/2)(beta o phi + phi o beta); it annihilates every
    coboundary of an associative beta.
    """
    beta.require_associative("cocycle operator needs an associative base")
    return circle_product(beta, phi)


def _cocycle_rows(beta: Algebra) -> list:
    """Rows beta o E_abc, flattened in (i, j, k, l), for (a, b, c) in
    lexicographic order; E_abc is the law e_a e_b = e_c with every other
    basis product zero."""
    n = beta.dim
    zero, one = beta.scalar_zero, beta.scalar_one
    return [_circle(beta, Algebra(n, [[[one if (i, j, k) == abc else zero
                                        for k in range(n)]
                                       for j in range(n)] for i in range(n)]))
            for abc in product(range(n), repeat=3)]


def cohomology2(beta: Algebra) -> tuple[int, int, int]:
    """(z2, b2, h2): cocycle, coboundary and quotient dimensions at beta.

    They are isomorphism invariants (Hochschild 1945, Gerstenhaber 1964),
    so a rational law of dimension 2 gets those of its class's canonical
    table, computed once by ``_cohomology``; other laws get their own.
    """
    label = _class2(beta, _COHOMOLOGY_AT)
    return _cohomology(beta) if label is None else _label_cohomology(label)


@lru_cache(maxsize=None)
def _label_cohomology(label: ClassLabel) -> tuple[int, int, int]:
    """cohomology2 of the class's canonical table, computed directly."""
    return _cohomology(canonical_algebra(label))


def _cohomology(beta: Algebra) -> tuple[int, int, int]:
    """(z2, b2, h2) at beta from its own matrices.

    z2 is the kernel dimension of phi -> d2_beta phi on the n^3-dimensional
    space of bilinear maps, b2 the orbit dimension (the rank of
    ``_tangent_rows``), h2 their difference. The d2 matrix is
    ``_cocycle_rows``.
    """
    beta.require_associative(_COHOMOLOGY_AT)
    z2 = beta.dim**3 - linalg.rank(_cocycle_rows(beta))
    b2 = tangent_rank(beta)
    return z2, b2, z2 - b2


class Perturbation(_Immutable):
    """A law base + e1 phi1 + e1 e2 phi2 + ... + e1...ep phip.

    The directions must be linearly independent bilinear maps; the
    parameters e1..ep stay formal: ``perturbation_residual`` answers in
    eps-polynomials.
    """

    __slots__ = ("base", "directions")

    def __init__(self, base: Algebra, directions):
        directions = tuple(directions)
        for phi in directions:
            if not isinstance(phi, Algebra) or phi.dim != base.dim:
                raise DimensionMismatch("directions must match the base space")
        if directions:
            rows = [[x for row in phi.constants for vec in row for x in vec]
                    for phi in directions]
            if linalg.rank(rows) != len(directions):
                raise ValueError("perturbation directions must be independent")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", directions)

    @property
    def nparams(self) -> int:
        return len(self.directions)


def perturbation_residual(pert: Perturbation) -> TrilinearMap:
    """(base + xi) o (base + xi), twice the associator of base + xi, as
    eps-polynomials in the (i, j, k, l) order of ``associativity_residuals``;
    zero iff the perturbed law is associative for every parameter value.

    With base o base = 0 (checked first) it is sum_m mono_m 2 (base o phi_m)
    + sum_m mono_m^2 (phi_m o phi_m) + sum_{m<q} mono_m mono_q 2 (phi_m o
    phi_q). No two monomials are equal (the linear ones have e1-exponent 1,
    the quadratic ones 2), so each coefficient is one circle product over
    the rationals and each entry is built once, with no eps-arithmetic.
    """
    base = pert.base
    base.require_associative("perturbation residuals need an associative base")
    n, p, phis = base.dim, pert.nparams, pert.directions
    graded = {}  # exponent tuple -> its coefficients, flat in (i, j, k, l)
    for m, phi in enumerate(phis, start=1):
        rest = (0,) * (p - m)
        graded[(1,) * m + rest] = [2 * x for x in _circle(base, phi)]
        graded[(2,) * m + rest] = [2 * x for x in mixed_associator(phi, phi)]
        for q in range(m + 1, p + 1):
            graded[(2,) * m + (1,) * (q - m) + (0,) * (p - q)] = \
                [2 * x for x in _circle(phi, phis[q - 1])]
    return TrilinearMap(n, [
        EpsPolynomial(p, {mono: c[t] for mono, c in graded.items() if c[t]})
        for t in range(n**4)
    ])
