"""Hochschild-style deformation machinery for structure-constant laws.

The operator conventions, stated by content:

* coboundary       d_beta f (x,y) = beta(f x, y) + beta(x, f y) - f(beta(x,y))
* circle product   b1 o b2 (x,y,z) = b1(b2(x,y),z) - b1(x,b2(y,z))
                                    + b2(b1(x,y),z) - b2(x,b1(y,z))
* cocycle operator d2_beta phi = (1/2)(beta o phi + phi o beta) = beta o phi

The circle product is symmetric, a law beta is associative exactly when
beta o beta = 0, and the cocycle operator is its linearization at beta, so
the residual of a perturbed law beta + xi is literally
(beta + xi) o (beta + xi) = 2 d2_beta xi + xi o xi. Since b o b is twice
the associator b(b(x,y),z) - b(x,b(y,z)) of b, the residual is computed as
twice the associator of beta + xi.
"""

from __future__ import annotations

from . import linalg
from .algebra import Algebra, DimensionMismatch, LinearMap
from .scalars import EpsPolynomial


class TrilinearMap:
    """Trilinear map as the tensor T[i][j][k][l] (inputs i,j,k; output l)."""

    __slots__ = ("dim", "tensor")

    def __init__(self, dim: int, tensor):
        tensor = tuple(
            tuple(tuple(tuple(vec) for vec in row) for row in plane)
            for plane in tensor
        )
        if len(tensor) != dim or any(
            len(plane) != dim or any(
                len(row) != dim or any(len(vec) != dim for vec in row)
                for row in plane
            )
            for plane in tensor
        ):
            raise DimensionMismatch("trilinear tensor shape mismatch")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "tensor", tensor)

    def __setattr__(self, name, value):
        raise AttributeError("TrilinearMap is immutable")

    def is_zero(self) -> bool:
        return all(
            not x
            for plane in self.tensor for row in plane for vec in row for x in vec
        )

    def nonzero_entries(self):
        """List of ((i, j, k, l), value) with 1-based indices."""
        out = []
        n = self.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        x = self.tensor[i][j][k][l]
                        if x:
                            out.append(((i + 1, j + 1, k + 1, l + 1), x))
        return out

    def __eq__(self, other):
        if isinstance(other, TrilinearMap):
            return self.dim == other.dim and self.tensor == other.tensor
        return NotImplemented

    def __hash__(self):
        return hash(("TrilinearMap", self.dim, self.tensor))

    def __repr__(self):
        return f"TrilinearMap(dim={self.dim}, nonzero={len(self.nonzero_entries())})"


def coboundary(beta: Algebra, f: LinearMap) -> Algebra:
    """Infinitesimal change of beta along Id + eps f, as a bilinear tensor."""
    if f.n != beta.dim:
        raise DimensionMismatch("endomorphism size does not match the law")
    n = beta.dim
    zero = beta.scalar_zero
    cols = [[x + zero for x in f.column(j)] for j in range(n)]
    frows = [[cols[j][i] for j in range(n)] for i in range(n)]
    c = beta.constants
    new = []
    for i in range(n):
        row = []
        for j in range(n):
            term1 = beta._times_basis(cols[i], j)
            term2 = beta._basis_times(i, cols[j])
            term3 = linalg.mat_vec(frows, list(c[i][j]))
            row.append([a + b - d for a, b, d in zip(term1, term2, term3)])
        new.append(row)
    return Algebra(n, new)


def _tangent_rows(beta: Algebra) -> list:
    """The tangent matrix of the orbit: rows coboundary(beta, E_rs),
    flattened in (i, j, k), for (r, s) in lexicographic order.

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


def orbit_dim(beta: Algebra) -> int:
    """Dimension of the isomorphism orbit = rank of the tangent matrix."""
    beta.require_associative("tangent spaces are taken at associative laws")
    return linalg.rank(_tangent_rows(beta))


def stabilizer_dim(beta: Algebra) -> int:
    return beta.dim * beta.dim - orbit_dim(beta)


def circle_product(b1: Algebra, b2: Algebra) -> TrilinearMap:
    """Symmetric trilinear pairing; b o b vanishes iff b is associative."""
    if b1.dim != b2.dim:
        raise DimensionMismatch("laws live on different spaces")
    n = b1.dim
    c1, c2 = b1.constants, b2.constants
    tensor = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                t1 = b1._times_basis(c2[i][j], k)
                t2 = b1._basis_times(i, c2[j][k])
                t3 = b2._times_basis(c1[i][j], k)
                t4 = b2._basis_times(i, c1[j][k])
                row.append([a - b + c - d for a, b, c, d in zip(t1, t2, t3, t4)])
            plane.append(row)
        tensor.append(plane)
    return TrilinearMap(n, tensor)


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
    lexicographic order; written straight from the constants."""
    n = beta.dim
    c = beta.constants
    zero = beta.scalar_zero
    rows = []
    for a in range(n):
        for b in range(n):
            for e in range(n):  # the output index c of E_abc
                row = []
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            for l in range(n):
                                x = zero
                                if (i, j) == (a, b):
                                    x = x + c[e][k][l]
                                if (j, k) == (a, b):
                                    x = x - c[i][e][l]
                                if (k, l) == (b, e):
                                    x = x + c[i][j][a]
                                if (i, l) == (a, e):
                                    x = x - c[j][k][b]
                                row.append(x)
                rows.append(row)
    return rows


def cohomology2(beta: Algebra) -> tuple[int, int, int]:
    """(z2, b2, h2): cocycle, coboundary and quotient dimensions at beta.

    z2 is the kernel dimension of phi -> d2_beta phi on the n^3-dimensional
    space of bilinear maps, b2 the orbit dimension (the rank of
    ``_tangent_rows``), h2 their difference.

    Row (a, b, c) of the d2 matrix is beta o E_abc flattened in
    (i, j, k, l), where E_abc is the law e_a e_b = e_c with every other
    basis product zero. No multiplication is needed: its entry
    (i, j, k, l) is

        [(i, j) = (a, b)] c[c][k][l] - [(j, k) = (a, b)] c[i][c][l]
        + [(k, l) = (b, c)] c[i][j][a] - [(i, l) = (a, c)] c[j][k][b].
    """
    beta.require_associative("cohomology is computed at associative laws")
    z2 = beta.dim**3 - linalg.rank(_cocycle_rows(beta))
    b2 = linalg.rank(_tangent_rows(beta))
    return z2, b2, z2 - b2


class Perturbation:
    """A law base + e1 phi1 + e1 e2 phi2 + ... + e1...ep phip.

    The directions must be linearly independent bilinear maps; the
    parameters e1..ep stay formal (EpsPolynomial coefficients).
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

    def __setattr__(self, name, value):
        raise AttributeError("Perturbation is immutable")

    @property
    def nparams(self) -> int:
        return len(self.directions)

    def infinitesimal_part(self) -> Algebra:
        """xi = e1 phi1 + e1 e2 phi2 + ... as an eps-polynomial tensor."""
        n = self.base.dim
        p = self.nparams
        zero = EpsPolynomial(p, {})
        tensor = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for idx, phi in enumerate(self.directions, start=1):
            exps = tuple(1 if v < idx else 0 for v in range(p))
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        c = phi.constants[i][j][k]
                        if c:
                            tensor[i][j][k] = tensor[i][j][k] + \
                                EpsPolynomial(p, {exps: c})
        return Algebra(n, tensor)

    def law(self) -> Algebra:
        """base + xi over eps-polynomial scalars."""
        xi = self.infinitesimal_part()
        p = self.nparams
        return Algebra(self.base.dim, [
            [[EpsPolynomial.const(self.base.constants[i][j][k], p) +
              xi.constants[i][j][k]
              for k in range(self.base.dim)]
             for j in range(self.base.dim)]
            for i in range(self.base.dim)
        ])


def perturbation_residual(pert: Perturbation) -> TrilinearMap:
    """(base + xi) o (base + xi) as eps-polynomials; zero iff the perturbed
    law is associative for every parameter value.

    Since b o b = 2 assoc(b) for every law b, this is twice the associator
    of base + xi, in the (i, j, k, l) order of ``associativity_residuals``.
    The circle product is symmetric and bilinear and base o base = 0, so it
    equals 2 d2_base xi + xi o xi.
    """
    pert.base.require_associative(
        "perturbation residuals need an associative base")
    n = pert.base.dim
    res = iter(pert.law().associativity_residuals())
    return TrilinearMap(n, [[[[2 * next(res) for _ in range(n)]
                              for _ in range(n)] for _ in range(n)]
                            for _ in range(n)])
