"""Structure-constant algebras over an exact scalar field.

An ``Algebra`` is a bilinear multiplication on coordinate n-space stored as
the tensor c[i][j][k] with e_i * e_j = sum_k c[i][j][k] e_k. The same
container holds associative laws, their symmetric (Jordan) and alternating
(Lie) parts, and arbitrary bilinear deformation directions. Scalars may be
rationals, rational functions in t, quadratic-extension elements, or
eps-polynomials; everything stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations_with_replacement, product

from . import linalg
from .scalars import Polynomial, _Immutable, rational_sqrt

HALF = Fraction(1, 2)


class DimensionMismatch(ValueError):
    pass


class NotAssociative(ValueError):
    """``residual`` is ((i, j, k, l), value), 1-based: the first nonzero
    coordinate of (e_i e_j) e_k - e_i (e_j e_k), or None when the raise does
    not come from evaluating the associator."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotSymmetric(ValueError):
    pass


class NotAlternating(ValueError):
    pass


class SingularMap(ValueError):
    pass


class _Record(_Immutable):
    """Base of the small immutable records. The fields are ``__slots__``,
    set once by the subclass's ``__init__`` through ``_set(locals())``.
    ``==``, ``hash`` and ``repr`` read the tuple of the fields whose names
    do not start with an underscore, as those of a frozen dataclass do."""

    __slots__ = ()

    def _set(self, values):
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def _public(self):
        return [name for name in self.__slots__ if not name.startswith("_")]

    def _values(self):
        return tuple(getattr(self, name) for name in self._public())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._public())
        return f"{type(self).__qualname__}({fields})"


class ExistsIrrational(_Record):
    """A real witness exists but its coordinates are irrational.

    ``discriminant`` is the positive non-square rational whose square root
    the witness needs; existence was decided by its sign alone.
    """

    __slots__ = ("discriminant",)

    def __init__(self, discriminant: Fraction):
        self._set(locals())


def _wrap(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


class Element(_Immutable):
    """Vector in the working basis, immutable."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(_wrap(c) for c in coords))

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(("Element", self.coords))

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return Element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return Element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Element(tuple(-a for a in self.coords))

    def __mul__(self, scalar):
        return Element(tuple(a * _wrap(scalar) for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def __repr__(self):
        return f"Element({list(self.coords)!r})"


class LinearMap(_Immutable):
    """Endomorphism as an n x n matrix; column j is the image of e_{j+1}."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        rows = tuple(tuple(_wrap(x) for x in row) for row in matrix)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(linalg.identity_matrix(n))

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def det(self):
        zero = self.matrix[0][0] * 0 if self.matrix else Fraction(0)
        return linalg.determinant([list(r) for r in self.matrix], zero)

    @property
    def is_invertible(self) -> bool:
        return bool(self.det)

    def column(self, j: int):
        return [self.matrix[i][j] for i in range(self.n)]

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self * other)."""
        return type(self)(
            linalg.mat_mul([list(r) for r in self.matrix],
                           [list(r) for r in other.matrix])
        )

    def __eq__(self, other):
        if isinstance(other, LinearMap):
            return self.matrix == other.matrix
        return NotImplemented

    def __hash__(self):
        return hash(("LinearMap", self.matrix))

    def __repr__(self):
        return f"LinearMap({[list(r) for r in self.matrix]!r})"


class Algebra(_Immutable):
    """Bilinear law on n-space given by its structure-constant tensor."""

    __slots__ = ("dim", "constants", "scalar_zero")

    def __init__(self, dim: int, constants):
        tensor = tuple(
            tuple(tuple(_wrap(x) for x in vec) for vec in row) for row in constants
        )
        if len(tensor) != dim or any(
            len(row) != dim or any(len(vec) != dim for vec in row) for row in tensor
        ):
            raise DimensionMismatch(f"tensor shape inconsistent with dim {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constants", tensor)
        # the zero of the constants' scalar type, made once per law
        object.__setattr__(self, "scalar_zero",
                           tensor[0][0][0] * 0 if dim else Fraction(0))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Algebra":
        z = Fraction(0)
        return cls(dim, [[[z] * dim for _ in range(dim)] for _ in range(dim)])

    @classmethod
    def from_products(cls, dim: int, products: dict) -> "Algebra":
        """Law from 1-based basis products; unwritten products are zero."""
        tensor = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in products.items():
            vec = list(vec)
            if len(vec) != dim:
                raise DimensionMismatch("product vector has wrong length")
            tensor[i - 1][j - 1] = vec
        return cls(dim, tensor)

    @classmethod
    def from_matrix2(cls, rows) -> "Algebra":
        """n = 2 law from the 4 x 2 coefficient rows e1e1, e1e2, e2e1, e2e2."""
        rows = list(rows)
        if len(rows) != 4 or any(len(r) != 2 for r in rows):
            raise DimensionMismatch("expected a 4 x 2 coefficient matrix")
        return cls(2, [[rows[0], rows[1]], [rows[2], rows[3]]])

    def to_matrix2(self):
        if self.dim != 2:
            raise DimensionMismatch("coefficient-matrix form is for n = 2 only")
        c = self.constants
        return [list(c[0][0]), list(c[0][1]), list(c[1][0]), list(c[1][1])]

    # -- scalar plumbing -----------------------------------------------------

    @property
    def scalar_one(self):
        return self.scalar_zero + 1

    def map_scalars(self, fn) -> "Algebra":
        return Algebra(
            self.dim,
            [[[fn(x) for x in vec] for vec in row] for row in self.constants],
        )

    def basis_element(self, i: int) -> Element:
        """e_i, 1-based."""
        return Element(
            tuple(self.scalar_one if k == i - 1 else self.scalar_zero
                  for k in range(self.dim))
        )

    def __eq__(self, other):
        if isinstance(other, Algebra):
            return self.dim == other.dim and self.constants == other.constants
        return NotImplemented

    def __hash__(self):
        return hash(("Algebra", self.dim, self.constants))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, constants={self.constants!r})"

    # -- multiplication and identities ----------------------------------------

    def _mul(self, x, y):
        n = self.dim
        zero = self.scalar_zero
        out = [zero] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                f = x[i] * y[j]
                col = self.constants[i][j]
                for k in range(n):
                    if col[k]:
                        out[k] = out[k] + f * col[k]
        return out

    def multiply(self, x: Element, y: Element) -> Element:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element length does not match the algebra")
        return Element(self._mul(list(x), list(y)))

    def _combine(self, weights, vectors) -> list:
        """Coordinates of sum_m weights[m] vectors[m]."""
        out = [self.scalar_zero] * self.dim
        for w, vec in zip(weights, vectors):
            if not w:
                continue
            for l, x in enumerate(vec):
                if x:
                    out[l] = out[l] + w * x
        return out

    def _times_basis(self, x, k: int) -> list:
        """Coordinates of x * e_k = sum_m x[m] c[m][k] (k 0-based)."""
        return self._combine(x, [row[k] for row in self.constants])

    def _basis_times(self, i: int, y) -> list:
        """Coordinates of e_i * y = sum_m y[m] c[i][m] (i 0-based)."""
        return self._combine(y, self.constants[i])

    def associativity_residuals(self) -> list:
        """Coordinates of (e_i e_j) e_k - e_i (e_j e_k), lexicographic in
        (i, j, k, l): the mixed associator A(self, self)."""
        return mixed_associator(self, self)

    def is_associative(self) -> bool:
        # stops at the first (i, j, k) with a nonzero residual
        return not any(any(block) for block in _associator_blocks(self, self))

    def require_associative(self, message: str) -> None:
        """Raise NotAssociative(message) carrying the first nonzero residual."""
        n = self.dim
        for index, value in zip(product(range(1, n + 1), repeat=4),
                                chain.from_iterable(
                                    _associator_blocks(self, self))):
            if value:
                raise NotAssociative(message, (index, value))

    def is_commutative(self) -> bool:
        c = self.constants
        n = self.dim
        return all(c[i][j] == c[j][i] for i in range(n) for j in range(i + 1, n))

    def is_alternating(self) -> bool:
        c = self.constants
        n = self.dim
        return all(
            c[i][j][k] == -c[j][i][k]
            for i in range(n) for j in range(i, n) for k in range(n)
        )

    # -- Jordan / Lie decomposition -------------------------------------------

    def jordan_part(self) -> "Algebra":
        c = self.constants
        n = self.dim
        return Algebra(n, [
            [[(c[i][j][k] + c[j][i][k]) * HALF for k in range(n)] for j in range(n)]
            for i in range(n)
        ])

    def lie_part(self) -> "Algebra":
        c = self.constants
        n = self.dim
        return Algebra(n, [
            [[(c[i][j][k] - c[j][i][k]) * HALF for k in range(n)] for j in range(n)]
            for i in range(n)
        ])

    def is_jordan(self) -> bool:
        """Exact decision of the Jordan identity for a symmetric law.

        The identity J(x,y) = p(p(x,x), p(x,y)) - p(x, p(p(x,x), y)) is cubic
        in x and linear in y; over the rationals it vanishes identically iff
        its full polarization vanishes on basis tuples, which is what gets
        checked (G below carries one x-slot per argument).
        """
        if not self.is_commutative():
            raise NotSymmetric("Jordan check needs a symmetric law")
        n = self.dim
        c = self.constants

        terms = {}

        def G(a, b, w, y):
            # c[a][b] = c[b][a], so the term depends on {a, b} only
            key = (min(a, b), max(a, b), w, y)
            if key not in terms:
                p = c[a][b]
                first = self._mul(p, c[w][y])
                second = self._basis_times(w, self._times_basis(p, y))
                terms[key] = [f - s for f, s in zip(first, second)]
            return terms[key]

        for u, v, w in combinations_with_replacement(range(n), 3):
            for y in range(n):
                total = [
                    sum(vals)
                    for vals in zip(G(u, v, w, y), G(u, w, v, y), G(v, w, u, y))
                ]
                if any(total):
                    return False
        return True

    def is_lie(self) -> bool:
        """Jacobi identity for an alternating law, checked on basis triples."""
        if not self.is_alternating():
            raise NotAlternating("Jacobi check needs an alternating law")
        n = self.dim
        c = self.constants
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s1 = self._times_basis(c[i][j], k)
                    s2 = self._times_basis(c[j][k], i)
                    s3 = self._times_basis(c[k][i], j)
                    if any(a + b + cc for a, b, cc in zip(s1, s2, s3)):
                        return False
        return True

    # -- basis change ----------------------------------------------------------

    def change_basis(self, g: LinearMap) -> "Algebra":
        """Transported law g^{-1} ( beta(g x, g y) )."""
        if g.n != self.dim:
            raise DimensionMismatch("map size does not match the algebra")
        zero, one = self.scalar_zero, self.scalar_one
        rows = [[x + zero for x in r] for r in g.matrix]
        if self.dim == 2:
            (a, b), (c, d) = rows
            det = a * d - b * c
            if not det:
                raise SingularMap("basis change needs an invertible map")
            ginv = [[d / det, -b / det], [-c / det, a / det]]
        else:
            ginv = linalg.inverse(rows, zero, one)
            if ginv is None:
                raise SingularMap("basis change needs an invertible map")
        n = self.dim
        new = []
        for i in range(n):
            row = []
            col_i = [rows[r][i] for r in range(n)]
            for j in range(n):
                col_j = [rows[r][j] for r in range(n)]
                w = self._mul(col_i, col_j)
                row.append(linalg.mat_vec(ginv, w))
            new.append(row)
        return Algebra(n, new)

    # -- linear invariants -------------------------------------------------

    def left_annihilator(self) -> tuple:
        """Independent Elements spanning {u : u * v = 0 for every v}."""
        n = self.dim
        rows = [
            [self.constants[i][j][k] for i in range(n)]
            for j in range(n) for k in range(n)
        ]
        return self._kernel(rows)

    def right_annihilator(self) -> tuple:
        """Independent Elements spanning {u : v * u = 0 for every v}."""
        n = self.dim
        rows = [
            [self.constants[i][j][k] for j in range(n)]
            for i in range(n) for k in range(n)
        ]
        return self._kernel(rows)

    def _kernel(self, rows) -> tuple:
        basis = linalg.kernel_basis(rows, self.dim, self.scalar_zero, self.scalar_one)
        return tuple(Element(v) for v in basis)

    def identity_element(self) -> Element | None:
        """The two-sided identity when one exists."""
        n = self.dim
        if n == 0:
            return None
        zero, one = self.scalar_zero, self.scalar_one
        rows, rhs = [], []
        for j in range(n):
            for k in range(n):
                rows.append([self.constants[i][j][k] for i in range(n)])
                rhs.append(one if j == k else zero)
        for i in range(n):
            for k in range(n):
                rows.append([self.constants[i][j][k] for j in range(n)])
                rhs.append(one if i == k else zero)
        sol = linalg.solve(rows, rhs, zero)
        return None if sol is None else Element(sol)

    def derived_dim(self) -> int:
        """Dimension of the span of all basis products."""
        rows = [list(vec) for row in self.constants for vec in row]
        return linalg.rank(rows) if rows else 0

    def _power_step(self, basis_rows):
        products = []
        for u in basis_rows:
            for k in range(self.dim):
                products.append(self._times_basis(u, k))
                products.append(self._basis_times(k, u))
        pivots_rows = [row for row in products if any(row)]
        if not pivots_rows:
            return []
        work = [list(r) for r in pivots_rows]
        linalg._echelon(work)
        return [row for row in work if any(row)]

    def is_nilpotent(self) -> bool:
        """Whether the chain A, A^2, A^3, ... reaches zero."""
        current = linalg.identity_matrix(
            self.dim, self.scalar_zero, self.scalar_one
        )
        seen_dim = self.dim + 1
        while True:
            current = self._power_step(current)
            if not current:
                return True
            if len(current) >= seen_dim:
                return False
            seen_dim = len(current)


def _nonzero(law: Algebra) -> list:
    """(m, x) for each nonzero coordinate x of each product e_i e_j."""
    return [[[(m, x) for m, x in enumerate(vec) if x] for vec in row]
            for row in law.constants]


def mixed_associator(b1: Algebra, b2: Algebra) -> list:
    """A(b1, b2): coordinates of b1(b2(e_i, e_j), e_k) - b1(e_i, b2(e_j, e_k)),
    lexicographic in (i, j, k, l), over b1's scalars. Entry (i, j, k, l) is

        sum_m c2[i][j][m] c1[m][k][l] - sum_m c2[j][k][m] c1[i][m][l].

    The one associator kernel: A(b, b) is the associator of b and the
    circle product is b1 o b2 = A(b1, b2) + A(b2, b1).
    """
    return [x for block in _associator_blocks(b1, b2) for x in block]


def _associator_blocks(b1: Algebra, b2: Algebra):
    """The coordinates of A(b1, b2) as mixed_associator orders them, one
    list of n per (i, j, k), each computed when it is read."""
    if b1.dim != b2.dim:
        raise DimensionMismatch("laws live on different spaces")
    n = b1.dim
    zero = b1.scalar_zero
    factors = _nonzero(b2)
    terms = factors if b2 is b1 else _nonzero(b1)
    for i in range(n):
        for j in range(n):
            left = factors[i][j]
            for k in range(n):
                acc = [zero] * n
                for m, w in left:
                    for l, x in terms[m][k]:
                        acc[l] = acc[l] + w * x
                for m, w in factors[j][k]:
                    for l, x in terms[i][m]:
                        acc[l] = acc[l] - w * x
                yield acc


# -- closed-form quadratic analysis in dimension 2 ---------------------------


def _require_dim2(alg: Algebra):
    if alg.dim != 2:
        raise DimensionMismatch("this analysis is specific to dimension 2")


def _square_form(alg: Algebra, k: int) -> tuple:
    """(A, B, C) with (x*x)_k = A a^2 + B a g + C g^2 for x = (a, g)."""
    c = alg.constants
    return (c[0][0][k], c[0][1][k] + c[1][0][k], c[1][1][k])


def square_zero2(alg: Algebra):
    """Nonzero x with x * x = 0, for any 2-dimensional law.

    Returns an exact Element, an ExistsIrrational marker when the solution
    line is real but irrational, or None. Complete: the two coordinates of
    x*x are binary quadratic forms, so common nonzero zeros are decided by a
    gcd of dehomogenizations plus one discriminant.
    """
    _require_dim2(alg)
    f1, f2 = _square_form(alg, 0), _square_form(alg, 1)
    if not any(f1) and not any(f2):
        return alg.basis_element(1)
    if not f1[0] and not f2[0]:
        return alg.basis_element(1)  # the direction (1, 0) itself
    p1 = Polynomial((f1[2], f1[1], f1[0]))
    p2 = Polynomial((f2[2], f2[1], f2[0]))
    g = p1.gcd(p2)
    if g.degree <= 0:
        return None
    if g.degree == 1:
        return Element((-g.coefficient(0), Fraction(1)))
    b, c0 = g.coefficient(1), g.coefficient(0)
    disc = b * b - 4 * c0
    if disc < 0:
        return None
    s = rational_sqrt(disc)
    if s is None:
        return ExistsIrrational(disc)
    return Element(((-b + s) * HALF, Fraction(1)))


def _coords_in_basis(u, v, target):
    sol = linalg.solve([[u[0], v[0]], [u[1], v[1]]], list(target))
    if sol is None:
        raise ArithmeticError("basis expression failed")
    return sol


def unital_square_discriminant(alg: Algebra):
    """(u, z, p, q, D) for a unital 2-dim law: z complements the identity u
    and z*z = q u + p z, D = p^2 + 4q. None when the law has no identity."""
    _require_dim2(alg)
    u = alg.identity_element()
    if u is None:
        return None
    e1 = alg.basis_element(1)
    z = e1 if linalg.rank([list(u), list(e1)]) == 2 else alg.basis_element(2)
    zz = alg.multiply(z, z)
    q, p = _coords_in_basis(u, z, zz)
    return u, z, p, q, p * p + 4 * q


_UNSOLVED = object()


def nontrivial_idempotent2(alg: Algebra, unital=_UNSOLVED):
    """Idempotent x (x * x = x) other than 0 and the identity, n = 2.

    Supported for associative laws and 2-dimensional Jordan laws; these
    guarantee the structure the closed forms need (an identity, or a
    rational square-zero vector to split along). A single discriminant
    decides real existence; irrational witnesses come back as
    ExistsIrrational. ``unital`` is ``unital_square_discriminant(alg)``
    when the caller has already solved it.
    """
    _require_dim2(alg)
    if not any(x for row in alg.constants for vec in row for x in vec):
        return None  # the zero law
    if unital is _UNSOLVED:
        unital = unital_square_discriminant(alg)
    if unital is not None:
        u, z, p, q, disc = unital
        if disc <= 0:
            return None
        s = rational_sqrt(disc)
        if s is None:
            return ExistsIrrational(disc)
        r = 1 / s
        return (u * ((1 - p * r) * HALF)) + (z * r)
    v = square_zero2(alg)
    if not isinstance(v, Element):
        raise NotAssociative(
            "non-unital law without a rational square-zero vector; the "
            "closed-form idempotent analysis needs an associative or Jordan law"
        )
    e1 = alg.basis_element(1)
    u0 = e1 if linalg.rank([list(v), list(e1)]) == 2 else alg.basis_element(2)
    c1, c2 = _coords_in_basis(u0, v, alg.multiply(u0, u0))
    w = alg.multiply(u0, v) + alg.multiply(v, u0)
    d1, d2 = _coords_in_basis(u0, v, w)
    # x = a u0 + b v, a != 0:  a c1 + b d1 = 1  and  a^2 c2 + a b d2 = b
    if d1:
        A2 = c2 * d1 - c1 * d2
        B2 = d2 + c1
        if not A2:
            if not B2:
                return None
            a = 1 / B2
        else:
            disc = B2 * B2 + 4 * A2
            if disc < 0:
                return None
            s = rational_sqrt(disc)
            if s is None:
                return ExistsIrrational(disc)
            a = (-B2 + s) / (2 * A2)
            if not a:
                a = (-B2 - s) / (2 * A2)
            if not a:
                return None
        b = (1 - a * c1) / d1
        return (u0 * a) + (v * b)
    if not c1:
        return None
    a = 1 / c1
    scale = 1 - a * d2
    if scale:
        return (u0 * a) + (v * (a * a * c2 / scale))
    if not c2:
        return u0 * a
    return None
