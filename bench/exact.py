"""Exact arithmetic the benchmark uses to make inputs and to check answers.

Nothing here imports assoc2: the expected answers must not come from the
code under test. A 2-dimensional law is a list of four coefficient rows
(e1e1, e1e2, e2e1, e2e2), each a pair of Fractions, exactly the CLI's
matrix shorthand. A 2 x 2 matrix is a list of rows whose column j is the
image of e_{j+1}.
"""

from __future__ import annotations

from fractions import Fraction

ASSOCIATIVE = ("abelian", "beta1", "beta2", "beta3", "beta4", "beta5",
               "beta6", "beta7")

CANONICAL = {
    "abelian": [[0, 0], [0, 0], [0, 0], [0, 0]],
    "beta1": [[1, 0], [0, 1], [0, 1], [-1, 0]],
    "beta2": [[1, 0], [0, 1], [0, 1], [1, 0]],
    "beta3": [[1, 0], [0, 1], [0, 1], [0, 0]],
    "beta4": [[0, 0], [0, 0], [0, 0], [0, 1]],
    "beta5": [[0, 1], [0, 0], [0, 0], [0, 0]],
    "beta6": [[1, 0], [0, 1], [0, 0], [0, 0]],
    "beta7": [[1, 0], [0, 0], [0, 1], [0, 0]],
}

# Invariant tables of the eight classes. They are constant on each class
# because basis changes preserve them; the values are those of the paper's
# classification (orbit dimensions, cohomology from the independent sympy
# oracle of the acceptance suite, fingerprints read off the tables above).
ORBIT_DIM = {"abelian": 0, "beta1": 4, "beta2": 4, "beta3": 3, "beta4": 3,
             "beta5": 2, "beta6": 2, "beta7": 2}

COHOMOLOGY = {"abelian": (8, 0, 8), "beta1": (4, 4, 0), "beta2": (4, 4, 0),
              "beta3": (4, 3, 1), "beta4": (4, 3, 1), "beta5": (4, 2, 2),
              "beta6": (2, 2, 0), "beta7": (2, 2, 0)}

JORDAN_CLASS = {"abelian": "jordan_abelian", "beta1": "phi1",
                "beta2": "phi2", "beta3": "phi3", "beta4": "phi4",
                "beta5": "phi5", "beta6": "phi6", "beta7": "phi6"}

_FP_KEYS = ("commutative", "left_ann_dim", "right_ann_dim", "derived_dim",
            "unital", "nilpotent", "has_nontrivial_idempotent",
            "has_square_zero")
FINGERPRINT = {
    label: dict(zip(_FP_KEYS, values)) for label, values in {
        "abelian": (True, 2, 2, 0, False, True, False, True),
        "beta1": (True, 0, 0, 2, True, False, False, False),
        "beta2": (True, 0, 0, 2, True, False, True, False),
        "beta3": (True, 0, 0, 2, True, False, False, True),
        "beta4": (True, 1, 1, 1, False, False, True, True),
        "beta5": (True, 1, 1, 1, False, True, False, True),
        "beta6": (False, 1, 0, 2, False, False, True, True),
        "beta7": (False, 0, 1, 2, False, False, True, True),
    }.items()
}

# The degeneration diagram: seven proper edges plus one scaling edge onto
# the abelian law from every other class.
PROPER_EDGES = frozenset({
    ("beta1", "beta3"), ("beta2", "beta3"), ("beta2", "beta4"),
    ("beta1", "beta5"), ("beta2", "beta5"), ("beta3", "beta5"),
    ("beta4", "beta5"),
})
EDGES = PROPER_EDGES | {(label, "abelian") for label in ASSOCIATIVE[1:]}


def law(rows) -> list:
    return [[Fraction(x) for x in row] for row in rows]


def tensor(rows) -> list:
    """c[i][j] = coordinates of e_{i+1} e_{j+1}."""
    return [[rows[0], rows[1]], [rows[2], rows[3]]]


def mul(c, x, y, zero=0):
    out = [zero, zero]
    for i in range(2):
        for j in range(2):
            f = x[i] * y[j]
            for k in range(2):
                out[k] = out[k] + f * c[i][j][k]
    return out


def _unit(i):
    return [int(m == i) for m in range(2)]


def residuals(rows) -> list:
    """(e_i e_j) e_k - e_i (e_j e_k), coordinate l, in (i, j, k, l) order."""
    c = tensor(rows)
    out = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                lhs = mul(c, c[i][j], _unit(k))
                rhs = mul(c, _unit(i), c[j][k])
                out.extend(a - b for a, b in zip(lhs, rhs))
    return out


def is_associative(rows) -> bool:
    return not any(residuals(rows))


def det2(g):
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def transport(rows, g, zero=0):
    """Rows of the law g^{-1}(beta(g x, g y)); g must be invertible."""
    (a, b), (c_, d) = g
    det = det2(g)
    ginv = [[d / det, -b / det], [-c_ / det, a / det]]
    c = tensor(rows)
    cols = [[g[0][j], g[1][j]] for j in range(2)]
    out = []
    for i in range(2):
        for j in range(2):
            w = mul(c, cols[i], cols[j], zero)
            out.append([ginv[r][0] * w[0] + ginv[r][1] * w[1]
                        for r in range(2)])
    return out


def rank(rows) -> int:
    """Rank of a small Fraction matrix by Gaussian elimination."""
    work = [list(r) for r in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c] / work[r][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


class Quad:
    """a + b sqrt(d) over the rationals, d a fixed non-square integer."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=-1):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def _peer(self, other):
        return other if isinstance(other, Quad) else Quad(other, 0, self.d)

    def __add__(self, other):
        o = self._peer(other)
        return Quad(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._peer(other))

    def __mul__(self, other):
        o = self._peer(other)
        return Quad(self.a * o.a + self.d * self.b * o.b,
                    self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._peer(other)
        norm = o.a * o.a - self.d * o.b * o.b
        return self * Quad(o.a / norm, -o.b / norm, self.d)

    def __eq__(self, other):
        o = self._peer(other)
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return bool(self.a or self.b)


def classify_limit(rows) -> str | None:
    """Class of an associative 2-dimensional law from a few invariants.

    Used only on search limits; None when the law is not associative.
    Commutative unital laws split by the sign of the discriminant of a
    complement z of the identity u, where z*z = p z + q u.
    """
    rows = law(rows)
    if not is_associative(rows):
        return None
    c = tensor(rows)
    if not any(x for row in rows for x in row):
        return "abelian"
    e = (_unit(0), _unit(1))
    if c[0][1] != c[1][0]:
        # u*v = 0 for all v: rows of the map u -> (u*e1, u*e2)
        left = [[c[i][j][k] for i in range(2)] for j in range(2)
                for k in range(2)]
        return "beta6" if rank(left) < 2 else "beta7"
    unit = _identity(c)
    if unit is None:
        nilpotent = all(not any(mul(c, mul(c, e[i], e[j]), e[k]))
                        for i in range(2) for j in range(2) for k in range(2))
        return "beta5" if nilpotent else "beta4"
    z = e[0] if rank([unit, e[0]]) == 2 else e[1]
    zz = mul(c, z, z)
    # solve zz = q u + p z
    m = [[unit[0], z[0]], [unit[1], z[1]]]
    d = det2(m)
    q = (zz[0] * m[1][1] - m[0][1] * zz[1]) / d
    p = (m[0][0] * zz[1] - m[1][0] * zz[0]) / d
    disc = p * p + 4 * q
    return "beta2" if disc > 0 else "beta1" if disc < 0 else "beta3"


def _identity(c):
    """u with u*e_j = e_j = e_j*u, or None."""
    # u = x e1 + y e2: (u*e_j)_k = x c[0][j][k] + y c[1][j][k]
    eqs, rhs = [], []
    for j in range(2):
        for k in range(2):
            eqs.append([c[0][j][k], c[1][j][k]])
            rhs.append(Fraction(int(j == k)))
            eqs.append([c[j][0][k], c[j][1][k]])
            rhs.append(Fraction(int(j == k)))
    for a in range(len(eqs)):
        for b in range(a + 1, len(eqs)):
            d = eqs[a][0] * eqs[b][1] - eqs[a][1] * eqs[b][0]
            if d:
                x = (rhs[a] * eqs[b][1] - eqs[a][1] * rhs[b]) / d
                y = (eqs[a][0] * rhs[b] - rhs[a] * eqs[b][0]) / d
                ok = all(r[0] * x + r[1] * y == v for r, v in zip(eqs, rhs))
                return [x, y] if ok else None
    return None


# -- Q(t) without normalisation: enough to take a limit at t = 0 ----------


def _padd(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(n)]


def _pmul(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


class Ratio:
    """num/den as coefficient lists in t, never reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        self.num = [Fraction(x) for x in num]
        self.den = [Fraction(x) for x in den]

    def __add__(self, other):
        o = other if isinstance(other, Ratio) else Ratio([other])
        return Ratio(_padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
                     _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return Ratio([-x for x in self.num], self.den)

    def __sub__(self, other):
        o = other if isinstance(other, Ratio) else Ratio([other])
        return self + (-o)

    def __mul__(self, other):
        o = other if isinstance(other, Ratio) else Ratio([other])
        return Ratio(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, Ratio) else Ratio([other])
        return Ratio(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __bool__(self):
        return any(self.num)

    def limit(self):
        """Value at t -> 0, or None for a pole."""
        if not any(self.num):
            return Fraction(0)
        a = next(i for i, x in enumerate(self.num) if x)
        b = next(i for i, x in enumerate(self.den) if x)
        if a > b:
            return Fraction(0)
        if a < b:
            return None
        return self.num[a] / self.den[b]


def family_limit(source: str, matrix):
    """Rows of lim_{t->0} of the canonical source law moved by the family,
    or None when an entry has a pole. matrix[i][j] = (num, den) lists."""
    g = [[Ratio(num, den) for num, den in row] for row in matrix]
    rows = [[Ratio([x]) for x in row] for row in law(CANONICAL[source])]
    moved = transport(rows, g, Ratio([0]))
    out = [[x.limit() for x in row] for row in moved]
    if any(x is None for row in out for x in row):
        return None
    return out
