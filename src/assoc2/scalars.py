"""Exact scalar arithmetic underlying all algebra computations.

Four scalar domains, each immutable and normalized on construction:

* ``fractions.Fraction``: arbitrary precision, always reduced, positive
  denominator.
* ``Polynomial`` / ``RationalFunction``: univariate exact arithmetic in one
  parameter ``t`` (used for contraction families and their t -> 0 limits).
* ``QuadExt``: quadratic extensions a + b*sqrt(d) with d a squarefree
  integer; the default d = -1 gives the Gaussian rationals.
* ``EpsPolynomial``: sparse polynomials in formal parameters e1..ep
  (perturbation bookkeeping).

No floating point is used anywhere; every operation is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

_TRIAL_BOUND = 1 << 16


class PoleAtZero(ZeroDivisionError):
    """The reduced denominator of a rational function vanishes at t = 0."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Polynomial:
    """Univariate polynomial over the rationals, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def t(cls) -> "Polynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("Polynomial", self.coeffs))

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i in range(d + 1):
                rem[k + i] -= f * other.coeffs[i]
        return Polynomial(q), Polynomial(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        return Polynomial(tuple(c / lead for c in self.coeffs))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __call__(self, x):
        acc = Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def rational_roots(self) -> list[Fraction]:
        """All rational roots, without multiplicity, ascending."""
        if self.is_zero():
            raise ValueError("zero polynomial has every root")
        if self.degree == 0:
            return []
        lcm = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * lcm) for c in self.coeffs]
        while ints and ints[0] == 0:
            ints.pop(0)  # factor out t; 0 is a root
        roots = set()
        if len(ints) < len(self.coeffs):
            roots.add(Fraction(0))
        a0, an = abs(ints[0]), abs(ints[-1])
        for p in _divisors(a0):
            for q in _divisors(an):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if self(cand) == 0:
                        roots.add(cand)
        return sorted(roots)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                term = var if abs(c) == 1 else f"{abs(c)}*{var}"
            parts.append(("-" if c < 0 else "+", term))
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _coerce_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial((x,))
    return None


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


class RationalFunction:
    """Quotient of polynomials in t, normalized eagerly.

    Normal form: gcd(num, den) = 1 and den monic, so a pole at t = 0 is the
    syntactic condition den(0) = 0.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Polynomial((1,))):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if num is None or den is None:
            raise TypeError("RationalFunction wants polynomial or rational parts")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Polynomial((1,))
        else:
            if num.degree > 0 and den.degree > 0:
                g = num.gcd(den)
                if g.degree > 0:
                    num = divmod(num, g)[0]
                    den = divmod(den, g)[0]
            lead = den.leading()
            if lead != 1:
                num = num * (1 / lead)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def const(cls, c) -> "RationalFunction":
        return cls(Polynomial((c,)))

    @classmethod
    def t(cls) -> "RationalFunction":
        return cls(Polynomial.t())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def evaluate(self, point) -> Fraction:
        point = _as_fraction(point)
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at t = {point}")
        return self.num(point) / d

    def limit_at_zero(self) -> Fraction:
        if self.den.coefficient(0) == 0:
            raise PoleAtZero(f"pole at t = 0 in {self}")
        return self.num.coefficient(0) / self.den.coefficient(0)

    def __str__(self):
        if self.den == Polynomial((1,)):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _coerce_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    if isinstance(x, (int, Fraction)):
        return RationalFunction(Polynomial((x,)))
    return None


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = d * k**2 (d carries the sign of n).

    Trial division stops at _TRIAL_BOUND, so large inputs cost no more than
    small ones. The cofactor left over has no prime factor up to the bound;
    its root goes into k when it is a perfect square, otherwise it stays in
    d. So d is squarefree whenever that cofactor is below _TRIAL_BOUND**2;
    above it, d can keep the square of a prime larger than the bound.
    """
    if n == 0:
        return 0, 1
    sign = -1 if n < 0 else 1
    n = abs(n)
    d, k = 1, 1
    p = 2
    while p <= _TRIAL_BOUND and p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        k *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        return sign * d, k * r
    return sign * d * n, k


def rational_sqrt(q: Fraction):
    """Exact square root of q if q is a perfect square of a rational, else None."""
    q = _as_fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class QuadExt:
    """Element a + b*sqrt(d) of a quadratic extension of the rationals.

    d must be a squarefree integer other than 0 and 1, fixed per element;
    the default d = -1 gives the Gaussian rationals Q(i). Mixed-d
    arithmetic is a TypeError (rationals coerce into either field).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=-1):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        if not isinstance(d, int) or d in (0, 1):
            raise ValueError("d must be a squarefree integer, not 0 or 1")
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def _peer(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d and other.b != 0 and self.b != 0:
                raise TypeError("mixed quadratic extensions")
            d = self.d if self.b != 0 or other.b == 0 else other.d
            return QuadExt(other.a, other.b, d), d
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d), self.d
        return None, None

    def _make(self, a, b):
        return QuadExt(a, b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            o, _ = self._peer(other)
        except TypeError:
            return False
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash(("QuadExt", self.a, self.b, self.d if self.b else 0))

    def __neg__(self):
        return self._make(-self.a, -self.b)

    def __add__(self, other):
        o, _ = self._peer(other)
        if o is None:
            return NotImplemented
        return self._make(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o, _ = self._peer(other)
        if o is None:
            return NotImplemented
        return self._make(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o, _ = self._peer(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o, _ = self._peer(other)
        if o is None:
            return NotImplemented
        return self._make(
            self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._make(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o, _ = self._peer(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o, _ = self._peer(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __str__(self):
        root = "i" if self.d == -1 else f"sqrt({self.d})"
        if self.b == 0:
            return str(self.a)
        bpart = root if abs(self.b) == 1 else f"{abs(self.b)}*{root}"
        if self.a == 0:
            return ("-" if self.b < 0 else "") + bpart
        return f"{self.a} {'-' if self.b < 0 else '+'} {bpart}"

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, d={self.d})"


class EpsPolynomial:
    """Sparse polynomial in formal parameters e1..ep over the rationals.

    Terms map exponent tuples of length ``nvars`` to nonzero coefficients.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            c = _as_fraction(c)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
        object.__setattr__(
            self, "_terms", {e: c for e, c in clean.items() if c != 0}
        )

    def __setattr__(self, name, value):
        raise AttributeError("EpsPolynomial is immutable")

    @classmethod
    def const(cls, c, nvars: int) -> "EpsPolynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, i: int, nvars: int) -> "EpsPolynomial":
        """The parameter e_i (1-based)."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range")
        exps = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls(nvars, {exps: 1})

    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return not self.is_zero()

    def coefficient(self, exps) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def _peer(self, other):
        if isinstance(other, EpsPolynomial):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return EpsPolynomial.const(other, self.nvars)
        return None

    def __eq__(self, other):
        try:
            o = self._peer(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        return hash(("EpsPolynomial", self.nvars, frozenset(self._terms.items())))

    def __neg__(self):
        return EpsPolynomial(self.nvars, {e: -c for e, c in self._terms.items()})

    def __add__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in o._terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return EpsPolynomial(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in o._terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return EpsPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def _sorted_terms(self) -> list:
        """Terms by total degree, then exponent tuple: one order per value."""
        return sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exps, c in self._sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"eps{i + 1}")
                elif e > 1:
                    factors.append(f"eps{i + 1}^{e}")
            mono = "*".join(factors)
            if not mono:
                term = str(abs(c))
            elif abs(c) == 1:
                term = mono
            else:
                term = f"{abs(c)}*{mono}"
            parts.append(("-" if c < 0 else "+", term))
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text

    def __repr__(self):
        return f"EpsPolynomial({self.nvars}, {dict(self._sorted_terms())!r})"
