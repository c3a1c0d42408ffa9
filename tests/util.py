"""Shared generators for the test suite: seeded random ones and hypothesis
strategies."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from assoc2 import (
    ASSOCIATIVE_LABELS,
    Algebra,
    ClassLabel,
    EpsPolynomial,
    LinearMap,
    Polynomial,
    RationalFunction,
    canonical_algebra,
)


def rand_fraction(rng: random.Random, lo=-5, hi=5, max_den=1) -> Fraction:
    den = rng.randint(1, max_den) if max_den > 1 else 1
    return Fraction(rng.randint(lo, hi), den)


def rand_invertible(rng: random.Random, n=2, lo=-5, hi=5) -> LinearMap:
    while True:
        m = LinearMap([[Fraction(rng.randint(lo, hi)) for _ in range(n)]
                       for _ in range(n)])
        if m.is_invertible:
            return m


def random_law2(rng: random.Random, lo=-3, hi=3, max_den=2) -> Algebra:
    """Arbitrary (usually non-associative) 2-dim law."""
    rows = [[rand_fraction(rng, lo, hi, max_den) for _ in range(2)]
            for _ in range(4)]
    return Algebra.from_matrix2(rows)


def random_associative2(rng: random.Random):
    """(label, algebra): a random basis change of a random canonical law."""
    label = rng.choice(ASSOCIATIVE_LABELS)
    return label, canonical_algebra(label).change_basis(rand_invertible(rng))


# generated dimension-2 laws: free tables (mostly not associative) and
# integer basis changes of the fifteen canonical tables
_fuzz_entries = st.fractions(min_value=-3, max_value=3, max_denominator=2)
fuzz_laws2 = st.one_of(
    st.lists(_fuzz_entries, min_size=8, max_size=8).map(
        lambda xs: Algebra.from_matrix2([xs[0:2], xs[2:4], xs[4:6], xs[6:8]])),
    st.builds(lambda label, xs: canonical_algebra(label).change_basis(
                  LinearMap([xs[0:2], xs[2:4]])),
              st.sampled_from(list(ClassLabel)),
              st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(
                  lambda xs: xs[0] * xs[3] != xs[1] * xs[2])),
)


def random_poly(rng: random.Random, max_deg=3) -> Polynomial:
    deg = rng.randint(0, max_deg)
    return Polynomial([rand_fraction(rng, -4, 4, 2) for _ in range(deg + 1)])


def random_rf(rng: random.Random) -> RationalFunction:
    num = random_poly(rng)
    while True:
        den = random_poly(rng, 2)
        if not den.is_zero():
            return RationalFunction(num, den)


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """The product law on a's space followed by b's, blocks not mixing."""
    n, m = a.dim, b.dim
    total = n + m
    tensor = [[[Fraction(0)] * total for _ in range(total)]
              for _ in range(total)]
    for offset, alg in ((0, a), (n, b)):
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    tensor[offset + i][offset + j][offset + k] = \
                        alg.constants[i][j][k]
    return Algebra(total, tensor)


def infinitesimal_part(pert) -> Algebra:
    """xi = e1 phi1 + e1 e2 phi2 + ... of a Perturbation, as an
    eps-polynomial tensor."""
    n = pert.base.dim
    p = pert.nparams
    zero = EpsPolynomial(p, {})
    tensor = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for idx, phi in enumerate(pert.directions, start=1):
        exps = tuple(1 if v < idx else 0 for v in range(p))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    c = phi.constants[i][j][k]
                    if c:
                        tensor[i][j][k] = tensor[i][j][k] + \
                            EpsPolynomial(p, {exps: c})
    return Algebra(n, tensor)


def perturbation_law(pert) -> Algebra:
    """base + xi over eps-polynomial scalars: the reference that
    ``perturbation_residual`` is checked against in eps-arithmetic."""
    xi = infinitesimal_part(pert)
    n, p = pert.base.dim, pert.nparams
    return Algebra(n, [
        [[EpsPolynomial.const(pert.base.constants[i][j][k], p) +
          xi.constants[i][j][k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ])


def eps_substitute(p: EpsPolynomial, values) -> Fraction:
    """Evaluate p at exact rational parameter values."""
    if len(values) != p.nvars:
        raise ValueError("wrong number of parameter values")
    total = Fraction(0)
    for exps, c in p.terms().items():
        term = Fraction(c)
        for v, e in zip(values, exps):
            term *= Fraction(v) ** e
        total += term
    return total


non_integers = st.fractions(min_value=-3, max_value=3,
                            max_denominator=6).filter(lambda q: q.denominator > 1)
rational_invertible = st.lists(non_integers, min_size=4, max_size=4).map(
    lambda xs: LinearMap([xs[:2], xs[2:]])).filter(lambda g: g.is_invertible)


@st.composite
def laws_in_class(draw):
    """(label, law): a law of class ``label`` in a rational basis.

    For beta1 and beta2 the law is u = e1 the identity and e2 * e2 = c e1,
    with c = +-k r^2 of the class's sign. Unless k = 1, c is not a signed
    rational square, so the witness needs sqrt(k) and has QuadExt entries.
    """
    label = draw(st.sampled_from(ASSOCIATIVE_LABELS))
    base = canonical_algebra(label)
    if label in (ClassLabel.B1, ClassLabel.B2):
        sign = 1 if label is ClassLabel.B2 else -1
        k = draw(st.sampled_from([1, 2, 3, 5, 6, 7]))
        r = draw(st.fractions(min_value=Fraction(1, 4), max_value=4,
                              max_denominator=4))
        base = Algebra.from_matrix2([[1, 0], [0, 1], [0, 1],
                                     [sign * k * r * r, 0]])
    return label, base.change_basis(draw(rational_invertible))
