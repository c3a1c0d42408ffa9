import random
from fractions import Fraction

import pytest

from assoc2 import (
    EpsPolynomial,
    PoleAtZero,
    Polynomial,
    QuadExt,
    RationalFunction,
    rational_sqrt,
    squarefree_decompose,
)
from assoc2.scalars import rational_text
from util import eps_substitute, random_rf

T = Polynomial.t()


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
        assert Polynomial((0,)).is_zero()

    def test_arithmetic(self):
        p = T**2 - 1
        q = T - 1
        assert divmod(p, q) == (T + 1, Polynomial())
        assert p % q == 0
        assert (T + 1) * (T - 1) == p
        assert p(Fraction(3)) == 8

    def test_gcd_monic(self):
        g = ((2 * T - 1) * (T + 3)).gcd((2 * T - 1) * (T - 5))
        assert g == T - Fraction(1, 2)

    def test_rational_roots(self):
        p = (2 * T - 1) * (T + 3) * (T**2 + 1)
        assert p.rational_roots() == [Fraction(-3), Fraction(1, 2)]

class TestRationalFunction:
    def test_normal_form(self):
        r = RationalFunction(3 * T**2 + 2 * T, T)
        assert r.num == 3 * T + 2 and r.den == Polynomial((1,))
        r = RationalFunction(T, 2 * T**2)
        assert r.den.leading() == 1  # monic denominator

    def test_normalization_idempotent(self):
        rng = random.Random(1)
        for _ in range(50):
            r = random_rf(rng)
            again = RationalFunction(r.num, r.den)
            assert again.num == r.num and again.den == r.den

    def test_limit_examples(self):
        assert RationalFunction(-(T**2)).limit_at_zero() == 0
        assert RationalFunction(3 * T**2 + 2 * T, T).limit_at_zero() == 2
        with pytest.raises(PoleAtZero):
            RationalFunction(Polynomial((1,)), T).limit_at_zero()

    def test_limit_multiplicative(self):
        rng = random.Random(2)
        done = 0
        while done < 200:
            r1, r2 = random_rf(rng), random_rf(rng)
            try:
                lhs = (r1 * r2).limit_at_zero()
                rhs = r1.limit_at_zero() * r2.limit_at_zero()
            except PoleAtZero:
                continue
            assert lhs == rhs
            done += 1

    def test_field_ops(self):
        r = RationalFunction(T + 1, T - 1)
        assert r / r == 1
        assert r - r == 0
        assert (r + 1) * (T - 1) == RationalFunction(2 * T)


def _field_law_sample(rng, make):
    for _ in range(1000):
        a, b, c = make(rng), make(rng), make(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


class TestFieldLaws:
    def test_rational(self):
        _field_law_sample(random.Random(3),
                          lambda r: Fraction(r.randint(-20, 20),
                                             r.randint(1, 9)))

    def test_rational_function(self):
        rng = random.Random(4)
        for _ in range(1000):
            a, b, c = (random_rf(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

    def test_gaussian(self):
        rng = random.Random(5)

        def make(r):
            return QuadExt(Fraction(r.randint(-9, 9), r.randint(1, 4)),
                           Fraction(r.randint(-9, 9), r.randint(1, 4)))
        _field_law_sample(rng, make)
        for _ in range(200):
            g = make(rng)
            if g.is_zero():
                continue
            assert g * g.inverse() == 1

    def test_reduction_idempotence_rational(self):
        assert Fraction(6, 4) == Fraction(3, 2)
        assert Fraction(Fraction(6, 4)) == Fraction(3, 2)


class TestQuadExt:
    def test_arithmetic(self):
        s = QuadExt(0, 1, 2)
        assert s * s == 2
        assert (1 + s) * (1 - s) == -1
        assert (1 + s) / (1 + s) == 1

    def test_mixed_d_rejected(self):
        with pytest.raises(TypeError):
            QuadExt(0, 1, 2) + QuadExt(0, 1, 3)

    def test_rational_element_joins_the_other_field(self):
        # 1 written in Q(i), plus sqrt(2), lies in Q(sqrt(2))
        one, s = QuadExt(1, 0, -1), QuadExt(0, 1, 2)
        for got in (one + s, s + one, one * s + 1, one - s + 2 * s):
            assert got.d == 2 and got == 1 + s
        assert (one + s) * (one - s) == -1

    def test_gaussian_fields(self):
        # the default field is the Gaussian rationals Q(i)
        g = QuadExt(Fraction(1, 2), Fraction(3, 4))
        assert g.a == Fraction(1, 2) and g.b == Fraction(3, 4)
        assert g.d == -1
        assert g * QuadExt(g.a, -g.b) == g.norm() == Fraction(13, 16)


class TestEpsPolynomial:
    def test_no_zero_terms(self):
        e1 = EpsPolynomial.var(1, 2)
        diff = e1 - e1
        assert diff.is_zero() and not diff.terms()

    def test_ring_laws_sampled(self):
        rng = random.Random(6)

        def make(r):
            terms = {}
            for _ in range(r.randint(0, 4)):
                exps = (r.randint(0, 2), r.randint(0, 2))
                terms[exps] = Fraction(r.randint(-5, 5))
            return EpsPolynomial(2, terms)
        for _ in range(300):
            a, b, c = make(rng), make(rng), make(rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_substitute(self):
        e1, e2 = EpsPolynomial.var(1, 2), EpsPolynomial.var(2, 2)
        p = 3 * e1 * e1 * e2 - Fraction(1, 2)
        assert eps_substitute(p, [Fraction(2), Fraction(1, 3)]) == \
            3 * 4 * Fraction(1, 3) - Fraction(1, 2)

    def test_str(self):
        e1, e2 = EpsPolynomial.var(1, 2), EpsPolynomial.var(2, 2)
        assert str(2 * e1 * e1 * e2 - e2) == "-eps2 + 2*eps1^2*eps2"

    def test_repr_independent_of_term_order(self):
        a = EpsPolynomial(2, {(1, 0): 1, (0, 1): 2, (0, 0): 3})
        b = EpsPolynomial(2, {(0, 0): 3, (0, 1): 2, (1, 0): 1})
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == ("EpsPolynomial(2, {(0, 0): Fraction(3, 1), "
                                      "(0, 1): Fraction(2, 1), "
                                      "(1, 0): Fraction(1, 1)})")


class TestNumberHelpers:
    def test_squarefree(self):
        assert squarefree_decompose(72) == (2, 6)
        assert squarefree_decompose(-4) == (-1, 2)
        assert squarefree_decompose(1) == (1, 1)
        d, k = squarefree_decompose(5 * 49)
        assert d == 5 and k == 7

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(0)) == 0
        assert rational_sqrt(Fraction(-1)) is None

    def test_rational_text_matches_str(self):
        rng = random.Random(11)
        for digits in (1, 499, 500, 501, 1000, 1001, 4000):
            for _ in range(5):
                q = Fraction(rng.randint(-10 ** digits, 10 ** digits),
                             rng.randint(1, 10 ** rng.randint(1, digits)))
                assert rational_text(q) == str(q)

    def test_rational_text_past_the_digit_limit(self):
        # 10^k - 1 squared is 9...980...01, with k - 1 nines and zeros
        n = 10 ** 5000 - 1
        square = "9" * 4999 + "8" + "0" * 4999 + "1"
        assert rational_text(Fraction(-n * n)) == "-" + square
        assert rational_text(Fraction(n * n, 2)) == square + "/2"
        assert rational_text(Fraction(-2, n * n)) == "-2/" + square
        assert str(EpsPolynomial(1, {(2,): n * n})) == square + "*eps1^2"
