import random
from fractions import Fraction

import pytest

from assoc2 import (
    ASSOCIATIVE_LABELS,
    Algebra,
    ClassLabel,
    EpsPolynomial,
    LinearMap,
    NotAssociative,
    Perturbation,
    Polynomial,
    RationalFunction,
    canonical_algebra,
    circle_product,
    classify,
    coboundary,
    cocycle_operator,
    cohomology2,
    orbit_dim,
    perturbation_residual,
    stabilizer_dim,
)
from assoc2.deformation import _tangent_rows
from oracles import oracle_cohomology
from util import rand_fraction, random_associative2, random_law2

# second-cohomology regression constants, frozen from the sympy oracle
COHOMOLOGY_TABLE = {
    ClassLabel.ABELIAN: (8, 0, 8),
    ClassLabel.B1: (4, 4, 0),
    ClassLabel.B2: (4, 4, 0),
    ClassLabel.B3: (4, 3, 1),
    ClassLabel.B4: (4, 3, 1),
    ClassLabel.B5: (4, 2, 2),
    ClassLabel.B6: (2, 2, 0),
    ClassLabel.B7: (2, 2, 0),
}

ORBIT_TABLE = {
    ClassLabel.ABELIAN: 0, ClassLabel.B1: 4, ClassLabel.B2: 4,
    ClassLabel.B3: 3, ClassLabel.B4: 3, ClassLabel.B5: 2,
    ClassLabel.B6: 2, ClassLabel.B7: 2,
}


def symbolic_tangent_rows(label, a, b, c, d):
    """The tangent tables for f(e1) = a e1 + b e2, f(e2) = c e1 + d e2,
    expanded by hand from the coboundary definition."""
    return {
        ClassLabel.B1: [[a, b], [-b, a], [-b, a], [a - 2 * d, b + 2 * c]],
        ClassLabel.B2: [[a, b], [b, a], [b, a], [2 * d - a, 2 * c - b]],
        ClassLabel.B3: [[a, b], [0, a], [0, a], [0, 2 * c]],
        ClassLabel.B4: [[0, 0], [0, b], [0, b], [-c, d]],
        ClassLabel.B5: [[-c, 2 * a - d], [0, c], [0, c], [0, 0]],
        ClassLabel.B6: [[a, 0], [0, a], [c, 0], [0, c]],
        ClassLabel.B7: [[a, 0], [c, 0], [0, a], [0, c]],
    }[label]


class TestCoboundary:
    def test_identity_on_beta1(self):
        got = coboundary(canonical_algebra(ClassLabel.B1),
                         LinearMap.identity(2))
        assert got.to_matrix2() == [[1, 0], [0, 1], [0, 1], [-1, 0]]

    def test_zero_map(self):
        got = coboundary(canonical_algebra(ClassLabel.B3),
                         LinearMap([[0, 0], [0, 0]]))
        assert got == Algebra.zero(2)

    def test_beta5_diagonal(self):
        got = coboundary(canonical_algebra(ClassLabel.B5),
                         LinearMap([[3, 0], [0, 5]]))
        assert got.to_matrix2() == [[0, 1], [0, 0], [0, 0], [0, 0]]

    def test_symbolic_tables(self):
        rng = random.Random(21)
        for label in ASSOCIATIVE_LABELS[1:]:
            beta = canonical_algebra(label)
            for _ in range(5):
                a, b, c, d = (rand_fraction(rng, -9, 9, 5) for _ in range(4))
                got = coboundary(beta, LinearMap([[a, c], [b, d]]))
                want = symbolic_tangent_rows(label, a, b, c, d)
                assert got.to_matrix2() == \
                    [[Fraction(x) for x in row] for row in want]

    def test_linear_in_f(self):
        rng = random.Random(22)
        beta = canonical_algebra(ClassLabel.B6)
        for _ in range(10):
            f = LinearMap([[rand_fraction(rng) for _ in range(2)]
                           for _ in range(2)])
            g = LinearMap([[rand_fraction(rng) for _ in range(2)]
                           for _ in range(2)])
            both = LinearMap([[f.matrix[i][j] + g.matrix[i][j]
                               for j in range(2)] for i in range(2)])
            lhs = coboundary(beta, both)
            f_part, g_part = coboundary(beta, f), coboundary(beta, g)
            total = Algebra(2, [
                [[f_part.constants[i][j][k] + g_part.constants[i][j][k]
                  for k in range(2)] for j in range(2)] for i in range(2)
            ])
            assert lhs == total

    def test_first_order_action(self):
        # (Id + t f)^{-1} beta((Id + t f) x, (Id + t f) y) agrees with
        # beta + t * coboundary(beta, f) up to order one in t
        rng = random.Random(23)
        t = RationalFunction.t()
        one = RationalFunction.const(1)
        for _ in range(10):
            label, beta = random_associative2(rng)
            f = [[rand_fraction(rng) for _ in range(2)] for _ in range(2)]
            g = LinearMap([
                [one + t * f[0][0], t * f[0][1]],
                [t * f[1][0], one + t * f[1][1]],
            ])
            lifted = beta.map_scalars(lambda x: RationalFunction.const(x))
            moved = lifted.change_basis(g)
            delta = coboundary(beta, LinearMap(f))
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        entry = moved.constants[i][j][k]
                        order0 = entry.limit_at_zero()
                        deriv = ((entry - order0) / t).limit_at_zero()
                        assert order0 == beta.constants[i][j][k]
                        assert deriv == delta.constants[i][j][k]


class TestOrbits:
    def test_orbit_dimensions(self):
        for label, want in ORBIT_TABLE.items():
            assert orbit_dim(canonical_algebra(label)) == want

    def test_stabilizer(self):
        assert stabilizer_dim(canonical_algebra(ClassLabel.B1)) == 0
        assert stabilizer_dim(canonical_algebra(ClassLabel.ABELIAN)) == 4

    def test_tangent_matrix_shape(self):
        alg = canonical_algebra(ClassLabel.B3)
        rows = _tangent_rows(alg)
        assert len(rows) == 4 and len(rows[0]) == 8
        assert orbit_dim(alg) == 3

    def test_rank_invariant_under_basis_change(self):
        rng = random.Random(24)
        for _ in range(15):
            label, alg = random_associative2(rng)
            assert orbit_dim(alg) == ORBIT_TABLE[label]

    def test_requires_associative(self):
        bad = Algebra.from_products(2, {(1, 1): (0, 1), (1, 2): (1, 0)})
        with pytest.raises(NotAssociative):
            orbit_dim(bad)


class TestCircleProduct:
    def test_symmetric(self):
        rng = random.Random(25)
        for _ in range(20):
            b1, b2 = random_law2(rng), random_law2(rng)
            assert circle_product(b1, b2) == circle_product(b2, b1)

    def test_vanishes_iff_associative(self):
        rng = random.Random(26)
        for _ in range(40):
            law = random_law2(rng)
            assert circle_product(law, law).is_zero() == law.is_associative()

    def test_beta2_self(self):
        b2 = canonical_algebra(ClassLabel.B2)
        assert circle_product(b2, b2).is_zero()

    def test_double_associator_value(self):
        law = Algebra.from_products(2, {(1, 1): (0, 1), (1, 2): (1, 0)})
        got = circle_product(law, law)
        assert got.tensor[0][0][0] == (Fraction(-2), Fraction(0))


class TestCocycles:
    def test_annihilates_coboundaries(self):
        rng = random.Random(27)
        for label in ASSOCIATIVE_LABELS:
            beta = canonical_algebra(label)
            for _ in range(10):
                f = LinearMap([[rand_fraction(rng) for _ in range(2)]
                               for _ in range(2)])
                assert cocycle_operator(beta, coboundary(beta, f)).is_zero()

    def test_zero_direction(self):
        beta = canonical_algebra(ClassLabel.B2)
        assert cocycle_operator(beta, Algebra.zero(2)).is_zero()

    def test_abelian_base_kills_everything(self):
        rng = random.Random(28)
        abelian = Algebra.zero(2)
        for _ in range(10):
            phi = random_law2(rng)
            assert cocycle_operator(abelian, phi).is_zero()
        assert cohomology2(abelian) == (8, 0, 8)


class TestCohomology:
    def test_regression_table(self):
        for label, want in COHOMOLOGY_TABLE.items():
            assert cohomology2(canonical_algebra(label)) == want

    def test_matches_independent_oracle(self):
        for label in ASSOCIATIVE_LABELS:
            alg = canonical_algebra(label)
            assert cohomology2(alg) == oracle_cohomology(alg.constants, 2)

    def test_h2_nonnegative_on_transports(self):
        rng = random.Random(29)
        for _ in range(10):
            label, alg = random_associative2(rng)
            z2, b2, h2 = cohomology2(alg)
            assert (z2, b2, h2) == COHOMOLOGY_TABLE[label]


class TestPerturbation:
    def test_goze_monomials(self):
        base = canonical_algebra(ClassLabel.B5)
        d1 = Algebra.from_products(2, {(1, 2): (1, 0)})
        d2 = Algebra.from_products(2, {(2, 1): (1, 0)})
        pert = Perturbation(base, [d1, d2])
        xi = pert.infinitesimal_part()
        assert xi.constants[0][1][0] == EpsPolynomial(2, {(1, 0): 1})
        assert xi.constants[1][0][0] == EpsPolynomial(2, {(1, 1): 1})

    def test_dependent_directions_rejected(self):
        base = canonical_algebra(ClassLabel.B5)
        d = Algebra.from_products(2, {(1, 2): (1, 0)})
        d_scaled = Algebra.from_products(2, {(1, 2): (2, 0)})
        with pytest.raises(ValueError):
            Perturbation(base, [d, d_scaled])

    def test_flat_family_residual_zero(self):
        base = canonical_algebra(ClassLabel.B3)
        direction = Algebra.from_products(2, {(2, 2): (1, 0)})
        assert perturbation_residual(Perturbation(base, [direction])).is_zero()

    def test_zero_direction_residual(self):
        base = canonical_algebra(ClassLabel.B4)
        assert perturbation_residual(Perturbation(base, [])).is_zero()

    def test_obstructed_direction(self):
        base = canonical_algebra(ClassLabel.B5)
        direction = Algebra.from_products(2, {(1, 2): (1, 0)})
        residual = perturbation_residual(Perturbation(base, [direction]))
        entries = dict(residual.nonzero_entries())
        value = entries[(1, 1, 1, 1)]
        assert value.coefficient((1,)) != 0

    def test_square_law_e2e2_to_e1_obstructed(self):
        # e1e1 = e2, e2e2 = eps e1: (e1 e1) e2 = eps e1 but e1 (e1 e2) = 0
        base = canonical_algebra(ClassLabel.B5)
        direction = Algebra.from_products(2, {(2, 2): (1, 0)})
        residual = perturbation_residual(Perturbation(base, [direction]))
        eps = EpsPolynomial(1, {(1,): 1})
        assert residual.nonzero_entries() == [
            ((1, 1, 2, 1), 2 * eps),
            ((1, 2, 2, 2), -2 * eps),
            ((2, 1, 1, 1), -2 * eps),
            ((2, 2, 1, 2), 2 * eps),
        ]
        assert not cocycle_operator(base, direction).is_zero()
        law = Algebra.from_matrix2(
            [[0, 1], [0, 0], [0, 0], [Fraction(1, 100), 0]])
        with pytest.raises(NotAssociative):
            classify(law)

    def test_first_order_term_is_twice_cocycle(self):
        rng = random.Random(30)
        for _ in range(15):
            label, base = random_associative2(rng)
            direction = random_law2(rng)
            if all(not x for row in direction.constants
                   for vec in row for x in vec):
                continue
            pert = Perturbation(base, [direction])
            residual = perturbation_residual(pert)
            cc = cocycle_operator(base, direction)
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        for l in range(2):
                            coeff = residual.tensor[i][j][k][l].coefficient((1,))
                            assert coeff == 2 * cc.tensor[i][j][k][l]

    def test_residual_zero_iff_associative_for_all_eps(self):
        rng = random.Random(31)
        for _ in range(200):
            label, base = random_associative2(rng)
            direction = random_law2(rng, -2, 2, 1)
            if all(not x for row in direction.constants
                   for vec in row for x in vec):
                continue
            pert = Perturbation(base, [direction])
            residual_zero = perturbation_residual(pert).is_zero()
            law = pert.law()
            law_assoc = all(r.is_zero()
                            for r in law.associativity_residuals())
            assert residual_zero == law_assoc
