"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Everything is exact arithmetic, so every tolerance is equality. Expected
values marked as regression constants were computed with the independent
oracles in oracles.py before the main implementations existed.
"""

import contextlib
import random
from fractions import Fraction

import pytest

from assoc2 import (
    ASSOCIATIVE_LABELS,
    Algebra,
    ClassLabel,
    LiePartCoefficients,
    LinearMap,
    Perturbation,
    QuadExt,
    admissible_lie_parts,
    canonical_algebra,
    classify,
    coboundary,
    cocycle_operator,
    cohomology2,
    contraction_graph,
    orbit_dim,
    proper_edge_families,
    perturbation_residual,
    search_census,
    search_families,
    verify_edge,
)
from oracles import (
    brute_class_b1_b2,
    oracle_cohomology,
    ten_equation_residuals,
)
from util import direct_sum, rand_fraction, rand_invertible, random_law2

RIGID = (ClassLabel.B1, ClassLabel.B2, ClassLabel.B6, ClassLabel.B7)
NON_RIGID = (ClassLabel.B3, ClassLabel.B4, ClassLabel.B5)


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d}: FAIL  {desc}")
        raise
    print(f"acceptance {num:02d}: PASS  {desc}")


def test_criterion_01_classification_table():
    with criterion(1, "classification fixed points + 500 basis changes/class"):
        rng = random.Random(101)
        for label in ASSOCIATIVE_LABELS:
            alg = canonical_algebra(label)
            assert classify(alg) == label
            failures = 0
            for _ in range(500):
                moved = alg.change_basis(rand_invertible(rng, 2, -5, 5))
                if classify(moved) != label:
                    failures += 1
            assert failures == 0, f"{label}: {failures} failures"


def test_criterion_02_orbit_dimensions():
    with criterion(2, "orbit dimensions (4,4,3,3,2,2,2) and abelian 0"):
        want = {
            ClassLabel.B1: 4, ClassLabel.B2: 4, ClassLabel.B3: 3,
            ClassLabel.B4: 3, ClassLabel.B5: 2, ClassLabel.B6: 2,
            ClassLabel.B7: 2, ClassLabel.ABELIAN: 0,
        }
        for label, dim in want.items():
            assert orbit_dim(canonical_algebra(label)) == dim, label


def _tangent_rows(label, a, b, c, d):
    # expanded by hand from the coboundary definition; frozen here
    return {
        ClassLabel.B1: [[a, b], [-b, a], [-b, a], [a - 2 * d, b + 2 * c]],
        ClassLabel.B2: [[a, b], [b, a], [b, a], [2 * d - a, 2 * c - b]],
        ClassLabel.B3: [[a, b], [0, a], [0, a], [0, 2 * c]],
        ClassLabel.B4: [[0, 0], [0, b], [0, b], [-c, d]],
        ClassLabel.B5: [[-c, 2 * a - d], [0, c], [0, c], [0, 0]],
        ClassLabel.B6: [[a, 0], [0, a], [c, 0], [0, c]],
        ClassLabel.B7: [[a, 0], [c, 0], [0, a], [0, c]],
    }[label]


def test_criterion_03_coboundary_tables():
    with criterion(3, "symbolic coboundary tables at 20 random points"):
        rng = random.Random(103)
        for label in ASSOCIATIVE_LABELS[1:]:
            beta = canonical_algebra(label)
            for _ in range(20):
                a, b, c, d = (rand_fraction(rng, -9, 9, 5) for _ in range(4))
                got = coboundary(beta, LinearMap([[a, c], [b, d]]))
                want = [[Fraction(x) for x in row]
                        for row in _tangent_rows(label, a, b, c, d)]
                assert got.to_matrix2() == want, label


def test_criterion_04_admissible_lie_parts():
    with criterion(4, "admissible alternating parts per Jordan class"):
        zero = frozenset({LiePartCoefficients(Fraction(0), Fraction(0))})
        for label in (ClassLabel.PHI1, ClassLabel.PHI2, ClassLabel.PHI3,
                      ClassLabel.PHI4, ClassLabel.PHI5):
            assert admissible_lie_parts(label) == zero, label
        assert admissible_lie_parts(ClassLabel.PHI6) == frozenset({
            LiePartCoefficients(Fraction(0), Fraction(1, 2)),
            LiePartCoefficients(Fraction(0), Fraction(-1, 2)),
        })


def test_criterion_05_contraction_edges():
    with criterion(5, "explicit degeneration families and the diagram"):
        for source, target, fam in proper_edge_families():
            edge = verify_edge(source, target, fam)
            assert edge.verified, (source.value, target.value, edge.reason)
        graph = contraction_graph()
        proper = {
            (ClassLabel.B1, ClassLabel.B3), (ClassLabel.B2, ClassLabel.B3),
            (ClassLabel.B2, ClassLabel.B4), (ClassLabel.B1, ClassLabel.B5),
            (ClassLabel.B2, ClassLabel.B5), (ClassLabel.B3, ClassLabel.B5),
            (ClassLabel.B4, ClassLabel.B5),
        }
        scaling = {(label, ClassLabel.ABELIAN) for label in ASSOCIATIVE_LABELS
                   if label is not ClassLabel.ABELIAN}
        assert graph.edge_set() == proper | scaling
        for label in RIGID:
            assert graph.in_degree(label) == 0, label


def test_criterion_06_equivalence_of_formulations():
    with criterion(6, "residual tensor vanishes iff the ten equations do"):
        rng = random.Random(106)
        disagreements = 0
        samples = [random_law2(rng) for _ in range(900)]
        for _ in range(100):
            base = canonical_algebra(rng.choice(ASSOCIATIVE_LABELS))
            samples.append(base.change_basis(rand_invertible(rng)))
        assert len(samples) == 1000
        for alg in samples:
            ours = all(r == 0 for r in alg.associativity_residuals())
            theirs = all(v == 0
                         for v in ten_equation_residuals(alg.to_matrix2()))
            if ours != theirs:
                disagreements += 1
        assert disagreements == 0


def test_criterion_07_hochschild_complex_property():
    with criterion(7, "cocycle operator annihilates 100 coboundaries/class"):
        rng = random.Random(107)
        for label in ASSOCIATIVE_LABELS:
            beta = canonical_algebra(label)
            for _ in range(100):
                f = LinearMap([[rand_fraction(rng, -5, 5, 3)
                                for _ in range(2)] for _ in range(2)])
                image = cocycle_operator(beta, coboundary(beta, f))
                assert image.is_zero(), label


def _random_bigger_algebra(rng, dim):
    one_dim = (Algebra.zero(1), Algebra.from_products(1, {(1, 1): (1,)}))
    if dim == 3:
        alg = direct_sum(canonical_algebra(rng.choice(ASSOCIATIVE_LABELS)),
                         rng.choice(one_dim))
    else:
        alg = direct_sum(canonical_algebra(rng.choice(ASSOCIATIVE_LABELS)),
                         canonical_algebra(rng.choice(ASSOCIATIVE_LABELS)))
    return alg.change_basis(rand_invertible(rng, dim, -2, 2))


def test_criterion_08_jordan_lie_decomposition():
    with criterion(8, "Jordan/Lie parts of 200 random associative algebras"):
        rng = random.Random(108)
        samples = []
        for _ in range(140):
            base = canonical_algebra(rng.choice(ASSOCIATIVE_LABELS))
            samples.append(base.change_basis(rand_invertible(rng)))
        for _ in range(30):
            samples.append(_random_bigger_algebra(rng, 3))
        for _ in range(30):
            samples.append(_random_bigger_algebra(rng, 4))
        assert len(samples) == 200
        for alg in samples:
            phi, mu = alg.jordan_part(), alg.lie_part()
            assert phi.is_jordan()
            assert mu.is_lie()
            n = alg.dim
            rebuilt = Algebra(n, [
                [[phi.constants[i][j][k] + mu.constants[i][j][k]
                  for k in range(n)] for j in range(n)] for i in range(n)
            ])
            assert rebuilt == alg


def test_criterion_09_complexification():
    with criterion(9, "beta1 equals beta2 over the Gaussian rationals"):
        lift = canonical_algebra(ClassLabel.B1).map_scalars(
            lambda c: QuadExt(c, 0))
        g = LinearMap([[QuadExt(1, 0), QuadExt(0, 0)],
                       [QuadExt(0, 0), QuadExt(0, 1)]])
        moved = lift.change_basis(g)
        target = canonical_algebra(ClassLabel.B2).map_scalars(
            lambda c: QuadExt(c, 0))
        assert moved == target


# regression constants computed with oracles.oracle_cohomology up front
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


def test_criterion_10_rigidity_evidence():
    with criterion(10, "h2 = 0 exactly on the rigid classes"):
        for label in ASSOCIATIVE_LABELS:
            alg = canonical_algebra(label)
            got = cohomology2(alg)
            assert got == COHOMOLOGY_TABLE[label], label
            assert got == oracle_cohomology(alg.constants, 2), label
        for label in RIGID:
            assert COHOMOLOGY_TABLE[label][2] == 0
        for label in NON_RIGID:
            assert COHOMOLOGY_TABLE[label][2] > 0


# the three perturbation families from the classical rigidity argument:
# (base matrix, direction matrix, classifier labels recorded for +/- 1/100)
WITNESS_FAMILIES = {
    "m1": (
        [[1, 0], [0, 1], [0, 1], [0, 0]],          # beta3
        [[0, 0], [0, 0], [0, 0], [1, 0]],          # e2*e2 -> e1
        {1: ClassLabel.B2, -1: ClassLabel.B1},     # stated: + -> B2, - -> B1
    ),
    "m2": (
        [[0, 0], [0, 0], [0, 0], [0, 1]],          # beta4
        [[1, 0], [0, 0], [0, 0], [0, 0]],          # e1*e1 -> e1
        {1: ClassLabel.B2, -1: ClassLabel.B2},     # recorded from classifier
    ),
    "m3": (
        # the ideal x R[x]/(x^3 - eps x) with e1 = x, e2 = x^2; for eps != 0
        # it is R[x]/(x^2 - eps). The often stated e2*e2 -> e1 is replaced:
        # it is not associative for eps != 0 (see test_deformation).
        [[0, 1], [0, 0], [0, 0], [0, 0]],          # beta5
        [[0, 0], [1, 0], [1, 0], [0, 1]],          # e1e2, e2e1 -> e1; e2e2 -> e2
        {1: ClassLabel.B2, -1: ClassLabel.B1},
    ),
}


@pytest.mark.parametrize("name", ["m1", "m2", "m3"])
def test_criterion_11_perturbation_witnesses(name):
    with criterion(11, f"perturbation witness family {name}"):
        base_rows, dir_rows, recorded = WITNESS_FAMILIES[name]
        base = Algebra.from_matrix2(base_rows)
        direction = Algebra.from_matrix2(dir_rows)
        residual = perturbation_residual(Perturbation(base, [direction]))
        assert residual.is_zero(), (
            f"{name} is not identically associative; first obstruction "
            f"{residual.nonzero_entries()[0]}"
        )
        for sign, want in recorded.items():
            eps = Fraction(sign, 100)
            law = Algebra(2, [
                [[base.constants[i][j][k] + eps * direction.constants[i][j][k]
                  for k in range(2)] for j in range(2)] for i in range(2)
            ])
            assert classify(law) == want, (name, eps)
        rng = random.Random(111)
        for _ in range(10):
            eps = Fraction(rng.randint(1, 400), rng.randint(1, 50))
            if rng.random() < 0.5:
                eps = -eps
            law_rows = [
                [base_rows[r][s] + eps * dir_rows[r][s] for s in range(2)]
                for r in range(4)
            ]
            law = Algebra.from_matrix2(law_rows)
            assert classify(law).value == brute_class_b1_b2(law_rows)


def test_criterion_12_bounded_noncontraction_evidence():
    with criterion(12, "bounded template search: B1->B4 empty, B1->B3 found"):
        assert search_census(2) == 900
        assert search_families(ClassLabel.B1, ClassLabel.B4, 2) is None
        found = search_families(ClassLabel.B1, ClassLabel.B3, 2)
        assert found is not None
        assert verify_edge(ClassLabel.B1, ClassLabel.B3, found).verified
