import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from assoc2 import (
    ASSOCIATIVE_LABELS,
    JORDAN_LABELS,
    Algebra,
    ClassLabel,
    LiePartCoefficients,
    LinearMap,
    NotAssociative,
    NotJordan,
    QuadExt,
    RationalFunction,
    admissible_lie_parts,
    associated_jordan_label,
    canonical_algebra,
    classify,
    cohomology2,
    fingerprint,
    isomorphism_witness,
    jordan_classify2,
    label_from_string,
    lie_part_coefficients,
    orbit_dim,
)
from assoc2.classify import classify_fingerprint
from assoc2.contraction import _diagonal_limit, _template_transforms
from util import fuzz_laws2, laws_in_class, rand_invertible, \
    random_associative2

NONASSOC = Algebra.from_products(2, {(1, 1): (0, 1), (1, 2): (1, 0)})


class TestCanonicalTables:
    def test_beta1_rows(self):
        assert canonical_algebra(ClassLabel.B1).to_matrix2() == \
            [[1, 0], [0, 1], [0, 1], [-1, 0]]

    def test_phi6_half(self):
        phi6 = canonical_algebra(ClassLabel.PHI6)
        assert phi6.constants[0][1] == (Fraction(0), Fraction(1, 2))
        assert phi6.constants[1][0] == (Fraction(0), Fraction(1, 2))

    @pytest.mark.parametrize("label,rows", [
        (ClassLabel.JABELIAN, [[0, 0], [0, 0], [0, 0], [0, 0]]),
        (ClassLabel.PHI1, [[1, 0], [0, 1], [0, 1], [-1, 0]]),
        (ClassLabel.PHI2, [[1, 0], [0, 1], [0, 1], [1, 0]]),
        (ClassLabel.PHI3, [[1, 0], [0, 1], [0, 1], [0, 0]]),
        (ClassLabel.PHI4, [[0, 0], [0, 0], [0, 0], [0, 1]]),
        (ClassLabel.PHI5, [[0, 1], [0, 0], [0, 0], [0, 0]]),
        (ClassLabel.PHI6, [[1, 0], [0, Fraction(1, 2)], [0, Fraction(1, 2)],
                           [0, 0]]),
    ], ids=lambda x: x.value if isinstance(x, ClassLabel) else "")
    def test_jordan_tables(self, label, rows):
        # each is the symmetric part of an associative table
        assert canonical_algebra(label) == Algebra.from_matrix2(rows)

    def test_abelian_zero(self):
        assert canonical_algebra(ClassLabel.ABELIAN) == Algebra.zero(2)

    def test_labels_serialize(self):
        assert ClassLabel.B3.value == "beta3"
        assert label_from_string("phi4") is ClassLabel.PHI4
        with pytest.raises(ValueError):
            label_from_string("beta9")


class TestFingerprint:
    def test_requires_associative(self):
        with pytest.raises(NotAssociative):
            fingerprint(NONASSOC)

    def test_beta6(self):
        fp = fingerprint(canonical_algebra(ClassLabel.B6))
        assert not fp.commutative
        assert (fp.left_ann_dim, fp.right_ann_dim) == (1, 0)

    def test_abelian(self):
        fp = fingerprint(canonical_algebra(ClassLabel.ABELIAN))
        assert fp.commutative and fp.derived_dim == 0
        assert (fp.left_ann_dim, fp.right_ann_dim) == (2, 2)

    def test_beta3(self):
        fp = fingerprint(canonical_algebra(ClassLabel.B3))
        assert fp.commutative and fp.unital and fp.derived_dim == 2
        assert (fp.left_ann_dim, fp.right_ann_dim) == (0, 0)
        assert fp.has_square_zero and not fp.has_nontrivial_idempotent

    def test_pairwise_distinct(self):
        prints = [fingerprint(canonical_algebra(l)) for l in ASSOCIATIVE_LABELS]
        assert len(set(prints)) == len(ASSOCIATIVE_LABELS)


class TestClassify:
    def test_fixture_roundtrip(self):
        for label in ASSOCIATIVE_LABELS:
            assert classify(canonical_algebra(label)) == label

    def test_shear_of_beta2(self):
        moved = canonical_algebra(ClassLabel.B2).change_basis(
            LinearMap([[1, 1], [0, 1]]))
        assert classify(moved) == ClassLabel.B2

    def test_epsilon_family(self):
        plus = Algebra.from_matrix2([[1, 0], [0, 1], [0, 1],
                                     [Fraction(1, 100), 0]])
        minus = Algebra.from_matrix2([[1, 0], [0, 1], [0, 1],
                                      [Fraction(-1, 100), 0]])
        assert classify(plus) == ClassLabel.B2
        assert classify(minus) == ClassLabel.B1

    def test_invariance(self):
        rng = random.Random(11)
        for label in ASSOCIATIVE_LABELS:
            alg = canonical_algebra(label)
            for _ in range(40):
                assert classify(alg.change_basis(rand_invertible(rng))) == label

    def test_total_on_fuzz(self):
        rng = random.Random(12)
        for _ in range(150):
            label, alg = random_associative2(rng)
            assert classify(alg) == label  # never UnclassifiableFingerprint

    @pytest.mark.parametrize("lift", [RationalFunction,
                                      lambda c: QuadExt(c, 0, 2)],
                             ids=["Q(t)", "QuadExt"])
    @pytest.mark.parametrize("fn", [classify, fingerprint,
                                    isomorphism_witness, jordan_classify2])
    def test_other_scalars_rejected(self, fn, lift):
        # the decision table is written over Q: every table is refused
        # alike, before any invariant or identity is checked
        for label in ASSOCIATIVE_LABELS + JORDAN_LABELS:
            alg = canonical_algebra(label).map_scalars(lift)
            with pytest.raises(ValueError) as info:
                fn(alg)
            assert str(info.value) == \
                "fingerprints are defined for rational laws"


def _full_table(alg):
    return classify_fingerprint(fingerprint(alg))


def _outcome(fn, alg):
    """fn(alg), or the type, message and residual of the ValueError (such
    as NotAssociative) that it raises."""
    try:
        return fn(alg)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "residual", None)


class TestLazyClassify:
    """classify evaluates the decision table on invariants computed on first
    use; it must answer, and fail, as the table on the full fingerprint."""

    @settings(max_examples=150, deadline=None)
    @given(case=laws_in_class())
    def test_rational_basis_changes(self, case):
        label, alg = case
        assert classify(alg) == _full_table(alg) == label

    def test_every_search_limit(self):
        # every limit the search can meet at bound 4
        seen = set()
        for source in ASSOCIATIVE_LABELS:
            for g in _template_transforms():
                moved = canonical_algebra(source).change_basis(LinearMap(g))
                for a, b in product(range(5), repeat=2):
                    limit = _diagonal_limit(moved, a, b)
                    if limit is not None:
                        seen.add(classify(limit))
                        assert classify(limit) == _full_table(limit)
        assert seen == set(ASSOCIATIVE_LABELS)

    @settings(max_examples=150, deadline=None)
    @given(alg=fuzz_laws2)
    def test_errors_match(self, alg):
        assert _outcome(classify, alg) == _outcome(_full_table, alg)

    def test_dimension_3(self):
        nonassoc3 = Algebra.from_products(3, {(1, 1): (0, 1, 0),
                                              (1, 2): (1, 0, 0)})
        for alg in (Algebra.zero(3), nonassoc3):
            got = _outcome(classify, alg)
            assert got[0] is ValueError
            assert got == _outcome(_full_table, alg)


class TestLibraryFuzz:
    """Generated dimension-2 laws, associative or not, make the library
    entry points raise nothing but NotAssociative or NotJordan."""

    @settings(max_examples=60, deadline=None)
    @given(alg=fuzz_laws2)
    def test_only_documented_errors(self, alg):
        for call in (classify, fingerprint, isomorphism_witness, orbit_dim,
                     cohomology2,
                     lambda law: jordan_classify2(law.jordan_part())):
            try:
                call(alg)
            except (NotAssociative, NotJordan):
                pass


class TestWitness:
    def test_canonical_gives_identity(self):
        label, wit = isomorphism_witness(canonical_algebra(ClassLabel.B4))
        assert label == ClassLabel.B4
        assert wit == LinearMap.identity(2)

    def test_beta3_roundtrip(self):
        moved = canonical_algebra(ClassLabel.B3).change_basis(
            LinearMap([[2, 0], [1, 1]]))
        label, wit = isomorphism_witness(moved)
        assert label == ClassLabel.B3
        assert moved.change_basis(wit) == canonical_algebra(ClassLabel.B3)

    def test_scaled_square_law(self):
        alg = Algebra.from_products(2, {(1, 1): (0, 4)})
        label, wit = isomorphism_witness(alg)
        assert label == ClassLabel.B5
        assert alg.change_basis(wit) == canonical_algebra(ClassLabel.B5)

    def test_rational_witness_soundness(self):
        rng = random.Random(13)
        for _ in range(40):
            label, alg = random_associative2(rng)
            got, wit = isomorphism_witness(alg)
            assert got == label
            entries = [x for row in wit.matrix for x in row]
            if not any(isinstance(x, QuadExt) for x in entries):
                assert alg.change_basis(wit) == canonical_algebra(label)

    def test_quadratic_extension_witness(self):
        # z^2 = 3u: isomorphic to beta2 over R but the basis needs sqrt(3)
        alg = Algebra.from_matrix2([[1, 0], [0, 1], [0, 1], [3, 0]])
        label, wit = isomorphism_witness(alg)
        assert label == ClassLabel.B2
        entries = [x for row in wit.matrix for x in row]
        assert any(isinstance(x, QuadExt) and x.d == 3 for x in entries)

    @settings(max_examples=80, deadline=None)
    @given(case=laws_in_class())
    def test_rational_basis_change_classifies_and_transports(self, case):
        label, alg = case
        assert classify(alg) == label
        got, wit = isomorphism_witness(alg)
        assert got == label
        target = canonical_algebra(label)
        entries = [x for row in wit.matrix for x in row]
        d = next((x.d for x in entries if isinstance(x, QuadExt)), None)
        if d is None:
            assert alg.change_basis(wit) == target
            return

        def lift(x):
            return x if isinstance(x, QuadExt) else QuadExt(x, 0, d)
        moved = alg.map_scalars(lift).change_basis(
            LinearMap([[lift(x) for x in row] for row in wit.matrix]))
        assert moved == target.map_scalars(lift)


class TestJordanClassify:
    def test_canonical(self):
        for label in JORDAN_LABELS:
            assert jordan_classify2(canonical_algebra(label)) == label

    def test_jordan_part_pipeline(self):
        assert jordan_classify2(
            canonical_algebra(ClassLabel.B3).jordan_part()) == ClassLabel.PHI3

    def test_zero_map(self):
        assert jordan_classify2(Algebra.zero(2)) == ClassLabel.JABELIAN

    def test_swap_of_phi5(self):
        swapped = canonical_algebra(ClassLabel.PHI5).change_basis(
            LinearMap([[0, 1], [1, 0]]))
        assert jordan_classify2(swapped) == ClassLabel.PHI5

    def test_invariance(self):
        rng = random.Random(14)
        for label in JORDAN_LABELS:
            phi = canonical_algebra(label)
            for bound in (5, 2**128):
                for _ in range(15):
                    moved = phi.change_basis(
                        rand_invertible(rng, lo=-bound, hi=bound))
                    assert jordan_classify2(moved) == label

    def test_rejects_non_jordan(self):
        with pytest.raises(NotJordan):
            jordan_classify2(canonical_algebra(ClassLabel.B6))
        bad = Algebra.from_products(2, {(1, 1): (0, 1), (2, 2): (1, 0)})
        with pytest.raises(NotJordan):
            jordan_classify2(bad)


class TestAdmissibleLieParts:
    def test_first_five_and_abelian(self):
        zero_pair = frozenset({LiePartCoefficients(Fraction(0), Fraction(0))})
        for label in (ClassLabel.JABELIAN, ClassLabel.PHI1, ClassLabel.PHI2,
                      ClassLabel.PHI3, ClassLabel.PHI4, ClassLabel.PHI5):
            assert admissible_lie_parts(label) == zero_pair

    def test_phi6(self):
        got = admissible_lie_parts(ClassLabel.PHI6)
        assert got == frozenset({
            LiePartCoefficients(Fraction(0), Fraction(1, 2)),
            LiePartCoefficients(Fraction(0), Fraction(-1, 2)),
        })

    def test_rejects_associative_labels(self):
        with pytest.raises(ValueError):
            admissible_lie_parts(ClassLabel.B2)


class TestPipelineConsistency:
    def test_jordan_label_matches(self):
        rng = random.Random(15)
        for bound in (5, 2**128):
            for _ in range(60):
                label = rng.choice(ASSOCIATIVE_LABELS)
                alg = canonical_algebra(label).change_basis(
                    rand_invertible(rng, lo=-bound, hi=bound))
                jl = jordan_classify2(alg.jordan_part())
                assert jl == associated_jordan_label(label)

    def test_coefficients_in_admissible_set(self):
        for label in ASSOCIATIVE_LABELS:
            alg = canonical_algebra(label)
            coeffs = lie_part_coefficients(alg.lie_part())
            jl = associated_jordan_label(label)
            assert coeffs in admissible_lie_parts(jl)

    def test_half_sign_splits_beta6_beta7(self):
        phi6 = canonical_algebra(ClassLabel.PHI6)
        for b, expected in ((Fraction(1, 2), ClassLabel.B6),
                            (Fraction(-1, 2), ClassLabel.B7)):
            tensor = [[list(vec) for vec in row] for row in phi6.constants]
            tensor[0][1][1] = tensor[0][1][1] + b
            tensor[1][0][1] = tensor[1][0][1] - b
            law = Algebra(2, tensor)
            assert law.is_associative()
            assert classify(law) == expected
