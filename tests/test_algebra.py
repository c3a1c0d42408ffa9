import random
from fractions import Fraction

import pytest

from assoc2 import (
    ASSOCIATIVE_LABELS,
    Algebra,
    ClassLabel,
    Element,
    ExistsIrrational,
    LinearMap,
    NotAlternating,
    NotSymmetric,
    QuadExt,
    SingularMap,
    canonical_algebra,
    nontrivial_idempotent2,
    square_zero2,
)
from oracles import ten_equation_residuals
from util import direct_sum, rand_invertible, random_associative2, random_law2

B = {label.value: canonical_algebra(label) for label in ASSOCIATIVE_LABELS}
E1, E2 = Element((1, 0)), Element((0, 1))

# the non-associative fixture e1e1 = e2, e1e2 = e1
NONASSOC = Algebra.from_products(2, {(1, 1): (0, 1), (1, 2): (1, 0)})


class TestMultiply:
    def test_beta1_square(self):
        assert B["beta1"].multiply(E2, E2) == Element((-1, 0))

    def test_abelian(self):
        rng = random.Random(0)
        for _ in range(10):
            x = Element((rng.randint(-5, 5), rng.randint(-5, 5)))
            y = Element((rng.randint(-5, 5), rng.randint(-5, 5)))
            assert B["abelian"].multiply(x, y).is_zero()

    def test_beta6_left_kill(self):
        assert B["beta6"].multiply(E2, E1).is_zero()

    def test_bilinear(self):
        rng = random.Random(1)
        alg = B["beta2"]
        for _ in range(20):
            x = Element((rng.randint(-4, 4), rng.randint(-4, 4)))
            y = Element((rng.randint(-4, 4), rng.randint(-4, 4)))
            z = Element((rng.randint(-4, 4), rng.randint(-4, 4)))
            c = Fraction(rng.randint(-3, 3))
            assert alg.multiply(x + y * c, z) == \
                alg.multiply(x, z) + alg.multiply(y, z) * c


class TestAssociativity:
    def test_canonicals_associative(self):
        for label in ASSOCIATIVE_LABELS:
            alg = canonical_algebra(label)
            assert alg.is_associative()
            assert all(r == 0 for r in alg.associativity_residuals())

    def test_nonassociative_fixture(self):
        res = NONASSOC.associativity_residuals()
        # residual at (i,j,k) = (1,1,1): (e1 e1) e1 - e1 (e1 e1) = -e1
        assert res[0] == Fraction(-1) and res[1] == 0
        assert not NONASSOC.is_associative()

    def test_zero_law(self):
        assert Algebra.zero(2).is_associative()

    def test_matches_ten_equations(self):
        rng = random.Random(2)
        for _ in range(200):
            alg = random_law2(rng)
            ours = all(r == 0 for r in alg.associativity_residuals())
            theirs = all(v == 0
                         for v in ten_equation_residuals(alg.to_matrix2()))
            assert ours == theirs


class TestDecomposition:
    def test_beta6_parts(self):
        phi = B["beta6"].jordan_part()
        assert phi == canonical_algebra(ClassLabel.PHI6)
        mu = B["beta6"].lie_part()
        assert mu.constants[0][1] == (Fraction(0), Fraction(1, 2))

    def test_beta7_part(self):
        mu = B["beta7"].lie_part()
        assert mu.constants[0][1] == (Fraction(0), Fraction(-1, 2))

    def test_commutative_lie_zero(self):
        assert B["beta2"].lie_part() == Algebra.zero(2)

    def test_reconstruction(self):
        rng = random.Random(3)
        algs = [canonical_algebra(l) for l in ASSOCIATIVE_LABELS]
        algs += [random_law2(rng) for _ in range(20)]
        for alg in algs:
            phi, mu = alg.jordan_part(), alg.lie_part()
            rebuilt = Algebra(2, [
                [[phi.constants[i][j][k] + mu.constants[i][j][k]
                  for k in range(2)] for j in range(2)] for i in range(2)
            ])
            assert rebuilt == alg

    def test_parts_satisfy_identities(self):
        rng = random.Random(4)
        samples = []
        for _ in range(20):
            samples.append(random_associative2(rng)[1])
        one_dim = Algebra.from_products(1, {(1, 1): (1,)})
        samples.append(direct_sum(B["beta3"], one_dim))
        samples.append(direct_sum(B["beta6"], B["beta4"]))
        for alg in samples:
            assert alg.is_associative()
            assert alg.jordan_part().is_jordan()
            assert alg.lie_part().is_lie()


class TestJordanLieChecks:
    def test_canonical_jordan(self):
        for name in ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6"):
            from assoc2 import label_from_string
            assert canonical_algebra(label_from_string(name)).is_jordan()

    def test_non_jordan_symmetric_law(self):
        law = Algebra.from_products(2, {(1, 1): (0, 1), (2, 2): (1, 0)})
        assert not law.is_jordan()

    def test_zero_law_jordan_and_lie(self):
        assert Algebra.zero(2).is_jordan()
        assert Algebra.zero(2).is_lie()

    def test_type_guards(self):
        with pytest.raises(NotSymmetric):
            B["beta6"].is_jordan()
        with pytest.raises(NotAlternating):
            B["beta2"].is_lie()

    def test_jordan_decision_matches_direct_sampling(self):
        # cross-check the polarized decision against literal evaluations of
        # p(p(x,x), p(x,y)) - p(x, p(p(x,x), y)) at random points
        rng = random.Random(8)
        for dim in (2, 3):
            for _ in range(6):
                if dim == 2:
                    phi = random_associative2(rng)[1].jordan_part()
                else:
                    one_dim = Algebra.from_products(1, {(1, 1): (1,)})
                    base = direct_sum(canonical_algebra(
                        rng.choice(ASSOCIATIVE_LABELS)), one_dim)
                    phi = base.change_basis(
                        rand_invertible(rng, 3, -2, 2)).jordan_part()
                assert phi.is_jordan()
                for _ in range(20):
                    x = Element([Fraction(rng.randint(-4, 4))
                                 for _ in range(dim)])
                    y = Element([Fraction(rng.randint(-4, 4))
                                 for _ in range(dim)])
                    xx = phi.multiply(x, x)
                    lhs = phi.multiply(xx, phi.multiply(x, y))
                    rhs = phi.multiply(x, phi.multiply(xx, y))
                    assert lhs == rhs
        # and a law the decision rejects really does violate the identity
        bad = Algebra.from_products(2, {(1, 1): (0, 1), (2, 2): (1, 0)})
        assert not bad.is_jordan()
        x, y = Element((1, 0)), Element((1, 0))
        xx = bad.multiply(x, x)
        assert bad.multiply(xx, bad.multiply(x, y)) != \
            bad.multiply(x, bad.multiply(xx, y))

    def test_jacobi_at_dim3(self):
        # cross-product-like bracket: mu(e1,e2)=e3, mu(e2,e3)=e1, mu(e3,e1)=e2
        mu = Algebra.from_products(3, {
            (1, 2): (0, 0, 1), (2, 1): (0, 0, -1),
            (2, 3): (1, 0, 0), (3, 2): (-1, 0, 0),
            (3, 1): (0, 1, 0), (1, 3): (0, -1, 0),
        })
        assert mu.is_lie()
        bad = Algebra.from_products(3, {
            (1, 2): (1, 0, 1), (2, 1): (-1, 0, -1),
            (2, 3): (1, 0, 0), (3, 2): (-1, 0, 0),
            (3, 1): (0, 1, 0), (1, 3): (0, -1, 0),
        })
        assert not bad.is_lie()


class TestChangeBasis:
    def test_beta1_diag(self):
        g = LinearMap([[1, 0], [0, 2]])
        assert B["beta1"].change_basis(g).to_matrix2() == \
            [[1, 0], [0, 1], [0, 1], [-4, 0]]

    def test_identity_neutral(self):
        for label in ASSOCIATIVE_LABELS:
            alg = canonical_algebra(label)
            assert alg.change_basis(LinearMap.identity(2)) == alg

    def test_functorial(self):
        rng = random.Random(5)
        for _ in range(25):
            alg = random_law2(rng)
            g, h = rand_invertible(rng), rand_invertible(rng)
            assert alg.change_basis(g).change_basis(h) == \
                alg.change_basis(g.compose(h))

    def test_singular_rejected(self):
        with pytest.raises(SingularMap):
            B["beta1"].change_basis(LinearMap([[1, 1], [1, 1]]))

    def test_complexification(self):
        i = QuadExt(0, 1)
        one = QuadExt(1, 0)
        zero = QuadExt(0, 0)
        lifted = B["beta1"].map_scalars(lambda c: QuadExt(c, 0))
        moved = lifted.change_basis(LinearMap([[one, zero], [zero, i]]))
        target = B["beta2"].map_scalars(lambda c: QuadExt(c, 0))
        assert moved == target


class TestLinearInvariants:
    def test_annihilators(self):
        assert len(B["beta6"].left_annihilator()) == 1
        assert B["beta6"].left_annihilator()[0] == E2
        assert len(B["beta6"].right_annihilator()) == 0
        assert len(B["abelian"].left_annihilator()) == 2
        assert len(B["beta3"].left_annihilator()) == 0
        assert len(B["beta3"].right_annihilator()) == 0

    def test_identity_element(self):
        assert B["beta2"].identity_element() == E1
        assert B["beta4"].identity_element() is None
        assert Algebra.zero(2).identity_element() is None

    def test_derived_and_nilpotent(self):
        assert B["beta5"].derived_dim() == 1 and B["beta5"].is_nilpotent()
        assert B["beta4"].derived_dim() == 1 and not B["beta4"].is_nilpotent()
        assert Algebra.zero(2).derived_dim() == 0
        assert Algebra.zero(2).is_nilpotent()

    def test_invariance_under_basis_change(self):
        rng = random.Random(6)
        for label in ASSOCIATIVE_LABELS:
            alg = canonical_algebra(label)
            base = (
                alg.is_associative(),
                len(alg.left_annihilator()), len(alg.right_annihilator()),
                alg.derived_dim(), alg.is_nilpotent(),
                alg.identity_element() is not None,
                nontrivial_idempotent2(alg) is not None,
                square_zero2(alg) is not None,
            )
            for _ in range(10):
                moved = alg.change_basis(rand_invertible(rng))
                got = (
                    moved.is_associative(),
                    len(moved.left_annihilator()),
                    len(moved.right_annihilator()),
                    moved.derived_dim(), moved.is_nilpotent(),
                    moved.identity_element() is not None,
                    nontrivial_idempotent2(moved) is not None,
                    square_zero2(moved) is not None,
                )
                assert got == base, label


class TestQuadraticWitnesses:
    def test_idempotent_examples(self):
        assert nontrivial_idempotent2(B["beta2"]) == \
            Element((Fraction(1, 2), Fraction(1, 2)))
        assert nontrivial_idempotent2(B["beta4"]) == E2
        assert nontrivial_idempotent2(B["beta1"]) is None

    def test_square_zero_examples(self):
        assert square_zero2(B["beta1"]) is None
        assert square_zero2(B["beta3"]) == E2
        v = square_zero2(B["beta4"])
        assert B["beta4"].multiply(v, v).is_zero() and not v.is_zero()

    def test_irrational_marker(self):
        alg = Algebra.from_matrix2([[1, 0], [0, 1], [0, 1], [2, 0]])
        got = nontrivial_idempotent2(alg)
        assert isinstance(got, ExistsIrrational)
        assert got.discriminant == 8

    def test_witnesses_verify(self):
        rng = random.Random(7)
        for _ in range(60):
            label, alg = random_associative2(rng)
            w = nontrivial_idempotent2(alg)
            if isinstance(w, Element):
                assert alg.multiply(w, w) == w
                assert not w.is_zero()
                assert w != alg.identity_element()
            v = square_zero2(alg)
            if isinstance(v, Element):
                assert alg.multiply(v, v).is_zero() and not v.is_zero()

    def test_square_zero_existence_matches_brute_oracle(self):
        import sympy
        from oracles import brute_square_zero_count
        rng = random.Random(19)
        for _ in range(25):
            alg = random_law2(rng)  # any law, not necessarily associative
            count = brute_square_zero_count(alg.to_matrix2())
            exists = count is sympy.oo or count > 0
            assert (square_zero2(alg) is not None) == exists

    def test_idempotent_existence_matches_brute_oracle(self):
        import sympy
        from oracles import brute_idempotent_count
        rng = random.Random(20)
        for _ in range(25):
            label, alg = random_associative2(rng)
            count = brute_idempotent_count(alg.to_matrix2())
            threshold = 2 if alg.identity_element() is not None else 1
            exists = count is sympy.oo or count >= threshold
            assert (nontrivial_idempotent2(alg) is not None) == exists, label


class TestSmallDimensions:
    def test_dim1(self):
        idem_line = Algebra.from_products(1, {(1, 1): (1,)})
        assert idem_line.is_associative()
        assert idem_line.identity_element() == Element((1,))
        zero1 = Algebra.zero(1)
        assert zero1.is_nilpotent() and zero1.derived_dim() == 0

    def test_direct_sum_associative(self):
        s = direct_sum(B["beta2"], B["beta5"])
        assert s.dim == 4
        assert s.is_associative()
