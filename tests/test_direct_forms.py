"""The identities and deformation matrices read straight off the structure
tensor agree with their definitions, on generated laws of dimensions 2 and
3, associative or not. Each reference below multiplies basis elements with
``Algebra.multiply`` or sums the constants directly; only the perturbation
residual is also checked against ``circle_product``, itself checked here."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from assoc2 import (
    ASSOCIATIVE_LABELS,
    Algebra,
    Element,
    EpsPolynomial,
    LinearMap,
    NotAssociative,
    Perturbation,
    Polynomial,
    QuadExt,
    RationalFunction,
    canonical_algebra,
    circle_product,
    coboundary,
    cohomology2,
    linalg,
    perturbation_residual,
)
from assoc2.algebra import mixed_associator
from assoc2.deformation import _cocycle_rows, _tangent_rows
from util import (
    direct_sum,
    eps_substitute,
    infinitesimal_part,
    perturbation_law,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def free_laws(dim, entries=rationals):
    return st.lists(entries, min_size=dim**3, max_size=dim**3).map(
        lambda xs: Algebra(dim, [[xs[dim * (dim * i + j):dim * (dim * i + j) + dim]
                                  for j in range(dim)] for i in range(dim)]))


def invertible(dim):
    return st.lists(st.integers(-3, 3), min_size=dim * dim,
                    max_size=dim * dim).map(
        lambda xs: LinearMap([xs[dim * r:dim * r + dim] for r in range(dim)])
    ).filter(lambda g: g.is_invertible)


ONE = Algebra.from_products(1, {(1, 1): (1,)})
ZERO1 = Algebra.zero(1)

associative_laws = st.one_of(
    st.builds(lambda label, g: canonical_algebra(label).change_basis(g),
              st.sampled_from(ASSOCIATIVE_LABELS), invertible(2)),
    st.builds(lambda label, extra, g:
              direct_sum(canonical_algebra(label), extra).change_basis(g),
              st.sampled_from(ASSOCIATIVE_LABELS), st.sampled_from([ONE, ZERO1]),
              invertible(3)),
)

any_laws = st.one_of(free_laws(2), free_laws(3), associative_laws)

# so(3), sl(2) and the Heisenberg algebra: Jacobi holds on every triple
LIE3 = [
    Algebra.from_products(3, {(1, 2): (0, 0, 1), (2, 1): (0, 0, -1),
                              (2, 3): (1, 0, 0), (3, 2): (-1, 0, 0),
                              (3, 1): (0, 1, 0), (1, 3): (0, -1, 0)}),
    Algebra.from_products(3, {(1, 2): (0, 0, 1), (2, 1): (0, 0, -1),
                              (3, 1): (2, 0, 0), (1, 3): (-2, 0, 0),
                              (3, 2): (0, -2, 0), (2, 3): (0, 2, 0)}),
    Algebra.from_products(3, {(1, 2): (0, 0, 1), (2, 1): (0, 0, -1)}),
]
lie_laws = st.builds(lambda mu, g: mu.change_basis(g),
                     st.sampled_from(LIE3), invertible(3))


def basis(alg):
    return [alg.basis_element(i + 1) for i in range(alg.dim)]


def flat(alg):
    return [x for row in alg.constants for vec in row for x in vec]


def elementary_map(n, r, s):
    return LinearMap([[1 if (i, j) == (r, s) else 0 for j in range(n)]
                      for i in range(n)])


def elementary_law(n, a, b, c):
    return Algebra(n, [[[1 if (i, j, k) == (a, b, c) else 0 for k in range(n)]
                        for j in range(n)] for i in range(n)])


def circle_reference(b1, b2):
    """b1(b2(x,y),z) - b1(x,b2(y,z)) + b2(b1(x,y),z) - b2(x,b1(y,z))."""
    out = []
    for x in basis(b1):
        for y in basis(b1):
            for z in basis(b1):
                value = (b1.multiply(b2.multiply(x, y), z)
                         - b1.multiply(x, b2.multiply(y, z))
                         + b2.multiply(b1.multiply(x, y), z)
                         - b2.multiply(x, b1.multiply(y, z)))
                out.extend(value)
    return out


def apply(f, x):
    return Element([sum((w * c for w, c in zip(row, x)), Fraction(0))
                    for row in f.matrix])


def coboundary_reference(beta, f):
    """beta(fx, y) + beta(x, fy) - f(beta(x, y)) on basis elements."""
    out = []
    for x in basis(beta):
        for y in basis(beta):
            out.extend(beta.multiply(apply(f, x), y)
                       + beta.multiply(x, apply(f, y))
                       - apply(f, beta.multiply(x, y)))
    return out


def flat4(tri):
    return [x for plane in tri.tensor for row in plane for vec in row
            for x in vec]


small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
# entries over Q(t), Q(sqrt 2) and eps-polynomials in two parameters
OTHER_SCALARS = {
    "Q(t)": st.builds(
        lambda num, den: RationalFunction(Polynomial(num), Polynomial(den)),
        st.lists(small, max_size=2),
        st.lists(small, min_size=1, max_size=2).filter(any)),
    "QuadExt": st.builds(lambda a, b: QuadExt(a, b, 2), small, small),
    "EpsPolynomial": st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), small,
        max_size=3).map(lambda terms: EpsPolynomial(2, terms)),
}


def associator_reference(b1, b2):
    """sum_m c2[i][j][m] c1[m][k][l] - sum_m c2[j][k][m] c1[i][m][l], each
    sum taken in full from the zero of b1's scalars."""
    n = b1.dim
    c1, c2 = b1.constants, b2.constants
    zero = b1.scalar_zero
    return [sum((c2[i][j][m] * c1[m][k][l] for m in range(n)), zero)
            - sum((c2[j][k][m] * c1[i][m][l] for m in range(n)), zero)
            for i, j, k, l in product(range(n), repeat=4)]


class TestIdentities:
    @settings(max_examples=60, deadline=None)
    @given(alg=any_laws)
    def test_residuals_are_associators_of_basis_elements(self, alg):
        expected = []
        for x in basis(alg):
            for y in basis(alg):
                for z in basis(alg):
                    expected.extend(alg.multiply(alg.multiply(x, y), z)
                                    - alg.multiply(x, alg.multiply(y, z)))
        assert alg.associativity_residuals() == expected

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(OTHER_SCALARS)),
           dim=st.integers(2, 3), data=st.data())
    def test_kernel_matches_direct_sums_over_other_scalars(self, kind, dim,
                                                           data):
        b1, b2 = (data.draw(free_laws(dim, OTHER_SCALARS[kind]))
                  for _ in range(2))
        residuals = b1.associativity_residuals()
        assert residuals == associator_reference(b1, b1)
        assert {type(x) for x in residuals} == {type(b1.scalar_zero)}
        assert mixed_associator(b1, b2) == associator_reference(b1, b2)

    @settings(max_examples=50, deadline=None)
    @given(alg=any_laws)
    def test_is_jordan_matches_polarization_via_multiply(self, alg):
        phi = alg.jordan_part()
        e = basis(phi)

        def G(a, b, w, y):
            p = phi.multiply(e[a], e[b])
            return (phi.multiply(p, phi.multiply(e[w], e[y]))
                    - phi.multiply(e[w], phi.multiply(p, e[y])))

        expected = all(
            (G(u, v, w, y) + G(u, w, v, y) + G(v, w, u, y)).is_zero()
            for u, v, w in combinations_with_replacement(range(phi.dim), 3)
            for y in range(phi.dim))
        assert phi.is_jordan() == expected

    @settings(max_examples=50, deadline=None)
    @given(alg=st.one_of(any_laws, lie_laws))
    def test_is_lie_matches_jacobi_via_multiply(self, alg):
        mu = alg.lie_part()
        e = basis(mu)
        expected = all(
            (mu.multiply(mu.multiply(e[i], e[j]), e[k])
             + mu.multiply(mu.multiply(e[j], e[k]), e[i])
             + mu.multiply(mu.multiply(e[k], e[i]), e[j])).is_zero()
            for i in range(mu.dim) for j in range(mu.dim) for k in range(mu.dim))
        assert mu.is_lie() == expected


class TestDeformationMatrices:
    @settings(max_examples=40, deadline=None)
    @given(b1=any_laws, data=st.data())
    def test_circle_product_matches_definition(self, b1, data):
        b2 = data.draw(free_laws(b1.dim))
        assert flat4(circle_product(b1, b2)) == circle_reference(b1, b2)

    @settings(max_examples=50, deadline=None)
    @given(alg=any_laws, data=st.data())
    def test_tangent_rows_are_flattened_coboundaries(self, alg, data):
        n = alg.dim
        expected = [coboundary_reference(alg, elementary_map(n, r, s))
                    for r in range(n) for s in range(n)]
        assert _tangent_rows(alg) == expected
        f = data.draw(st.lists(rationals, min_size=n * n, max_size=n * n).map(
            lambda xs: LinearMap([xs[n * r:n * r + n] for r in range(n)])))
        assert flat(coboundary(alg, f)) == coboundary_reference(alg, f)

    @settings(max_examples=20, deadline=None)
    @given(alg=associative_laws)
    def test_cohomology2_matches_circle_product_reference(self, alg):
        n = alg.dim
        rows = [circle_reference(alg, elementary_law(n, a, b, c))
                for a in range(n) for b in range(n) for c in range(n)]
        assert _cocycle_rows(alg) == rows
        z2 = n**3 - linalg.rank(rows)
        b2 = linalg.rank([coboundary_reference(alg, elementary_map(n, r, s))
                          for r in range(n) for s in range(n)])
        assert cohomology2(alg) == (z2, b2, z2 - b2)


class TestPerturbationResidual:
    @settings(max_examples=20, deadline=None)
    @given(base=associative_laws, data=st.data())
    def test_residual_is_circle_square_at_sampled_eps(self, base, data):
        n = base.dim
        count = data.draw(st.integers(1, 2))
        directions = data.draw(st.lists(free_laws(n), min_size=count,
                                        max_size=count))
        assume(linalg.rank([flat(d) for d in directions]) == count)
        pert = Perturbation(base, directions)
        residual = perturbation_residual(pert)
        for _ in range(2):
            eps = data.draw(st.lists(rationals, min_size=count,
                                     max_size=count))
            law = base
            scale = Fraction(1)
            for e, phi in zip(eps, directions):
                scale *= e
                law = Algebra(n, [[[x + scale * y for x, y in zip(u, v)]
                                   for u, v in zip(r1, r2)]
                                  for r1, r2 in zip(law.constants,
                                                    phi.constants)])
            expected = circle_reference(law, law)
            assert [eps_substitute(x, eps) for x in flat4(residual)] == \
                expected

    @settings(max_examples=25, deadline=None)
    @given(base=associative_laws, data=st.data())
    def test_residual_equals_circle_product_formula(self, base, data):
        # reference: 2 base o xi + xi o xi, the base lifted to eps-polynomials
        n = base.dim
        count = data.draw(st.integers(1, 3))
        directions = data.draw(st.lists(free_laws(n), min_size=count,
                                        max_size=count))
        assume(linalg.rank([flat(d) for d in directions]) == count)
        pert = Perturbation(base, directions)
        xi = infinitesimal_part(pert)
        lifted = base.map_scalars(lambda c: EpsPolynomial.const(c, count))
        expected = [2 * a + b for a, b in zip(flat4(circle_product(lifted, xi)),
                                              flat4(circle_product(xi, xi)))]
        assert flat4(perturbation_residual(pert)) == expected

    @settings(max_examples=25, deadline=None)
    @given(base=associative_laws, data=st.data())
    def test_graded_residual_is_twice_oracle_associator(self, base, data):
        # reference: 2 ((x y) z - x (y z)) on basis elements of base + xi,
        # multiplied out in eps-polynomial arithmetic
        n = base.dim
        count = data.draw(st.integers(1, 3))
        directions = data.draw(st.lists(free_laws(n), min_size=count,
                                        max_size=count))
        assume(linalg.rank([flat(d) for d in directions]) == count)
        pert = Perturbation(base, directions)
        law = perturbation_law(pert)
        expected = []
        for x in basis(law):
            for y in basis(law):
                for z in basis(law):
                    expected.extend(
                        2 * v for v in law.multiply(law.multiply(x, y), z)
                        - law.multiply(x, law.multiply(y, z)))
        assert flat4(perturbation_residual(pert)) == expected

    @settings(max_examples=25, deadline=None)
    @given(base=st.one_of(free_laws(2), free_laws(3)), data=st.data())
    def test_non_associative_base_reports_its_own_residual(self, base, data):
        assume(not base.is_associative())
        n = base.dim
        count = data.draw(st.integers(1, 2))
        directions = data.draw(st.lists(free_laws(n), min_size=count,
                                        max_size=count))
        assume(linalg.rank([flat(d) for d in directions]) == count)
        with pytest.raises(NotAssociative) as info:
            perturbation_residual(Perturbation(base, directions))
        residuals = base.associativity_residuals()
        pos = next(m for m, r in enumerate(residuals) if r)
        index = list(product(range(1, n + 1), repeat=4))[pos]
        assert info.value.residual == (index, residuals[pos])
        assert type(info.value.residual[1]) is Fraction
