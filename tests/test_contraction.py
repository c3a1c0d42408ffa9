import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from assoc2 import (
    ASSOCIATIVE_LABELS,
    ClassLabel,
    ContractionFamily,
    IdenticallySingular,
    LinearMap,
    PoleAtZero,
    Polynomial,
    RationalFunction,
    abelian_family,
    canonical_algebra,
    classify,
    contract,
    contraction_graph,
    orbit_dim,
    proper_edge_families,
    search_census,
    search_families,
    transport,
    verify_edge,
)
from assoc2.contraction import _diagonal_limit, _template_transforms
from assoc2.serialize import family_to_json

T = RationalFunction.t()
ONE = RationalFunction.const(1)

PROPER_EDGES = {
    (ClassLabel.B1, ClassLabel.B3), (ClassLabel.B2, ClassLabel.B3),
    (ClassLabel.B2, ClassLabel.B4), (ClassLabel.B1, ClassLabel.B5),
    (ClassLabel.B2, ClassLabel.B5), (ClassLabel.B3, ClassLabel.B5),
    (ClassLabel.B4, ClassLabel.B5),
}

B = ClassLabel
DIAGRAM_EDGES = PROPER_EDGES | {
    (label, B.ABELIAN) for label in ASSOCIATIVE_LABELS
    if label is not B.ABELIAN
}
# the four edges into beta5 need t^2 and first appear at bound 2
BOUND1_EDGES = {edge for edge in DIAGRAM_EDGES if edge[1] is not B.B5}


def _t_power_json(k):
    """family_to_json form of the entry t**k, or of 0 for k = None."""
    return {"num": [] if k is None else ["0"] * k + ["1"], "den": ["1"]}


Z, P0, P1, P2 = (_t_power_json(k) for k in (None, 0, 1, 2))

# the families found at bound 2 by the search as it stood before the h loop
# was dropped and limits were read off exponents; bounds 3 and 4 find the
# same families (recorded before classify became lazy), since each first hit
# in (a, b, g) order has a, b <= 2
GOLDEN_BOUND2 = {
    (B.B1, B.ABELIAN): [[P1, Z], [Z, P1]],
    (B.B1, B.B3): [[P0, Z], [Z, P1]],
    (B.B1, B.B5): [[Z, P2], [P1, Z]],
    (B.B2, B.ABELIAN): [[P1, Z], [Z, P1]],
    (B.B2, B.B3): [[P0, Z], [Z, P1]],
    (B.B2, B.B4): [[P0, Z], [P0, P1]],
    (B.B2, B.B5): [[Z, P2], [P1, Z]],
    (B.B3, B.ABELIAN): [[Z, P1], [P0, Z]],
    (B.B3, B.B5): [[P1, Z], [P1, P2]],
    (B.B4, B.ABELIAN): [[P0, Z], [Z, P1]],
    (B.B4, B.B5): [[P1, Z], [P1, P2]],
    (B.B5, B.ABELIAN): [[Z, P1], [P0, Z]],
    (B.B6, B.ABELIAN): [[Z, P1], [P0, Z]],
    (B.B7, B.ABELIAN): [[Z, P1], [P0, Z]],
}


class TestFamilies:
    def test_identically_singular_rejected(self):
        with pytest.raises(IdenticallySingular):
            ContractionFamily([[T, T], [T, T]])

    def test_determinant(self):
        fam = ContractionFamily.diagonal(ONE, T)
        assert fam.det == T

    def test_evaluate(self):
        fam = ContractionFamily.from_columns((T, T), (0, 2 * T * T))
        m = fam.evaluate(Fraction(1, 2))
        assert m.matrix == ((Fraction(1, 2), Fraction(0)),
                            (Fraction(1, 2), Fraction(1, 2)))

    def test_compose(self):
        a = ContractionFamily.diagonal(ONE, T)
        b = ContractionFamily.from_columns((T, T), (0, T * T))
        assert a.compose(b).matrix == ContractionFamily(
            [[T, RationalFunction(Polynomial())], [T * T, T * T * T]]).matrix


class TestTransport:
    def test_beta1_scaling(self):
        moved = transport(canonical_algebra(ClassLabel.B1),
                          ContractionFamily.diagonal(ONE, T))
        rows = moved.to_matrix2()
        assert rows[0] == [ONE, 0] and rows[1] == [0, ONE]
        assert rows[3] == [-(T * T), 0]

    def test_identity_family(self):
        beta = canonical_algebra(ClassLabel.B6)
        moved = transport(beta, ContractionFamily.diagonal(ONE, ONE))
        back = moved.map_scalars(lambda r: r.limit_at_zero())
        assert back == beta

    def test_beta2_split_family(self):
        fam = ContractionFamily.from_columns((T, 0),
                                             (Fraction(1, 2), Fraction(1, 2)))
        moved = transport(canonical_algebra(ClassLabel.B2), fam)
        rows = moved.to_matrix2()
        assert rows[0] == [T, 0]
        assert rows[1] == [0, T]
        assert rows[2] == [0, T]
        assert rows[3] == [0, ONE]

    def test_generic_fiber_isomorphic_to_source(self):
        rng = random.Random(41)
        for source, target, fam in proper_edge_families():
            done = 0
            while done < 5:
                t0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if t0 == 0 or fam.det.evaluate(t0) == 0:
                    continue
                moved = transport(canonical_algebra(source), fam)
                fiber = moved.map_scalars(lambda r: r.evaluate(t0))
                assert classify(fiber) == source
                done += 1


class TestContract:
    def test_example_beta1_to_beta3(self):
        limit = contract(canonical_algebra(ClassLabel.B1),
                         ContractionFamily.diagonal(ONE, T))
        assert limit == canonical_algebra(ClassLabel.B3)

    def test_beta2_to_beta5(self):
        fam = ContractionFamily.from_columns((0, T), (T * T, 0))
        limit = contract(canonical_algebra(ClassLabel.B2), fam)
        assert limit == canonical_algebra(ClassLabel.B5)

    def test_pole(self):
        fam = ContractionFamily.diagonal(ONE, RationalFunction(
            Polynomial((1,)), Polynomial.t()))
        with pytest.raises(PoleAtZero):
            contract(canonical_algebra(ClassLabel.B2), fam)

    def test_limits_stay_associative(self):
        for source, target, fam in proper_edge_families():
            limit = contract(canonical_algebra(source), fam)
            assert limit.is_associative()


class TestAbelianFamily:
    def test_everything_contracts_to_zero(self):
        fam = abelian_family(2)
        for label in (ClassLabel.B7, ClassLabel.B2, ClassLabel.ABELIAN):
            limit = contract(canonical_algebra(label), fam)
            assert limit == canonical_algebra(ClassLabel.ABELIAN)


class TestVerifyEdge:
    def test_proper_families_verify(self):
        for source, target, fam in proper_edge_families():
            edge = verify_edge(source, target, fam)
            assert edge.verified, (source, target, edge.reason)
            assert edge.limit_label == target and edge.dimension_drop

    def test_dimension_violation_reported(self):
        edge = verify_edge(ClassLabel.B5, ClassLabel.B1, abelian_family(2))
        assert not edge.verified and "dimension" in edge.reason

    def test_wrong_target_reported(self):
        edge = verify_edge(ClassLabel.B1, ClassLabel.B4,
                           ContractionFamily.diagonal(ONE, T))
        assert not edge.verified and edge.limit_label == ClassLabel.B3

    def test_pole_reported(self):
        fam = ContractionFamily.diagonal(
            ONE, RationalFunction(Polynomial((1,)), Polynomial.t()))
        edge = verify_edge(ClassLabel.B2, ClassLabel.B5, fam)
        assert not edge.verified and "no limit" in edge.reason


class TestJordanCompatibility:
    def test_jordan_parts_contract_alongside(self):
        for source, target, fam in proper_edge_families():
            beta_limit = contract(canonical_algebra(source), fam)
            phi_source = canonical_algebra(source).jordan_part()
            phi_limit = contract(phi_source, fam)
            assert phi_limit == beta_limit.jordan_part()


class TestTransitivity:
    def test_composed_families_realize_b1_to_b5(self):
        first = ContractionFamily.diagonal(ONE, T)  # B1 -> B3
        second = ContractionFamily.from_columns((T, T), (0, T * T))  # B3 -> B5
        composed = first.compose(second)
        edge = verify_edge(ClassLabel.B1, ClassLabel.B5, composed)
        assert edge.verified


class TestGraph:
    def test_edge_set(self):
        g = contraction_graph()
        abelian_edges = {(l, ClassLabel.ABELIAN) for l in g.nodes
                         if l is not ClassLabel.ABELIAN}
        assert g.edge_set() == PROPER_EDGES | abelian_edges
        assert len(g.edges) == 14

    def test_rigid_nodes_receive_nothing(self):
        g = contraction_graph()
        for rigid in (ClassLabel.B1, ClassLabel.B2,
                      ClassLabel.B6, ClassLabel.B7):
            assert g.in_degree(rigid) == 0

    def test_degrees(self):
        g = contraction_graph()
        assert g.in_degree(ClassLabel.B5) == 4
        assert g.out_degree(ClassLabel.ABELIAN) == 0
        assert g.in_degree(ClassLabel.ABELIAN) == 7

    def test_dimension_inequality_on_all_edges(self):
        g = contraction_graph()
        for edge in g.edges:
            assert orbit_dim(canonical_algebra(edge.source)) > \
                orbit_dim(canonical_algebra(edge.target))

    def test_dot_deterministic(self):
        d1 = contraction_graph().to_dot()
        d2 = contraction_graph().to_dot()
        assert d1 == d2
        assert "beta2 -> beta4;" in d1
        assert "-> beta7" not in d1
        assert d1.count("->") == 14


class TestSearch:
    def test_finds_scaling_family(self):
        fam = search_families(ClassLabel.B1, ClassLabel.B3, 1)
        assert fam is not None
        assert verify_edge(ClassLabel.B1, ClassLabel.B3, fam).verified

    def test_rigid_target_short_circuits(self):
        assert search_families(ClassLabel.B6, ClassLabel.B1, 2) is None
        assert search_families(ClassLabel.B5, ClassLabel.B2, 2) is None

    def test_census_size(self):
        assert search_census(2) == 900
        assert search_census(0) == 100

    def test_bound_validation(self):
        # the census and the search accept exactly the same bounds
        for bound, message in ((5, "capped at 4"), (-1, "nonnegative"),
                               (-2, "nonnegative")):
            with pytest.raises(ValueError, match=message):
                search_families(ClassLabel.B1, ClassLabel.B3, bound)
            with pytest.raises(ValueError, match=message):
                search_census(bound)

    def test_rigidity_consistency(self):
        # no bound-2 template reaches a rigid class from a different class
        rigid = (ClassLabel.B1, ClassLabel.B2, ClassLabel.B6, ClassLabel.B7)
        sources = tuple(l for l in ASSOCIATIVE_LABELS)
        for target in rigid:
            for source in sources:
                if source is target:
                    continue
                assert search_families(source, target, 2) is None, \
                    (source, target)

    @pytest.mark.parametrize("bound,expected", [
        (0, set()),
        (1, BOUND1_EDGES),
        (2, DIAGRAM_EDGES),
        (3, DIAGRAM_EDGES),
        (4, DIAGRAM_EDGES),
    ])
    def test_census_golden(self, bound, expected):
        found = {}
        for source in ASSOCIATIVE_LABELS:
            for target in ASSOCIATIVE_LABELS:
                if source is target:
                    continue
                fam = search_families(source, target, bound)
                if fam is not None:
                    found[(source, target)] = fam
        assert set(found) == expected
        for (source, target), fam in found.items():
            assert verify_edge(source, target, fam).verified
        if bound >= 2:
            assert {pair: family_to_json(fam)["matrix"]
                    for pair, fam in found.items()} == GOLDEN_BOUND2


TRANSFORMS = _template_transforms()


class TestSearchReduction:
    """The facts the search rests on, checked through the Q(t) contract."""

    @settings(max_examples=150, deadline=None)
    @given(source=st.sampled_from(ASSOCIATIVE_LABELS),
           a=st.integers(0, 4), b=st.integers(0, 4),
           g=st.sampled_from(TRANSFORMS), h=st.sampled_from(TRANSFORMS))
    def test_right_factor_h_does_not_change_the_answer(self, source, a, b,
                                                        g, h):
        beta = canonical_algebra(source)
        gd = ContractionFamily(g).compose(
            ContractionFamily.diagonal(T**a, T**b))
        gdh = gd.compose(ContractionFamily(h))
        try:
            limit = contract(beta, gd)
        except PoleAtZero:
            limit = None
        try:
            limit_h = contract(beta, gdh)
        except PoleAtZero:
            limit_h = None
        assert (limit is None) == (limit_h is None)
        if limit is not None:
            assert classify(limit) == classify(limit_h)
        read = _diagonal_limit(beta.change_basis(LinearMap(g)), a, b)
        assert read == limit

    @settings(max_examples=150, deadline=None)
    @given(source=st.sampled_from(ASSOCIATIVE_LABELS),
           a=st.integers(0, 4), b=st.integers(0, 4),
           g=st.sampled_from(TRANSFORMS))
    def test_limits_are_associative_and_no_larger(self, source, a, b, g):
        # the (0, 0) limit is the source law in the basis g, which is why
        # the search skips it; every limit is a law of no larger orbit
        beta = canonical_algebra(source)
        moved = beta.change_basis(LinearMap(g))
        assert _diagonal_limit(moved, 0, 0) == moved
        assert classify(moved) is source
        limit = _diagonal_limit(moved, a, b)
        if limit is not None:
            assert limit.is_associative()
            assert orbit_dim(limit) <= orbit_dim(beta)
