"""The five record types: ExistsIrrational, Fingerprint,
LiePartCoefficients, ContractionEdge and ContractionGraph.

They behave as frozen dataclasses do: positional and keyword construction
with defaults, == and hash over the tuple of compared fields, a
``Name(field=value, ...)`` repr, and no assignment. Importing the CLI
loads neither ``dataclasses`` nor ``inspect``.

Every value type, records included, refuses assignment and ``del``
through one base, ``scalars._Immutable``.
"""

import hashlib
import importlib
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import assoc2
from assoc2 import (
    Algebra,
    ClassLabel,
    ContractionEdge,
    ContractionGraph,
    Element,
    EpsPolynomial,
    ExistsIrrational,
    Fingerprint,
    LiePartCoefficients,
    LinearMap,
    Perturbation,
    Polynomial,
    QuadExt,
    RationalFunction,
    TrilinearMap,
    abelian_family,
    admissible_lie_parts,
    canonical_algebra,
    classify,
    contraction_graph,
    fingerprint,
    proper_edge_families,
    verify_edge,
)
from assoc2.scalars import _Immutable

SRC = Path(__file__).resolve().parents[1] / "src"

B2, B4 = ClassLabel.B2, ClassLabel.B4
EIGHT = (True, 0, 0, 2, True, False, True, False)


def _samples():
    """(record, the tuple of its compared fields)."""
    fam = abelian_family(2)
    return [
        (ExistsIrrational(Fraction(5, 3)), (Fraction(5, 3),)),
        (Fingerprint(*EIGHT), EIGHT),
        (LiePartCoefficients(Fraction(0), Fraction(1, 2)),
         (Fraction(0), Fraction(1, 2))),
        (ContractionEdge(B2, B4, fam, False),
         (B2, B4, fam, False, None, False, None)),
        (ContractionGraph((B2, B4), ()), ((B2, B4), ())),
    ]


def _value_samples():
    """One value of each value type that is not a record."""
    return [
        Polynomial((1, 2)),
        RationalFunction(Polynomial((1,)), Polynomial((0, 1))),
        QuadExt(1, 2),
        EpsPolynomial.var(1, 1),
        Element((1, 2)),
        LinearMap.identity(2),
        abelian_family(2),
        Algebra.zero(2),
        TrilinearMap(1, [Fraction(0)]),
        Perturbation(Algebra.zero(1), ()),
    ]


def _fields(value):
    return [name for cls in type(value).__mro__
            for name in vars(cls).get("__slots__", ())]


# recorded from the frozen dataclasses
REPRS = {
    "ExistsIrrational": "ExistsIrrational(discriminant=Fraction(5, 3))",
    "Fingerprint":
        "Fingerprint(commutative=True, left_ann_dim=0, right_ann_dim=0, "
        "derived_dim=2, unital=True, nilpotent=False, "
        "has_nontrivial_idempotent=True, has_square_zero=False)",
    "LiePartCoefficients":
        "LiePartCoefficients(a=Fraction(0, 1), b=Fraction(-1, 2))",
    "ContractionEdge":
        "ContractionEdge(source=<ClassLabel.B2: 'beta2'>, "
        "target=<ClassLabel.B4: 'beta4'>, "
        "family=ContractionFamily([['t', '1/2'], ['0', '1/2']]), "
        "verified=True, limit_label=<ClassLabel.B4: 'beta4'>, "
        "dimension_drop=True, reason=None)",
    "ContractionGraph": "ContractionGraph(nodes=(<ClassLabel.B1: 'beta1'>,), "
                        "edges=())",
}
GRAPH_REPR_SHA256 = ("42a9b3f19d2d3131fe98b3f7328dd79c"
                     "2a152ff93cd4b586ff8ca61e4c990460")


class TestRecords:
    @pytest.mark.parametrize("record,fields", _samples())
    def test_eq_and_hash_follow_the_compared_fields(self, record, fields):
        twin = type(record)(*fields)
        assert twin == record and not twin != record
        assert hash(record) == hash(twin) == hash(fields)
        assert record != fields

    @pytest.mark.parametrize("record,fields", _samples() + [
        (value, None) for value in _value_samples()])
    def test_immutable(self, record, fields):
        # one base refuses assignment and del on records and on the other
        # value types (fields None) alike, with the type's own message
        message = f"{type(record).__name__} is immutable"
        before = repr(record)
        assert _fields(record)
        for name in _fields(record) + ["extra"]:
            with pytest.raises(AttributeError) as raised:
                setattr(record, name, None)
            assert str(raised.value) == message
            with pytest.raises(AttributeError) as raised:
                delattr(record, name)
            assert str(raised.value) == message
        assert repr(record) == before
        if fields is not None:
            assert type(record)(*fields) == record

    def test_distinct_values_differ(self):
        assert ExistsIrrational(Fraction(2)) != ExistsIrrational(Fraction(3))
        assert LiePartCoefficients(1, 2) != LiePartCoefficients(2, 1)
        assert ExistsIrrational(Fraction(2)) != LiePartCoefficients(2, 2)
        assert len({LiePartCoefficients(0, Fraction(1, 2)),
                    LiePartCoefficients(Fraction(0), Fraction(1, 2))}) == 1

    def test_fingerprint_private_fields_left_out(self):
        plain = Fingerprint(*EIGHT)
        loaded = Fingerprint(*EIGHT, _unital=(1,), _idempotent="e",
                             _left_ann=(1, 2), _right_ann=(3,))
        assert loaded == plain and hash(loaded) == hash(plain)
        assert repr(loaded) == repr(plain)
        assert loaded._unital == (1,) and plain._right_ann == ()

    def test_keyword_and_positional_construction(self):
        fam = abelian_family(2)
        edge = ContractionEdge(B2, B4, fam, True, B4, True, "why")
        assert edge == ContractionEdge(
            reason="why", dimension_drop=True, limit_label=B4, verified=True,
            family=fam, target=B4, source=B2)
        default = ContractionEdge(B2, B4, fam, verified=False)
        assert (default.limit_label, default.dimension_drop,
                default.reason) == (None, False, None)
        assert LiePartCoefficients(b=2, a=1) == LiePartCoefficients(1, 2)
        assert ExistsIrrational(discriminant=5).discriminant == 5
        assert ContractionGraph(edges=(), nodes=(B2,)).nodes == (B2,)
        assert Fingerprint(**dict(zip(Fingerprint.__slots__, EIGHT))) == \
            Fingerprint(*EIGHT)

    @pytest.mark.parametrize("make", [
        lambda: ContractionEdge(B2, B4),
        lambda: ContractionEdge(B2, B4, None, True, None, False, None, 1),
        lambda: ContractionEdge(B2, B4, None, True, colour="red"),
        lambda: ContractionEdge(B2, B4, None, True, source=B2),
        lambda: Fingerprint(),
        lambda: ExistsIrrational(),
        lambda: LiePartCoefficients(1),
        lambda: ContractionGraph(()),
    ])
    def test_bad_arguments_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_reprs(self):
        edge = verify_edge(B2, B4, proper_edge_families()[2][2])
        assert {
            "ExistsIrrational": repr(ExistsIrrational(Fraction(5, 3))),
            "Fingerprint": repr(fingerprint(canonical_algebra(B2))),
            "LiePartCoefficients": repr(min(
                admissible_lie_parts(ClassLabel.PHI6), key=lambda c: c.b)),
            "ContractionEdge": repr(edge),
            "ContractionGraph": repr(ContractionGraph((ClassLabel.B1,), ())),
        } == REPRS
        assert hashlib.sha256(repr(contraction_graph()).encode()).hexdigest() \
            == GRAPH_REPR_SHA256


def test_del_leaves_the_canonical_tables_working():
    # canonical_algebra hands every caller the same cached object
    with pytest.raises(AttributeError):
        del canonical_algebra(ClassLabel.B1).dim
    assert canonical_algebra(ClassLabel.B1).dim == 2
    assert classify(canonical_algebra(ClassLabel.B1)) is ClassLabel.B1
    graph = contraction_graph()
    assert graph.edges and all(edge.verified for edge in graph.edges)


def _package_classes():
    """Every class defined in an assoc2 module."""
    for info in pkgutil.iter_modules(assoc2.__path__):
        module = importlib.import_module(f"assoc2.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def test_one_immutability_guard():
    classes = set(_package_classes())
    assert _Immutable in classes and len(classes) > 20
    slotted = {cls for cls in classes if "__slots__" in vars(cls)}
    assert {cls for cls in slotted if not issubclass(cls, _Immutable)} == set()
    guarded = {cls for cls in classes
               if {"__setattr__", "__delattr__"} & set(vars(cls))}
    assert guarded == {_Immutable}


def test_cli_import_leaves_out_dataclasses_and_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import assoc2.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout == "[]\n"
