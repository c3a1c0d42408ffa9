"""Characterization test: the bytes of every command on a seeded corpus.

The corpus comes from fixed seeds:

* dimension-2 laws at small and 128-bit heights: basis changes of every
  class, and free laws that are not associative (the exit-2 report);
* a few dimension-3 laws, associative and not;
* perturbations with one to three directions;
* contraction families: the stored ones on their source classes, and user
  families with a pole and without.

Every request is served in process, in text and with ``--json``. The
(exit code, stdout, stderr) of one command's replies are hashed together,
so a changed byte names its command. The digests were recorded before the
five frozen dataclasses became ``__slots__`` records.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from assoc2 import (
    ASSOCIATIVE_LABELS,
    Algebra,
    ClassLabel,
    ContractionFamily,
    LinearMap,
    Polynomial,
    RationalFunction,
    abelian_family,
    canonical_algebra,
    proper_edge_families,
)
from assoc2 import serialize
from assoc2.cli import main
from util import direct_sum, rand_invertible, random_law2, random_poly

TALL = 1 << 128

DIGESTS = {
    "classify": "ff0d1c3dfae1d4bc69237883c55ba4bc"
                "0ed50b2a86ff8872e5a5eb690d6d709c",
    "cohomology": "2db8d6d5677ee6a6e4dce2c941c4db2e"
                  "27d30a0b97dec1b9d4c8111e0ee5a546",
    "contract": "ecfa71af667d1d588feae29f94572d30"
                "f7849bcd8335f77cc4fb63f1e35b0b07",
    "decompose": "98de0cefb4c9fc3d3b0df2aa26771b25"
                 "b5a03bc642abe337df3fac964cb5c8b3",
    "orbit-dim": "ff925378d80a10b43bc94f5fce80e747"
                 "e937d8eda080c07c8a4dda132216e194",
    "perturb": "3ae170709f29d6de1ab3d7d4c618da1a"
               "241e785ca446baad02c88e4ba03f0378",
}


def _tall(rng):
    return Fraction(rng.randint(-TALL, TALL), rng.randint(1, TALL))


def _tall_invertible(rng):
    while True:
        m = LinearMap([[_tall(rng) for _ in range(2)] for _ in range(2)])
        if m.is_invertible:
            return m


def _laws(rng):
    """Every class under two small basis changes and one tall one, free
    laws at both heights, and three dimension-3 laws."""
    laws = []
    for label in ASSOCIATIVE_LABELS:
        beta = canonical_algebra(label)
        laws += [beta.change_basis(rand_invertible(rng)),
                 beta.change_basis(rand_invertible(rng, lo=-40, hi=40)),
                 beta.change_basis(_tall_invertible(rng))]
    laws += [random_law2(rng) for _ in range(3)]
    laws.append(Algebra.from_matrix2(
        [[_tall(rng) for _ in range(2)] for _ in range(4)]))
    unit = Algebra(1, [[[1]]])
    laws += [
        direct_sum(canonical_algebra(ClassLabel.B1), unit).change_basis(
            rand_invertible(rng, 3, -2, 2)),
        direct_sum(canonical_algebra(ClassLabel.B6),
                   Algebra.zero(1)).change_basis(
            rand_invertible(rng, 3, -2, 2)),
        Algebra(3, [[[rng.randint(-2, 2) for _ in range(3)]
                     for _ in range(3)] for _ in range(3)]),
    ]
    return laws


def _perturbations(rng):
    """One to three directions over small and tall bases, and one
    non-associative base."""
    bases = [canonical_algebra(label).change_basis(rand_invertible(rng))
             for label in ASSOCIATIVE_LABELS]
    bases.append(canonical_algebra(ClassLabel.B2).change_basis(
        _tall_invertible(rng)))
    perts = [(base, [random_law2(rng) for _ in range(1 + i % 3)])
             for i, base in enumerate(bases)]
    perts.append((random_law2(rng), [random_law2(rng)]))
    return perts


def _families(rng):
    """(law, family): every stored family on its source, user families
    with polynomial entries on basis changes of each class, a family with
    a pole, and a family of the wrong size."""
    t = RationalFunction.t()
    one = RationalFunction.const(1)
    cases = [(canonical_algebra(source), fam)
             for source, _, fam in proper_edge_families()]
    cases += [(canonical_algebra(label), abelian_family(2))
              for label in ASSOCIATIVE_LABELS]
    for label in ASSOCIATIVE_LABELS:
        law = canonical_algebra(label).change_basis(rand_invertible(rng))
        entries = [RationalFunction(random_poly(rng, 2)) for _ in range(4)]
        cases.append((law, ContractionFamily([entries[:2], entries[2:]])))
        cases.append((law, ContractionFamily.diagonal(one, t)))
    cases.append((canonical_algebra(ClassLabel.B2),
                  ContractionFamily.diagonal(
                      one, RationalFunction(Polynomial([1]),
                                            Polynomial([0, 1])))))
    cases.append((random_law2(rng), ContractionFamily.diagonal(t, t * t)))
    cases.append((direct_sum(canonical_algebra(ClassLabel.B1),
                             Algebra.zero(1)), abelian_family(2)))
    return cases


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """command -> [argv]; the input files live in one temporary folder."""
    folder = tmp_path_factory.mktemp("corpus")
    count = itertools.count()

    def write(obj):
        path = folder / f"in{next(count)}.json"
        path.write_text(serialize.dumps(obj), encoding="utf-8")
        return str(path)

    law_files = [write(serialize.algebra_to_json(law))
                 for law in _laws(random.Random("corpus:laws"))]
    requests = {command: [[command, path] for path in law_files]
                for command in ("classify", "decompose", "orbit-dim",
                                "cohomology")}
    requests["perturb"] = [
        ["perturb", write({
            "base": serialize.algebra_to_json(base),
            "directions": [serialize.algebra_to_json(d) for d in dirs]})]
        for base, dirs in _perturbations(random.Random("corpus:perturb"))]
    requests["contract"] = [
        ["contract", write(serialize.algebra_to_json(law)),
         write(serialize.family_to_json(fam))]
        for law, fam in _families(random.Random("corpus:contract"))]
    return requests


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_command_bytes(capsys, corpus, command):
    digest = hashlib.sha256()
    for argv in corpus[command]:
        for extra in ([], ["--json"]):
            code = main(argv + extra)
            out = capsys.readouterr()
            digest.update(f"{code}\0{out.out}\0{out.err}\0".encode())
    assert digest.hexdigest() == DIGESTS[command]
