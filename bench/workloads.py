"""Seeded request streams for the three workloads.

A request is the argv handed to ``assoc2.cli.main`` plus what the checker
needs to know about how its input was made. Input laws are written as JSON
files in the CLI's matrix shorthand; the program sees only those files and
argv. The same seed always gives the same requests and the same files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from exact import ASSOCIATIVE, CANONICAL, ORBIT_DIM, det2, is_associative, \
    law, rank, transport

WORKLOADS = ("cli-mix", "cli-mix-tall", "search")

# Requests per pass of a mix. A run serves whole passes, each with fresh
# inputs, so no law is ever sent twice.
MIX_PASS = 200
TALL_BITS = 128
SEARCH_BOUND = 2
# One fixed, cheap pair keeps the search warm-up independent of the seed.
WARMUP_PAIR = ("beta7", "abelian")


@dataclass
class Request:
    argv: list
    command: str
    expect: dict = field(default_factory=dict)
    # answered before any real work; counted in throughput, left out of
    # the latency percentiles
    quick: bool = False


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5))


def _tall(rng: random.Random) -> Fraction:
    top = 1 << TALL_BITS
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def _direction_small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


class MixGenerator:
    """The command mix of cli-mix (tall=False) and cli-mix-tall (tall=True).

    Every pass holds the exact shares, in a seeded order: 40% classify,
    10% classify on a non-associative law, 15% cohomology, 10% orbit-dim,
    15% decompose, 5% perturb with one direction and 5% with two. Exact
    shares, and classes dealt evenly, keep the run-to-run spread down to
    what the random basis changes themselves vary.
    """

    SHARES = (("classify", 0.40), ("classify-nonassoc", 0.10),
              ("cohomology", 0.15), ("orbit-dim", 0.10),
              ("decompose", 0.15), ("perturb1", 0.05), ("perturb2", 0.05))

    fresh_twice = False  # see run.timed_run

    def __init__(self, seed: int, tall: bool, workdir: str):
        self.height = "tall" if tall else "small"
        self.rng = random.Random(f"{seed}:{self.height}")
        self.scalar = _tall if tall else _small
        self.free = _tall if tall else _direction_small
        self.workdir = workdir
        self.count = 0
        self.decks = {}

    def _matrix(self):
        while True:
            g = [[self.scalar(self.rng) for _ in range(2)] for _ in range(2)]
            if det2(g):
                return g

    def associative(self, kind: str):
        """A random basis change of a class drawn from a shuffled deck of
        the eight classes kept per kind, so every command sees each class
        equally often."""
        deck = self.decks.setdefault(kind, [])
        if not deck:
            deck.extend(ASSOCIATIVE)
            self.rng.shuffle(deck)
        label = deck.pop()
        return label, transport(law(CANONICAL[label]), self._matrix())

    def free_law(self):
        return [[self.free(self.rng) for _ in range(2)] for _ in range(4)]

    def non_associative(self):
        while True:
            rows = self.free_law()
            if not is_associative(rows):
                return rows

    def _write(self, obj) -> str:
        path = os.path.join(self.workdir, f"in{self.count}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def request(self, kind: str) -> Request:
        if kind == "classify-nonassoc":
            rows = self.non_associative()
            path = self._write(_matrix_json(rows))
            return Request(["classify", path, "--json"], "classify",
                           {"rows": rows, "associative": False})
        label, rows = self.associative(kind)
        if kind.startswith("perturb"):
            n = int(kind[-1])
            while True:
                dirs = [self.free_law() for _ in range(n)]
                flat = [[x for row in d for x in row] for d in dirs]
                if rank(flat) == n:
                    break
            path = self._write({"base": _matrix_json(rows),
                                "directions": [_matrix_json(d) for d in dirs]})
            return Request(["perturb", path, "--json"], "perturb",
                           {"rows": rows, "directions": dirs})
        path = self._write(_matrix_json(rows))
        return Request([kind, path, "--json"], kind,
                       {"rows": rows, "label": label, "associative": True})

    def next_pass(self) -> list:
        kinds = [k for k, share in self.SHARES
                 for _ in range(round(share * MIX_PASS))]
        self.rng.shuffle(kinds)
        return [self.request(k) for k in kinds]

    def warmups(self) -> list:
        """One request of each command the mix uses. They are the same for
        every seed, so that set-up time does not vary with the seed."""
        rng, decks = self.rng, self.decks
        self.rng, self.decks = random.Random(f"warmup:{self.height}"), {}
        try:
            return [self.request(k) for k in
                    ("classify", "cohomology", "orbit-dim", "decompose",
                     "perturb2")]
        finally:
            self.rng, self.decks = rng, decks


def search_request(src: str, dst: str) -> Request:
    """A census request; quick when the orbit dimensions rule the pair out,
    so that the CLI answers without searching."""
    return Request(["contract", "--search", src, dst, "--template-bound",
                    str(SEARCH_BOUND), "--json"], "contract",
                   {"pair": (src, dst)}, ORBIT_DIM[src] <= ORBIT_DIM[dst])


def graph_request() -> Request:
    return Request(["graph", "--json"], "graph")


class SearchGenerator:
    """All 56 ordered class pairs in a seeded order, then graph."""

    fresh_twice = True

    def __init__(self, seed: int):
        self.rng = random.Random(f"{seed}:search")

    def next_pass(self) -> list:
        pairs = [(s, d) for s in ASSOCIATIVE for d in ASSOCIATIVE if s != d]
        self.rng.shuffle(pairs)
        return [search_request(s, d) for s, d in pairs] + [graph_request()]

    def warmups(self) -> list:
        return [search_request(*WARMUP_PAIR), graph_request()]


def generator(workload: str, seed: int, workdir: str):
    if workload == "cli-mix":
        return MixGenerator(seed, False, workdir)
    if workload == "cli-mix-tall":
        return MixGenerator(seed, True, workdir)
    if workload == "search":
        return SearchGenerator(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _matrix_json(rows) -> dict:
    return {"matrix": [[str(x) for x in row] for row in rows]}
