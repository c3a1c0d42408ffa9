"""Answer checks that do not trust the code under test.

Each check compares one CLI reply with what is known from how its input
was made (the class label behind a random basis change) and with the
invariant tables in ``exact``. A check returns None when the reply is
right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from exact import (COHOMOLOGY, EDGES, FINGERPRINT, JORDAN_CLASS, ORBIT_DIM,
                   CANONICAL, Quad, classify_limit, family_limit, law,
                   residuals, transport)

SEARCH_CENSUS = 900  # (10 * (bound + 1))**2 candidate shapes at bound 2


def check(request, code, out: str):
    """Reason the reply to ``request`` is wrong, or None."""
    expect = request.expect
    want_code = 0 if expect.get("associative", True) else 2
    if code != want_code:
        return f"exit code {code!r}, expected {want_code}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "reply is not JSON"
    try:
        return _CHECKS[request.command](expect, payload)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError,
            ZeroDivisionError) as exc:
        return f"malformed reply: {exc!r}"


def _rows_of(alg_json) -> list:
    c = alg_json["constants"]
    return [[Fraction(x) for x in c[i][j]] for i in range(2) for j in range(2)]


def _check_classify(expect, payload):
    rows = expect["rows"]
    if not expect["associative"]:
        if payload.get("error") != "not_associative":
            return "missing not_associative payload"
        res = residuals(rows)
        first = next(p for p, v in enumerate(res) if v)
        where = [first // 8 + 1, first // 4 % 2 + 1, first // 2 % 2 + 1,
                 first % 2 + 1]
        got = payload["first_nonzero_residual"]
        if got["index"] != where or Fraction(got["value"]) != res[first]:
            return f"first residual {got}, expected {where} {res[first]}"
        return None
    label = expect["label"]
    if payload["label"] != label:
        return f"label {payload['label']}, expected {label}"
    if payload["orbit_dim"] != ORBIT_DIM[label]:
        return f"orbit_dim {payload['orbit_dim']} for {label}"
    if payload["fingerprint"] != FINGERPRINT[label]:
        return f"fingerprint {payload['fingerprint']} for {label}"
    return _check_witness(rows, label, payload["witness"])


def _check_witness(rows, label, wit):
    """The witness must move the input law exactly onto the class table."""
    ext = wit.get("ext")
    if ext is None:
        g = [[Fraction(x) for x in row] for row in wit["matrix"]]
        moved = transport(rows, g)
        target = law(CANONICAL[label])
    else:
        g = [[Quad(Fraction(a), Fraction(b), ext) for a, b in row]
             for row in wit["matrix"]]
        moved = transport([[Quad(x, 0, ext) for x in r] for r in rows], g,
                          Quad(0, 0, ext))
        target = [[Quad(x, 0, ext) for x in r] for r in law(CANONICAL[label])]
    if moved != target:
        return f"witness does not move the law onto {label}"
    return None


def _check_cohomology(expect, payload):
    got = (payload["z2_dim"], payload["b2_dim"], payload["h2_dim"])
    if got != COHOMOLOGY[expect["label"]]:
        return f"cohomology {got} for {expect['label']}"
    return None


def _check_orbit_dim(expect, payload):
    want = ORBIT_DIM[expect["label"]]
    if (payload["orbit_dim"], payload["stabilizer_dim"]) != (want, 4 - want):
        return f"orbit/stabilizer {payload} for {expect['label']}"
    return None


def _check_decompose(expect, payload):
    rows = expect["rows"]
    half = Fraction(1, 2)
    sym = [[(rows[p][k] + rows[q][k]) * half for k in range(2)]
           for p, q in ((0, 0), (1, 2), (2, 1), (3, 3))]
    alt = [[(rows[p][k] - rows[q][k]) * half for k in range(2)]
           for p, q in ((0, 0), (1, 2), (2, 1), (3, 3))]
    if _rows_of(payload["jordan_part"]) != sym:
        return "jordan_part differs from the symmetrisation"
    if _rows_of(payload["lie_part"]) != alt:
        return "lie_part differs from the antisymmetrisation"
    if payload["jordan_identity"] is not True \
            or payload["jacobi_identity"] is not True:
        return "Jordan or Jacobi identity reported false"
    if payload["jordan_class"] != JORDAN_CLASS[expect["label"]]:
        return f"jordan_class {payload['jordan_class']} for {expect['label']}"
    coeffs = payload["lie_coefficients"]
    if (Fraction(coeffs["a"]), Fraction(coeffs["b"])) != (alt[1][0], alt[1][1]):
        return f"lie_coefficients {coeffs}"
    return None


def parse_eps(text: str, nvars: int) -> dict:
    """Parse the CLI's eps-polynomial text into {exponents: coefficient}."""
    tokens = text.split(" ")
    signed = [(1, tokens[0])] + [
        (1 if sign == "+" else -1, term)
        for sign, term in zip(tokens[1::2], tokens[2::2])
    ]
    terms = {}
    for sign, term in signed:
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        coeff = Fraction(1)
        exps = [0] * nvars
        for factor in term.split("*"):
            if factor.startswith("eps"):
                var, _, power = factor[3:].partition("^")
                exps[int(var) - 1] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
    return terms


def _eval_eps(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for exps, c in terms.items():
        for v, e in zip(point, exps):
            c *= v**e
        total += c
    return total


def _check_perturb(expect, payload):
    """Residual at sampled eps values = 2 * associator of the specialised
    law base + e1 phi1 + e1 e2 phi2."""
    rows, dirs = expect["rows"], expect["directions"]
    n = len(dirs)
    got = {}
    for entry in payload["entries"]:
        i, j, k, l = entry["index"]
        got[(i - 1) * 8 + (j - 1) * 4 + (k - 1) * 2 + (l - 1)] = \
            parse_eps(entry["value"], n)
    if (payload["residual"] == "identically_associative") != (not got):
        return "residual flag disagrees with its entries"
    rng = random.Random(repr(rows))
    for _ in range(2):
        point = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                          rng.randint(1, 4)) for _ in range(n)]
        scale = [Fraction(1)] * n
        for v in range(n):
            for w in range(v + 1):
                scale[v] *= point[w]
        special = [[rows[r][s] + sum(scale[v] * dirs[v][r][s]
                                     for v in range(n))
                    for s in range(2)] for r in range(4)]
        want = [2 * x for x in residuals(special)]
        for pos, value in enumerate(want):
            have = _eval_eps(got[pos], point) if pos in got else 0
            if have != value:
                return f"residual entry {pos} is {have} at {point}, " \
                       f"expected {value}"
    return None


def _check_contract(expect, payload):
    src, dst = expect["pair"]
    if payload["search"] != [src, dst] or payload["template_bound"] != 2:
        return f"search echo {payload['search']}"
    if payload["census"] != SEARCH_CENSUS:
        return f"census {payload['census']}"
    found = payload["found"]
    if (src, dst) not in EDGES:
        return None if found is None else f"{src}->{dst} is not an edge"
    if found is None:
        return f"no family found for the edge {src}->{dst}"
    if payload.get("verified") is not True:
        return f"family for {src}->{dst} not verified"
    matrix = [[(x["num"], x["den"]) for x in row] for row in found["matrix"]]
    limit = family_limit(src, matrix)
    if limit is None:
        return f"family for {src}->{dst} has a pole at t = 0"
    got = classify_limit(limit)
    if got != dst:
        return f"family for {src}->{dst} contracts onto {got}"
    return None


def _check_graph(expect, payload):
    nodes = ["beta1", "beta2", "beta3", "beta4", "beta5", "beta6", "beta7",
             "abelian"]
    if payload["nodes"] != nodes:
        return f"graph nodes {payload['nodes']}"
    if payload["edges"] != sorted([s, d] for s, d in EDGES):
        return f"graph edges {payload['edges']}"
    return None


_CHECKS = {
    "classify": _check_classify,
    "cohomology": _check_cohomology,
    "orbit-dim": _check_orbit_dim,
    "decompose": _check_decompose,
    "perturb": _check_perturb,
    "contract": _check_contract,
    "graph": _check_graph,
}
