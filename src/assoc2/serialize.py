"""JSON (de)serialization for algebras, families and perturbations.

Exact values only: rationals travel as strings "p/q" (or "p", or JSON
integers), optionally signed, in ASCII digits; floats, decimals, exponent
notation, underscores and padding are rejected. Rational functions are
coefficient arrays in ascending degree, {"num": [...], "den": [...]}. The
algebra file format is {"dim": n, "scalars": "rational", "constants":
[[[...]]]} with constants[i][j] the coordinates of e_{i+1} * e_{j+1};
dimension-2 files may instead use the shorthand
{"matrix": [[a1,a2],[b1,b2],[c1,c2],[d1,d2]]} listing the rows e1e1, e1e2,
e2e1, e2e2. ``dim`` is a JSON integer, at most
``MAX_DIM``: the second cohomology ranks an n^3 x n^4 matrix, which takes
seconds at n = 4 and about a minute at n = 5.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import Algebra, LinearMap
from .contraction import ContractionFamily
from .deformation import Perturbation
from .scalars import Polynomial, QuadExt, RationalFunction, rational_text


MAX_DIM = 4

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


class ParseError(ValueError):
    pass


def _array(value, what: str) -> list:
    """``value`` when it is a JSON array; a string or an object would
    otherwise be read by its characters or its keys."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON array")
    return value


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction() alone would also take decimals, underscores, padding
        # and exponent notation; "1e<N>" builds 10**N exactly.
        if not _RATIONAL.fullmatch(value):
            raise ParseError(f"bad rational {value!r}: write 'p/q' or 'p'; "
                             "decimals, exponent notation, underscores and "
                             "spaces are not accepted")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {value!r}: {exc}") from None
    if isinstance(value, float):
        raise ParseError(
            f"refusing inexact float {value!r}; write it as a 'p/q' string"
        )
    raise ParseError(f"not a rational value: {value!r}")


def parse_rational_function(obj) -> RationalFunction:
    if isinstance(obj, (int, str)):
        return RationalFunction(Polynomial((parse_rational(obj),)))
    if not isinstance(obj, dict) or "num" not in obj:
        raise ParseError(f"bad rational-function object: {obj!r}")
    num = Polynomial([parse_rational(c) for c in _array(obj["num"], "num")])
    den = Polynomial([parse_rational(c)
                      for c in _array(obj.get("den", [1]), "den")])
    if den.is_zero():
        raise ParseError("rational function with zero denominator")
    return RationalFunction(num, den)


def rational_function_to_json(r: RationalFunction) -> dict:
    return {
        "num": [rational_text(c) for c in r.num.coeffs],
        "den": [rational_text(c) for c in r.den.coeffs],
    }


def parse_algebra(obj) -> Algebra:
    if not isinstance(obj, dict):
        raise ParseError("algebra file must hold a JSON object")
    if "matrix" in obj:
        rows = _array(obj["matrix"], "the matrix shorthand")
        if len(rows) != 4:
            raise ParseError("matrix shorthand needs 4 coefficient rows")
        parsed = [[parse_rational(x) for x in _array(row, "a matrix row")]
                  for row in rows]
        if any(len(r) != 2 for r in parsed):
            raise ParseError("matrix shorthand rows must have 2 entries")
        return Algebra.from_matrix2(parsed)
    try:
        dim = obj["dim"]
        constants = obj["constants"]
    except KeyError as exc:
        raise ParseError(f"bad algebra object: {exc}") from None
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseError(f"dim must be a JSON integer, not {dim!r}")
    if dim > MAX_DIM:
        raise ParseError(f"dim {dim} is above the supported maximum {MAX_DIM}")
    scalars = obj.get("scalars", "rational")
    if scalars != "rational":
        raise ParseError(f"unsupported scalar kind {scalars!r} in algebra file")
    try:
        tensor = [
            [[parse_rational(x) for x in _array(vec, "a constants vector")]
             for vec in _array(row, "a constants row")]
            for row in _array(constants, "constants")
        ]
        return Algebra(dim, tensor)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad constants tensor: {exc}") from None


def algebra_to_json(alg: Algebra) -> dict:
    return {
        "dim": alg.dim,
        "scalars": "rational",
        "constants": [
            [[rational_text(x) for x in vec] for vec in row]
            for row in alg.constants
        ],
    }


def parse_family(obj) -> ContractionFamily:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ParseError("family file must hold {'matrix': [[...], ...]}")
    rows = _array(obj["matrix"], "the family matrix")
    try:
        return ContractionFamily(
            [[parse_rational_function(x) for x in _array(row, "a family row")]
             for row in rows]
        )
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"bad family: {exc}") from None


def family_to_json(fam: ContractionFamily) -> dict:
    return {
        "matrix": [
            [rational_function_to_json(x) for x in row] for row in fam.matrix
        ]
    }


def parse_perturbation(obj) -> Perturbation:
    if not isinstance(obj, dict) or "base" not in obj:
        raise ParseError("perturbation file needs 'base' and 'directions'")
    base = parse_algebra(obj["base"])
    directions = [parse_algebra(d)
                  for d in _array(obj.get("directions", []), "directions")]
    try:
        return Perturbation(base, directions)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def witness_to_json(witness: LinearMap) -> dict:
    entries = [x for row in witness.matrix for x in row]
    ext = next((x.d for x in entries if isinstance(x, QuadExt)), None)
    if ext is None:
        return {"matrix": [[rational_text(x) for x in row]
                           for row in witness.matrix]}
    out = []
    for row in witness.matrix:
        orow = []
        for x in row:
            if isinstance(x, QuadExt):
                orow.append([rational_text(x.a), rational_text(x.b)])
            else:
                orow.append([rational_text(x), "0"])
        out.append(orow)
    return {"matrix": out, "ext": ext}


def dumps(obj) -> str:
    """Canonical text form: sorted keys, two-space indent, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} nests JSON arrays or objects too deeply") \
            from None
    except ValueError as exc:  # e.g. an integer past the int-string limit
        raise ParseError(f"{path} is not readable JSON: {exc}") from None
