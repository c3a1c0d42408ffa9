"""Command-line interface.

Commands: classify, decompose, orbit-dim, cohomology, perturb, contract,
graph. Algebra inputs come from JSON files or from --builtin NAME with
NAME one of beta1..beta7, abelian, phi1..phi6. Exit codes: 0 ok, 1 on
IO/parse errors or inputs of different sizes, 2 when an input law is not
associative where it must be (argparse usage errors also exit 2), 3 when
a contraction limit does not exist (pole at t = 0).
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import Algebra, DimensionMismatch, NotAssociative
from .classify import (
    ASSOCIATIVE_LABELS,
    ClassLabel,
    associated_jordan_label,
    canonical_algebra,
    classify,
    classify_fingerprint,
    fingerprint,
    jordan_classify2,
    label_from_string,
    lie_part_coefficients,
    NotJordan,
    witness_for,
)
from .contraction import (
    contraction_graph,
    limit_at_zero,
    search_census,
    search_families,
    transport,
)
from .deformation import _label_orbit_dim, cohomology2, orbit_dim, \
    perturbation_residual
from .scalars import PoleAtZero, rational_text
from . import serialize
from .serialize import ParseError

BUILTIN_NAMES = tuple(
    label.value for label in ClassLabel if label.value != "jordan_abelian"
)

_PRODUCT_NAMES = ("e1*e1", "e1*e2", "e2*e1", "e2*e2")


def _load_algebra(args) -> Algebra:
    if getattr(args, "builtin", None):
        try:
            return canonical_algebra(label_from_string(args.builtin))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if not args.input:
        raise ParseError("no input: give an algebra file or --builtin NAME")
    return serialize.parse_algebra(serialize.load_json(args.input))


def _tensor_lines(alg: Algebra, prefix: str) -> list[str]:
    if alg.dim == 2:
        rows = alg.to_matrix2()
        return [
            f"{prefix}[{name}]: ({rational_text(rows[k][0])}, "
            f"{rational_text(rows[k][1])})"
            for k, name in enumerate(_PRODUCT_NAMES)
        ]
    return [f"{prefix}: {serialize.algebra_to_json(alg)['constants']}"]


def _not_associative_report(exc: NotAssociative):
    where, value = exc.residual
    value = rational_text(value)  # a product of input numbers, of any size
    text = [
        "error: law is not associative",
        f"first_nonzero_residual[{where[0]},{where[1]},{where[2]},{where[3]}]:"
        f" {value}",
    ]
    payload = {
        "error": "not_associative",
        "first_nonzero_residual": {"index": list(where), "value": value},
    }
    return text, payload


def cmd_classify(args):
    alg = _load_algebra(args)
    if alg.dim != 2:
        alg.require_associative("classify needs an associative law")
        text = [
            f"dim: {alg.dim}",
            "associative: true",
            "note: class labels are defined for dimension 2",
        ]
        return 0, text, {"dim": alg.dim, "associative": True, "label": None}
    fp = fingerprint(alg)
    label = classify_fingerprint(fp)
    witness = witness_for(alg, fp)
    dim_orbit = _label_orbit_dim(label)
    wit = serialize.witness_to_json(witness)
    text = [f"label: {label.value}", f"orbit_dim: {dim_orbit}"]
    fp_fields = {name: getattr(fp, name) for name in fp._public()}
    for key, value in fp_fields.items():
        text.append(f"fingerprint.{key}: {str(value).lower()}")
    text.append(f"witness: {json.dumps(wit['matrix'])}")
    if "ext" in wit:
        text.append(f"witness_ext: {wit['ext']}")
    payload = {
        "label": label.value,
        "orbit_dim": dim_orbit,
        "fingerprint": fp_fields,
        "witness": wit,
    }
    return 0, text, payload


def cmd_decompose(args):
    alg = _load_algebra(args)
    phi = alg.jordan_part()
    mu = alg.lie_part()
    text = _tensor_lines(phi, "jordan_part")
    text += _tensor_lines(mu, "lie_part")
    # The symmetric part of an associative law is a Jordan law in every
    # dimension (Jacobson 1968, ch. I), so only a non-associative input
    # runs the cubic Jordan check.
    jordan_class = None
    if alg.dim == 2:
        try:
            jordan_class = associated_jordan_label(classify(alg))
        except NotAssociative:
            try:
                jordan_class = jordan_classify2(phi)
            except NotJordan:
                pass
        jordan_ok = jordan_class is not None
    else:
        jordan_ok = alg.is_associative() or phi.is_jordan()
    jacobi_ok = mu.is_lie()
    text.append(f"jordan_identity: {str(jordan_ok).lower()}")
    text.append(f"jacobi_identity: {str(jacobi_ok).lower()}")
    payload = {
        "jordan_part": serialize.algebra_to_json(phi),
        "lie_part": serialize.algebra_to_json(mu),
        "jordan_identity": jordan_ok,
        "jacobi_identity": jacobi_ok,
    }
    if jordan_class is not None:
        coeffs = lie_part_coefficients(mu)
        text.append(f"jordan_class: {jordan_class.value}")
        a, b = rational_text(coeffs.a), rational_text(coeffs.b)
        text.append(f"lie_coefficients: a={a}, b={b}")
        payload["jordan_class"] = jordan_class.value
        payload["lie_coefficients"] = {"a": a, "b": b}
    return 0, text, payload


def cmd_orbit_dim(args):
    alg = _load_algebra(args)
    d = orbit_dim(alg)
    s = alg.dim * alg.dim - d
    return 0, [f"orbit_dim: {d}", f"stabilizer_dim: {s}"], \
        {"orbit_dim": d, "stabilizer_dim": s}


def cmd_cohomology(args):
    alg = _load_algebra(args)
    z2, b2, h2 = cohomology2(alg)
    text = [f"z2_dim: {z2}", f"b2_dim: {b2}", f"h2_dim: {h2}"]
    return 0, text, {"z2_dim": z2, "b2_dim": b2, "h2_dim": h2}


def cmd_perturb(args):
    pert = serialize.parse_perturbation(serialize.load_json(args.input))
    residual = perturbation_residual(pert)
    entries = residual.nonzero_entries()
    if not entries:
        return 0, ["residual: identically associative"], \
            {"residual": "identically_associative", "entries": []}
    text = ["residual: nonzero"]
    payload_entries = []
    for (i, j, k, l), value in entries:
        value = str(value)
        text.append(f"residual[{i},{j},{k},{l}]: {value}")
        payload_entries.append({"index": [i, j, k, l], "value": value})
    return 0, text, {"residual": "nonzero", "entries": payload_entries}


def cmd_contract(args):
    if args.search:
        try:
            src, dst = (label_from_string(name) for name in args.search)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        for label in (src, dst):
            if label not in ASSOCIATIVE_LABELS:
                raise ParseError(f"{label} is not an associative class label")
        bound = args.template_bound
        if not 0 <= bound <= 4:
            raise ParseError("--template-bound must be between 0 and 4")
        census = search_census(bound)
        found = search_families(src, dst, bound)
        text = [
            f"search: {src.value} -> {dst.value}",
            f"template_bound: {bound}",
            f"census: {census}",
        ]
        payload = {
            "search": [src.value, dst.value],
            "template_bound": bound,
            "census": census,
        }
        if found is None:
            text.append("found: none (bounded search, not a proof)")
            payload["found"] = None
        else:
            fam_json = serialize.family_to_json(found)
            text.append(f"found: {json.dumps(fam_json['matrix'])}")
            payload["found"] = fam_json
            # search_families returns a family only once verify_edge has
            # confirmed it
            text.append("verified: true")
            payload["verified"] = True
        return 0, text, payload

    if args.builtin:
        family_path = args.family or args.input
        if not family_path:
            raise ParseError("contract needs a family file")
    else:
        if not args.input or not args.family:
            raise ParseError("contract needs an algebra and a family file")
        family_path = args.family
    alg = _load_algebra(args)
    fam = serialize.parse_family(serialize.load_json(family_path))
    moved = transport(alg, fam)
    text = []
    if alg.dim == 2:
        rows = moved.to_matrix2()
        for k, name in enumerate(_PRODUCT_NAMES):
            text.append(f"transported[{name}]: ({rows[k][0]}, {rows[k][1]})")
    limit = limit_at_zero(moved)
    text += _tensor_lines(limit, "limit")
    payload = {
        "transported": [
            [[str(x) for x in vec] for vec in row] for row in moved.constants
        ],
        "limit": serialize.algebra_to_json(limit),
    }
    if alg.dim == 2 and alg.is_associative():
        label = classify(limit)  # checks that the limit is associative
        source_dim = orbit_dim(alg)
        limit_dim = _label_orbit_dim(label)
        drop = source_dim > limit_dim
        text.append(f"limit_label: {label.value}")
        text.append(f"orbit_dim: {source_dim} -> {limit_dim}")
        text.append(f"dimension_drop: {str(drop).lower()}")
        payload.update(
            limit_label=label.value,
            orbit_dim_source=source_dim,
            orbit_dim_limit=limit_dim,
            dimension_drop=drop,
        )
    return 0, text, payload


def cmd_graph(args):
    graph = contraction_graph()
    dot = graph.to_dot()
    payload = {
        "nodes": [n.value for n in graph.nodes],
        "edges": sorted(
            [e.source.value, e.target.value] for e in graph.edges
        ),
    }
    return 0, [dot.rstrip("\n")], payload


def _law_arguments(p) -> None:
    p.add_argument("input", nargs="?", help="algebra JSON file")
    p.add_argument("--builtin", metavar="NAME", choices=BUILTIN_NAMES,
                   help="use a built-in law: " + ", ".join(BUILTIN_NAMES))
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable output")
    p.add_argument("--output", metavar="PATH", help="write report here")


def _perturb_arguments(p) -> None:
    p.add_argument("input", help="perturbation JSON file")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--output", metavar="PATH")


def _contract_arguments(p) -> None:
    p.add_argument("input", nargs="?",
                   help="algebra JSON file (or family file with --builtin)")
    p.add_argument("family", nargs="?", help="family JSON file")
    p.add_argument("--builtin", metavar="NAME", choices=BUILTIN_NAMES)
    p.add_argument("--search", nargs=2, metavar=("SRC", "DST"),
                   help="bounded template search between two class labels")
    p.add_argument("--template-bound", type=int, default=2,
                   metavar="N", help="exponent bound for --search (max 4)")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--output", metavar="PATH")


def _graph_arguments(p) -> None:
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--output", metavar="PATH")


# name -> (handler, help line, arguments), in the order help lists them
_COMMANDS = {
    "classify": (cmd_classify, "isomorphism class and witness",
                 _law_arguments),
    "decompose": (cmd_decompose, "Jordan and Lie parts", _law_arguments),
    "orbit-dim": (cmd_orbit_dim, "orbit and stabilizer dimensions",
                  _law_arguments),
    "cohomology": (cmd_cohomology, "second cohomology dimensions",
                   _law_arguments),
    "perturb": (cmd_perturb, "perturbation residual", _perturb_arguments),
    "contract": (cmd_contract, "transport a law and take t -> 0",
                 _contract_arguments),
    "graph": (cmd_graph, "emit the contraction diagram as DOT",
              _graph_arguments),
}


class _FullParserNeeded(Exception):
    """A one-command parser was about to print help or a usage error."""


class _OneCommandParser(argparse.ArgumentParser):
    """Parser that hands every printing path back to the full parser:
    usage lines and choice errors list all commands, so only the full
    parser prints them right."""

    def error(self, message):
        raise _FullParserNeeded

    def print_help(self, file=None):
        raise _FullParserNeeded


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``command`` a parser of that
    command alone, which raises _FullParserNeeded instead of printing."""
    parser_class = argparse.ArgumentParser if command is None \
        else _OneCommandParser
    parser = parser_class(
        prog="assoc2",
        description="Exact computations on two-dimensional associative "
                    "algebras: classification, Jordan/Lie decomposition, "
                    "deformations and contractions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse with the requested command's parser alone; help, usage errors
    and unknown commands go through the full parser."""
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        return build_parser(command).parse_args(argv)
    except _FullParserNeeded:
        return build_parser().parse_args(argv)


def _emit(args, text_lines, payload) -> None:
    if getattr(args, "as_json", False):
        body = serialize.dumps(payload)
    else:
        body = "\n".join(text_lines) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def main(argv=None) -> int:
    args = _parse(argv)
    handler = _COMMANDS[args.command][0]
    try:
        code, text_lines, payload = handler(args)
    except NotAssociative as exc:
        if exc.residual is None:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        code = 2
        text_lines, payload = _not_associative_report(exc)
    except (ParseError, DimensionMismatch) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except PoleAtZero as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        _emit(args, text_lines, payload)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
